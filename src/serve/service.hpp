// SweepService: the daemon's execution core, independent of any socket.
//
// Requests admitted by submit() execute on a bounded set of dispatcher
// threads (one per in-flight slot), each driving an exp::Runner
// over ONE process-wide solver pool and ONE process-wide content-hash
// result cache — so a second client asking for an overlapping λ-grid
// gets cache hits and warm-chained solves instead of cold ones, and the
// cache hit/miss/quarantine counters aggregate across every client.
//
// Admission control is two bounds: max_in_flight requests executing plus
// max_queued admitted-but-waiting; anything beyond is answered with an
// explicit "rejected" line, never silently dropped or unboundedly
// buffered. Failures inside a request follow the PR 5 degrade-don't-die
// machinery (OnFailure::Report + bounded retries): a failed λ-point
// surfaces as a per-point error{kind,message,attempts} payload while the
// rest of the request — and every other in-flight request — completes
// unaffected.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exp/cache.hpp"
#include "exp/runner.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"

namespace lsm::serve {

struct ServiceOptions {
  /// Solver pool width shared by every request (0 = worker_threads()).
  unsigned solver_threads = 0;
  /// Requests executing concurrently (dispatcher threads).
  std::size_t max_in_flight = 2;
  /// Requests admitted but waiting for a dispatcher.
  std::size_t max_queued = 8;
  /// Process-wide result cache directory ("" disables caching — every
  /// request then solves cold and nothing is shared).
  std::string cache_dir = exp::ResultCache::default_dir();
  /// Retry policy for retryable point failures (transient I/O, injected
  /// faults), applied per point by exp::Runner (RunnerOptions::retry).
  exp::RetryPolicy retry{};

  // Test hooks (keep null in production). on_start runs on the
  // dispatcher thread after the request leaves the queue and before any
  // solving — a test can block here to hold an admission slot open
  // deterministically. on_point_hook runs after each point line has been
  // emitted (or suppressed, for cancelled points) — a test can gate here
  // to freeze a stream mid-flight.
  std::function<void(const Request&)> on_start;
  std::function<void(const Request&, std::size_t index)> on_point_hook;
};

class SweepService {
 public:
  /// Response sink for one request: called with each response line's
  /// JSON tree, from a dispatcher or pool thread. Returns false when the
  /// line could not be delivered (client gone) — the service then
  /// cancels the rest of the request so a dead client cannot pin an
  /// admission slot.
  using Emit = std::function<bool(const util::Json& line)>;

  explicit SweepService(ServiceOptions opts);
  /// Drains like the destructor of a Server-owned service: stops
  /// accepting, finishes queued + in-flight requests, joins dispatchers.
  ~SweepService();

  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Admits `req` (sweep/estimate only) or rejects it. On admission the
  /// request's response lines stream through `emit` asynchronously and
  /// submit returns true; on rejection a "rejected" line is emitted
  /// synchronously and submit returns false.
  bool submit(Request req, Emit emit);

  /// Flags the queued or in-flight request whose id matches for
  /// cooperative cancellation. Cancellation lands between λ-points: the
  /// stream stops promptly, a terminal done line (cancelled: true) is
  /// still emitted, and the admission slot frees. False when no live
  /// request has that id.
  bool cancel(const std::string& id);

  /// Daemon counters as a "status"-typed response line (admission gauges,
  /// lifetime totals, process-wide cache counters).
  [[nodiscard]] util::Json status() const;

  /// Stops admitting (submit answers "rejected: shutting down").
  void begin_drain();
  /// Blocks until the queue is empty and nothing is in flight.
  void drain();

 private:
  /// One admitted request: the parsed form, its response sink, and the
  /// cancel flag shared with the sweep's cooperative checks.
  struct Active {
    Request req;
    Emit emit;
    std::atomic<bool> cancel{false};
  };

  void worker_loop();
  void run_request(Active& active);

  ServiceOptions opts_;
  par::ThreadPool pool_;
  exp::ResultCache cache_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< dispatchers wait for queue items
  std::condition_variable drain_cv_;  ///< drain() waits for full idle
  std::deque<std::shared_ptr<Active>> queue_;
  std::vector<std::shared_ptr<Active>> running_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
  bool draining_ = false;
  std::size_t in_flight_ = 0;

  // Lifetime totals (under mutex_).
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t points_streamed_ = 0;
  std::uint64_t point_failures_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
};

}  // namespace lsm::serve
