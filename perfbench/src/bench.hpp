// Shared pieces of the lsmbench harness: clocks, order statistics, the
// seeded input generator, the span tracer, a handle on a spawned lsm_serve
// daemon, a raw line-protocol connection, and the per-run outcome that
// main() prints as the final JSON line.
#pragma once

#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "util/json.hpp"
#include "util/xoshiro.hpp"

namespace perfbench {

using lsm::util::Json;

[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] inline double ns_to_ms(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-6;
}
[[nodiscard]] inline double ns_to_s(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Path of the lsm_serve binary (serve workloads).
  std::string serve_bin;
  /// Relative directory for sockets, caches, logs and the trace file;
  /// created fresh and removed at exit (the trace file is kept).
  std::string work_dir;
  /// Self-check: arm the daemon's fault injector on one serve_solve point.
  bool inject_fault = false;
};

// ---------------------------------------------------------------- stats

/// Nearest-rank percentile (p in [0, 1]) of `xs`; +inf samples (failed
/// requests) sort last. NaN for an empty sample.
[[nodiscard]] double percentile(std::vector<double> xs, double p);
[[nodiscard]] double median(std::vector<double> xs);
[[nodiscard]] double mean(const std::vector<double>& xs);

/// End-to-end figures of a run.
struct Figures {
  double p50 = 0, p90 = 0, p99 = 0;  ///< request latency percentiles, ms
  double first_point = 0;            ///< median time to the first result, ms
  double throughput = 0;             ///< requests/s
  double points = 0;                 ///< results/s
  double events = 0;                 ///< workload-specific work units/s
};

/// One request's times in one round.
struct Timed {
  double latency_ms = 0.0;  ///< +inf when the request failed
  double first_point_ms = 0.0;
};

/// Figures of the rounds' best times. A workload sends the same requests
/// in every round, so request i does the same work in every round; its
/// fastest round is the one the host disturbed least. Each request's
/// latency is its best over the rounds it succeeded in (+inf if it failed
/// in all; the caller counts failed attempts), the percentiles are taken
/// over those bests, and the rates divide one round's work (`points[i]`
/// results and `events[i]` work units for request i) by their sum.
[[nodiscard]] Figures best_times(const std::vector<std::vector<Timed>>& rounds,
                                 const std::vector<double>& points,
                                 const std::vector<double>& events);

/// Threads whose exceptions are not lost: join() waits for all of them
/// and rethrows the first exception any of them threw.
class Threads {
 public:
  Threads() = default;
  ~Threads() { wait(); }
  Threads(const Threads&) = delete;
  Threads& operator=(const Threads&) = delete;

  template <typename Fn>
  void spawn(Fn fn) {
    threads_.emplace_back([this, fn = std::move(fn)]() mutable {
      try {
        fn();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
      }
    });
  }
  void join() {
    wait();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void wait() {
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }
  std::mutex mutex_;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------- inputs

/// Deterministic input generator: every workload derives its request
/// order and λ jitter from the --seed argument through this, never from
/// the clock.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : sm_(seed) {}
  double uniform() {  // [0, 1)
    return static_cast<double>(sm_.next() >> 11) * 0x1.0p-53;
  }
  double exponential(double rate);
  template <typename T>
  void shuffle(std::vector<T>& xs) {
    for (std::size_t i = xs.size(); i > 1; --i) {
      std::swap(xs[i - 1], xs[sm_.next() % i]);
    }
  }

 private:
  lsm::util::SplitMix64 sm_;
};

// ---------------------------------------------------------------- tracing

/// One timed interval at a layer boundary, recorded by the harness around
/// its call into that layer.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 = root
  std::uint64_t request = 0;  ///< spans of one request share this id
};

/// Per-name totals over the recorded spans.
struct LayerTime {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  ///< total minus the time child spans cover
  std::vector<double> durations_ms;
};

/// In-memory span recorder. Disabled tracers record nothing: begin()
/// returns -1 and end()/record() return at once, so untraced runs pay one
/// branch per boundary. Spans are written to disk once, by write().
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  std::int64_t begin(const char* name, std::int64_t parent = -1,
                     std::uint64_t request = 0);
  void end(std::int64_t index);
  /// Records an interval measured elsewhere (e.g. by a socket reader).
  std::int64_t record(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::int64_t parent = -1,
                      std::uint64_t request = 0);

  [[nodiscard]] std::map<std::string, LayerTime> layers() const;
  /// Writes every span plus the per-layer totals as one JSON document.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int64_t parent = -1,
             std::uint64_t request = 0)
      : tracer_(tracer), index_(tracer.begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

// ---------------------------------------------------------------- daemon

/// One lsm_serve process with its own socket and cache directory ("" runs
/// it with the cache off). The destructor kills and reaps a daemon that
/// was not shut down cleanly.
class Daemon {
 public:
  /// Spawns the daemon and returns once its socket accepts connections.
  /// `env` entries ("KEY=value") are added to the inherited environment.
  Daemon(const std::string& bin, const std::string& socket,
         const std::string& cache_dir, const std::string& log,
         const std::vector<std::string>& env = {});
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket() const noexcept { return socket_; }
  /// The daemon's peak resident set (VmHWM) so far, in MiB.
  [[nodiscard]] double peak_rss_mb() const;
  /// The "status" response line.
  [[nodiscard]] Json status() const;
  /// Sends the shutdown verb and reaps the process; throws when it does
  /// not exit with status 0.
  void shutdown();

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// Peak resident set (VmHWM) of /proc/<pid>/status ("self" for this
/// process), in MiB.
[[nodiscard]] double vm_hwm_mb(const std::string& pid);

// ---------------------------------------------------------------- protocol

/// A raw newline-delimited connection to the daemon. The harness keeps
/// the bytes of every response line (to check them byte for byte after
/// the timed phase) and only routes lines by their leading "type"/"id"
/// fields while timing. send() and read_line() may run on two threads.
class LineConn {
 public:
  explicit LineConn(const std::string& socket_path);
  ~LineConn();
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  void send(const std::string& line);  ///< appends the newline
  /// Next complete line (without newline). False on timeout; throws when
  /// the daemon closed the connection.
  bool read_line(std::string& out, double timeout_seconds);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Value of the string field `key` in a compact protocol line, found by
/// scanning (the writer puts "type" first and "id" second).
[[nodiscard]] std::string_view line_field(std::string_view line,
                                          std::string_view key);

/// done, error and rejected lines end a request's stream.
[[nodiscard]] bool is_terminal(std::string_view type);

/// One response line and when it was read.
struct Line {
  std::int64_t t_ns = 0;
  std::string text;
};

/// One request's exchange: when it was sent and its lines, terminal last.
struct Call {
  std::int64_t sent_ns = 0;
  std::vector<Line> lines;
};

/// Sends `request` (whose id is `id`) and reads until its terminal line.
/// Only one request may be outstanding on `conn`.
Call call(LineConn& conn, const std::string& id, const std::string& request);

/// A sweep/estimate request line.
[[nodiscard]] std::string request_line(const std::string& verb,
                                       const std::string& id,
                                       const std::string& model,
                                       const Json& params,
                                       const std::vector<double>& lambdas);

// ---------------------------------------------------------------- outcome

/// Requests one phase sent and how they ended.
struct PhaseCount {
  std::string name;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
};

struct Outcome {
  std::vector<std::string> problems;  ///< failed correctness gates
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<PhaseCount> phases;
  /// Counters that must repeat exactly for the same seed and build;
  /// compared across runs by run.py.
  Json determinism = Json::object();

  /// Records a failed gate unless `ok`.
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value, const std::string& unit);

};

Outcome run_serve_solve(const Options& opts, Tracer& tracer);
Outcome run_sim_replicate(const Options& opts, Tracer& tracer);

/// serve_solve's traced run: the cache-replay layers of a prefilled daemon
/// (an open loop plus in-process probes, about `seconds` long), recorded
/// as per-layer metrics and phase counts in `out`.
void replay_layers(const Options& opts, double seconds, Tracer& tracer, Outcome& out);

}  // namespace perfbench
