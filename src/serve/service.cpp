#include "serve/service.hpp"

#include <chrono>
#include <utility>

#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "util/env.hpp"
#include "util/failure.hpp"

namespace lsm::serve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

const char* kCancelledSlug = util::to_string(util::FailureKind::Cancelled);

}  // namespace

SweepService::SweepService(ServiceOptions opts)
    : opts_(std::move(opts)),
      pool_(opts_.solver_threads > 0 ? opts_.solver_threads
                                     : util::worker_threads()),
      cache_(opts_.cache_dir) {
  const std::size_t dispatchers = std::max<std::size_t>(opts_.max_in_flight, 1);
  opts_.max_in_flight = dispatchers;
  workers_.reserve(dispatchers);
  for (std::size_t i = 0; i < dispatchers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SweepService::~SweepService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool SweepService::submit(Request req, Emit emit) {
  auto active = std::make_shared<Active>();
  active->req = std::move(req);
  active->emit = std::move(emit);

  util::Json rejection;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_ || stopping_) {
      ++rejected_;
      rejection = rejected_response(active->req.id, "shutting down",
                                    in_flight_, queue_.size());
    } else if (in_flight_ >= opts_.max_in_flight &&
               queue_.size() >= opts_.max_queued) {
      ++rejected_;
      rejection =
          rejected_response(active->req.id, "admission limit reached",
                            in_flight_, queue_.size());
    } else {
      queue_.push_back(active);
    }
  }
  if (!rejection.is_null()) {
    // Emitted outside the lock: the sink writes to a socket.
    active->emit(rejection);
    return false;
  }
  work_cv_.notify_one();
  return true;
}

bool SweepService::cancel(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& a : running_) {
    if (a->req.id == id && !a->cancel.load(std::memory_order_relaxed)) {
      a->cancel.store(true, std::memory_order_relaxed);
      ++cancelled_;
      return true;
    }
  }
  for (const auto& a : queue_) {
    if (a->req.id == id && !a->cancel.load(std::memory_order_relaxed)) {
      a->cancel.store(true, std::memory_order_relaxed);
      ++cancelled_;
      return true;
    }
  }
  return false;
}

util::Json SweepService::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto j = util::Json::object();
  j["type"] = "status";
  auto admission = util::Json::object();
  admission["in_flight"] = in_flight_;
  admission["queued"] = queue_.size();
  admission["max_in_flight"] = opts_.max_in_flight;
  admission["max_queued"] = opts_.max_queued;
  admission["draining"] = draining_;
  j["admission"] = std::move(admission);
  auto totals = util::Json::object();
  totals["completed"] = completed_;
  totals["rejected"] = rejected_;
  totals["cancelled"] = cancelled_;
  totals["points"] = points_streamed_;
  totals["point_failures"] = point_failures_;
  j["totals"] = std::move(totals);
  auto cache = util::Json::object();
  cache["hits"] = cache_hits_;
  cache["misses"] = cache_misses_;
  cache["quarantined"] = cache_.quarantined();
  cache["dir"] = cache_.dir();
  j["cache"] = std::move(cache);
  j["solver_threads"] = static_cast<std::size_t>(pool_.size());
  return j;
}

void SweepService::begin_drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  draining_ = true;
}

void SweepService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock,
                 [this] { return queue_.empty() && in_flight_ == 0; });
}

void SweepService::worker_loop() {
  for (;;) {
    std::shared_ptr<Active> active;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock,
                    [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_, nothing left to run
      active = queue_.front();
      queue_.pop_front();
      ++in_flight_;
      running_.push_back(active);
    }

    run_request(*active);

    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      for (std::size_t i = 0; i < running_.size(); ++i) {
        if (running_[i] == active) {
          running_.erase(running_.begin() +
                         static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
    // The Active (and with it the emit closure holding the connection
    // alive) is released before the idle notification, so a drained
    // service holds no connection references.
    active.reset();
    drain_cv_.notify_all();
    work_cv_.notify_one();
  }
}

void SweepService::run_request(Active& active) {
  const auto t0 = std::chrono::steady_clock::now();
  const Request& req = active.req;
  if (opts_.on_start) opts_.on_start(req);

  // Per-request stream accounting; folded into the lifetime totals once
  // the request finishes.
  std::size_t streamed = 0;
  std::size_t ok = 0;
  std::size_t hits = 0;
  std::size_t failed = 0;

  // Folded before the terminal line goes out, so a client that reads its
  // done line and immediately asks for status sees this request counted.
  const auto finalize = [&] {
    std::lock_guard<std::mutex> lock(mutex_);
    ++completed_;
    points_streamed_ += streamed;
    point_failures_ += failed;
    cache_hits_ += hits;
    cache_misses_ += ok - hits;
  };

  try {
    exp::ExperimentSpec spec;
    spec.name = "";  // serve requests emit no artifacts
    spec.lambdas = req.lambdas;
    spec.outputs.simulate = false;
    spec.outputs.fixed_point = true;
    spec.outputs.tail_limit = req.tail_limit;
    spec.max_rhs_evals = req.max_rhs_evals;
    spec.max_wall_seconds = req.max_wall_seconds;
    {
      exp::GridEntry entry;
      // The label is the request id: it feeds fault-injection contexts
      // and failure messages but never the content hash, so two clients
      // requesting the same configuration share cache entries.
      entry.label = req.id;
      entry.model = req.model;
      entry.params = req.params;
      entry.simulate = false;
      spec.add(std::move(entry));
    }

    exp::RunnerOptions opts;
    opts.pool = &pool_;
    opts.cache = &cache_;
    opts.cache_dir = "";
    opts.artifact_dir = "";
    opts.warm = req.warm;
    opts.on_failure = exp::OnFailure::Report;
    opts.retry = opts_.retry;
    opts.cancel = &active.cancel;
    opts.on_point = [&](std::size_t index, const exp::JobResult& r) {
      if (r.error_kind == kCancelledSlug) {
        // Skipped by cancellation: no point line — the terminal summary
        // carries cancelled: true instead.
        if (opts_.on_point_hook) opts_.on_point_hook(req, index);
        return;
      }
      ++streamed;
      if (r.status == exp::JobStatus::Failed) {
        ++failed;
      } else {
        ++ok;
        if (r.cache_hit) ++hits;
      }
      if (!active.emit(point_response(req.id, r))) {
        // Client gone: cancel the remainder so a dead connection cannot
        // pin this admission slot for the rest of the grid.
        active.cancel.store(true, std::memory_order_relaxed);
      }
      if (opts_.on_point_hook) opts_.on_point_hook(req, index);
    };

    exp::Runner runner(opts);
    (void)runner.run(spec);

    const bool was_cancelled =
        active.cancel.load(std::memory_order_relaxed);
    finalize();
    active.emit(done_response(req.id, streamed, ok, hits, failed,
                              was_cancelled, seconds_since(t0)));
  } catch (const std::exception& e) {
    // Request-level failure (spec rejected, abort-mode solver error, …):
    // one structured error line instead of a terminal summary.
    finalize();
    active.emit(error_response(req.id, util::classify_exception(e)));
  }
}

}  // namespace lsm::serve
