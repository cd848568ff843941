#include "exp/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "core/fixed_point.hpp"
#include "parallel/parallel_for.hpp"
#include "sim/replicate.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/failure.hpp"
#include "util/fault_injection.hpp"

namespace lsm::exp {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// λ equality within a few ulps, so grid arithmetic (0.1 * 9) still finds
/// the 0.9 job while adjacent grid points (≥ 1e-3 apart in practice)
/// never alias.
bool lambda_matches(double a, double b) {
  const double eps = std::numeric_limits<double>::epsilon();
  return std::abs(a - b) <=
         4.0 * eps * std::max(std::abs(a), std::abs(b));
}

std::string format_rate(double v) {
  std::ostringstream os;
  os.precision(3);
  os << v;
  return os.str();
}

util::Json summary_json(const util::Summary& s) {
  auto j = util::Json::object();
  j["mean"] = s.mean;
  j["half_width"] = s.half_width;
  j["stddev"] = s.stddev;
  j["n"] = s.n;
  return j;
}

util::Json tail_json(const std::vector<double>& tail) {
  auto j = util::Json::array();
  for (const double v : tail) j.push_back(v);
  return j;
}

/// A result carrying `job`'s identity and nothing else.
JobResult identified(const Job& job) {
  JobResult r;
  r.label = job.label;
  r.lambda = job.lambda;
  r.key = job.key();
  return r;
}

/// The fault-injection prologue of one attempt at `job`: an injected
/// delay, then an injected job fault. `attempt` (1-based) makes a retry
/// draw a fresh deterministic decision. Both halves of a job that
/// estimates and simulates call it with the whole job, so they draw one
/// decision per attempt and a half never fails alone.
void inject_job_faults(const Job& job, std::uint64_t attempt) {
  const auto& injector = util::FaultInjector::instance();
  if (!injector.armed()) return;
  const std::string ctx = job.fault_context();
  if (const double d = injector.injected_delay(ctx, attempt); d > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(d));
  }
  if (injector.should_fail(util::FaultSite::JobFault, ctx, attempt)) {
    util::Failure f;
    f.kind = util::FailureKind::JobFault;
    f.message = "injected job fault";
    f.context = ctx;
    f.retryable = true;
    throw util::FailureError(std::move(f));
  }
}

/// The estimate half of a job: its fixed point, solved through `chain`
/// (warm-started from the chain's carried state, which the call then
/// updates) or, with nullptr, cold.
JobResult estimated(const Job& job, core::FixedPointContinuation* chain) {
  JobResult r = identified(job);
  const auto model = core::make_model(job.model, job.lambda, job.params);
  // Per-job budgets (0 = unlimited: identical to the default options).
  core::FixedPointOptions fp_opts;
  fp_opts.max_rhs_evals = job.max_rhs_evals;
  fp_opts.max_wall_seconds = job.max_wall_seconds;
  const auto fp = chain != nullptr ? chain->solve(*model, fp_opts)
                                   : core::solve_fixed_point(*model, fp_opts);
  r.has_estimate = true;
  r.est_sojourn = model->mean_sojourn(fp.state);
  r.est_mean_tasks = model->mean_tasks(fp.state);
  r.est_residual = fp.residual;
  r.est_rhs_evals = fp.rhs_evals;
  if (job.outputs.tail_limit > 0) {
    const std::size_t n =
        std::min(job.outputs.tail_limit + 1, model->dimension());
    r.est_tail.assign(fp.state.begin(), fp.state.begin() + n);
  }
  if (job.outputs.store_state) {
    r.est_state = fp.compact_state;
    r.est_state_truncation = fp.final_truncation;
  }
  return r;
}

/// The simulation half of a job, aggregated from its replications in
/// replication order.
JobResult simulated(const Job& job, const std::vector<sim::SimResult>& runs) {
  LSM_EXPECT(!runs.empty(), "need at least one replication");
  JobResult r = identified(job);
  const auto rep = sim::aggregate(runs);
  r.has_sim = true;
  r.sim_sojourn = rep.sojourn;
  r.sim_mean_tasks = rep.mean_tasks;
  if (job.outputs.tail_limit > 0) {
    const std::size_t n =
        std::min(job.outputs.tail_limit + 1, rep.tail_fraction.size());
    r.sim_tail.assign(rep.tail_fraction.begin(),
                      rep.tail_fraction.begin() + n);
  }
  double rate = 0.0;
  for (const auto& run : runs) {
    r.steal_attempts += run.steal_attempts;
    r.steal_successes += run.steal_successes;
    r.tasks_moved += run.tasks_moved;
    r.forwards += run.forwards;
    r.events +=
        run.arrivals + run.completions + run.steal_attempts + run.forwards;
    rate += run.message_rate(job.config.processors);
  }
  r.message_rate = rate / static_cast<double>(runs.size());
  return r;
}

/// Runs `fn(attempt)` under the failure policy: a retryable failure (per
/// util::classify_exception) is retried with bounded exponential backoff
/// up to retry.max_attempts total executions. A final failure either
/// rethrows as util::FailureError with the job identity attached (Abort)
/// or returns a JobResult whose status/error/error_kind/attempts describe
/// it (Report). Successful results get attempts stamped.
JobResult run_isolated(const Job& job, OnFailure on_failure,
                       const RetryPolicy& retry,
                       const std::function<JobResult(std::uint64_t)>& fn) {
  const std::size_t max_attempts = std::max<std::size_t>(retry.max_attempts, 1);
  double backoff = retry.initial_backoff_seconds;
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      JobResult r = fn(attempt);
      r.attempts = static_cast<std::uint32_t>(attempt);
      return r;
    } catch (const std::exception& e) {
      util::Failure f = util::classify_exception(e);
      if (f.context.empty()) f.context = job.fault_context();
      if (f.retryable && attempt < max_attempts) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        backoff = std::min(backoff * retry.backoff_multiplier,
                           retry.max_backoff_seconds);
        continue;
      }
      if (on_failure == OnFailure::Abort) {
        f.message += " (job " + job.label +
                     " lambda=" + util::Json::number_to_string(job.lambda) +
                     ", attempt " + std::to_string(attempt) + ")";
        throw util::FailureError(std::move(f));
      }
      JobResult r = identified(job);
      r.status = JobStatus::Failed;
      r.error = f.describe();
      r.error_kind = util::to_string(f.kind);
      r.attempts = static_cast<std::uint32_t>(attempt);
      return r;
    }
  }
}

/// cache.store, with I/O failures downgraded to a stderr warning: a lost
/// cache entry only costs a recompute, never the computed job.
void store_quietly(const ResultCache& cache, const std::string& key,
                   const JobResult& result) {
  try {
    cache.store(key, result);
  } catch (const std::exception& e) {
    std::cerr << "warning: cache store failed for " << key << ": " << e.what()
              << "\n";
  }
}

/// The estimate-only cache identity of `job` (solver/warm_chain/
/// store_state annotations are set per chain point by run_chain).
Job estimate_part(const Job& job) {
  Job e = job;
  e.simulate = false;
  return e;
}

/// The simulation-only cache identity of `job`. The sim side never
/// depends on the solver, so the warm annotations are stripped: the same
/// replications hash identically whether the run chains warm or cold.
/// Solver budgets are estimate-side knobs and are stripped for the same
/// reason.
Job simulate_part(const Job& job) {
  Job s = job;
  s.estimate = false;
  s.solver = "cold";
  s.warm_chain.clear();
  s.outputs.store_state = false;
  s.max_rhs_evals = 0;
  s.max_wall_seconds = 0.0;
  return s;
}

/// One half of a job's outputs (estimate or simulation), tagged with the
/// job's index in the report and the span it ran over. Chains and
/// simulated points' replication units compute partials concurrently; the
/// merge back into spec order is single-threaded.
///
/// Solver annotations ride along instead of being written into
/// report.jobs up front: a chain break (failed point) cold-restarts the
/// remainder of the chain, so which points actually ran warm — and under
/// which keys — is only known after the chain executed. The merge applies
/// them single-threaded, before any report key is derived.
struct Partial {
  std::size_t index = 0;
  JobResult r;
  Clock::time_point start{};
  Clock::time_point end{};
  bool annotate = false;  ///< apply solver/warm_chain to report.jobs
  std::string solver;
  std::vector<double> warm_chain;
};

/// True when the run's cancel flag is set.
bool cancelled(const RunnerOptions& opts) {
  return opts.cancel != nullptr &&
         opts.cancel->load(std::memory_order_relaxed);
}

/// A Failed partial for a point skipped by cancellation. Never cached;
/// the merged report stays well-formed (hits + misses + failed == jobs).
Partial cancelled_partial(std::size_t index, const Job& job) {
  Partial p;
  p.index = index;
  p.start = p.end = Clock::now();
  p.r.label = job.label;
  p.r.lambda = job.lambda;
  p.r.status = JobStatus::Failed;
  p.r.error_kind = util::to_string(util::FailureKind::Cancelled);
  p.r.error = "cancelled: request cancelled before this point ran";
  return p;
}

/// The simulation half of a job whose cache lookup missed, computed as
/// pool units: unit k runs simulation replication k (sim::run_replication,
/// exactly what sim::replicate runs). Units may run on any worker in any
/// order; run_unit() tells the call that completed the job's last unit,
/// which alone may then call finish(). So no job's result waits for
/// another job's units. Neither copyable nor movable: units hold its
/// address.
class JobShards {
 public:
  /// `index` is the job's position in spec order; `job` is the whole job
  /// (its identity for faults and failures), which must outlive the
  /// shards, and `sim` its simulate_part.
  JobShards(std::size_t index, const Job& job, Job sim)
      : index_(index),
        job_(job),
        sim_(std::move(sim)),
        runs_(sim_.replications),
        errors_(sim_.replications),
        // No replications still needs one unit, to fail the job.
        units_(std::max<std::size_t>(sim_.replications, 1)),
        remaining_(units_) {}
  JobShards(const JobShards&) = delete;
  JobShards& operator=(const JobShards&) = delete;

  [[nodiscard]] std::size_t index() const noexcept { return index_; }
  [[nodiscard]] const Job& job() const noexcept { return job_; }
  [[nodiscard]] std::size_t units() const noexcept { return units_; }
  /// When the first unit started (valid after the last unit).
  [[nodiscard]] Clock::time_point started() const noexcept { return t0_; }

  /// Runs unit k, catching a replication's exception into its slot. A
  /// unit that finds `cancel` set runs nothing and marks the job
  /// cancelled. Returns true for the call that completed the last unit.
  [[nodiscard]] bool run_unit(std::size_t k, const std::atomic<bool>* cancel) {
    if (!started_.exchange(true, std::memory_order_relaxed)) {
      t0_ = Clock::now();
    }
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      cancelled_.store(true, std::memory_order_relaxed);
    } else if (k < runs_.size()) {
      try {
        runs_[k] = sim::run_replication(sim_.config, k);
      } catch (...) {
        errors_[k] = std::current_exception();
      }
    }
    // acq_rel: the last unit sees every other unit's slot and t0_.
    return remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }

  /// Whether any unit saw the cancel flag (valid after the last unit).
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// The simulation half's result, after the last unit, under
  /// run_isolated (the job's failure boundary; the lowest-index
  /// replication error is rethrown), cached on success; the replications
  /// are released. wall_seconds runs from the first unit's start to the
  /// end of this call.
  [[nodiscard]] JobResult finish(const ResultCache& cache,
                                 OnFailure on_failure,
                                 const RetryPolicy& retry) {
    JobResult r =
        run_isolated(job_, on_failure, retry, [&](std::uint64_t attempt) {
          inject_job_faults(job_, attempt);
          // A replication is a pure function of (config, k), so a retried
          // attempt replays its stored outcome instead of simulating it
          // again.
          for (const auto& e : errors_) {
            if (e) std::rethrow_exception(e);
          }
          JobResult out = simulated(sim_, runs_);
          store_quietly(cache, out.key, out);
          return out;
        });
    runs_ = {};
    errors_ = {};
    r.wall_seconds = seconds_since(t0_);
    return r;
  }

 private:
  std::size_t index_;
  const Job& job_;
  Job sim_;
  std::vector<sim::SimResult> runs_;
  std::vector<std::exception_ptr> errors_;
  std::size_t units_;
  std::atomic<std::size_t> remaining_;
  std::atomic<bool> started_{false};
  std::atomic<bool> cancelled_{false};
  Clock::time_point t0_{};
};

/// Solves one entry's estimate jobs in λ order, through a shared
/// continuation when the run is warm. A cache hit re-seeds the chain from
/// the stored compact state (bit-exact: the cache round-trips doubles
/// losslessly), so a resumed sweep's first miss solves warm from the same
/// seed the uninterrupted run would have used. The Newton chord (the dense
/// LU, or the banded factorization the Newton–Krylov polish preconditions
/// with at large dimensions) is not persisted — it is rebuilt on the first
/// polish — so a resumed point can differ from the uninterrupted one below
/// the polish tolerance, never above it.
std::vector<Partial> run_chain(const std::vector<std::size_t>& indices,
                               const std::vector<Job>& jobs,
                               const ResultCache& cache,
                               const RunnerOptions& opts) {
  std::vector<Partial> out;
  out.reserve(indices.size());
  core::FixedPointContinuation chain;
  // λs of the live chain behind the next point. Cleared on a failed
  // point, so the remainder of the chain is keyed (and solved) cold —
  // a warm key must never claim a path through a point that never
  // produced state.
  std::vector<double> prefix;
  for (const std::size_t index : indices) {
    const Job& job = jobs[index];
    if (cancelled(opts)) {
      Partial p = cancelled_partial(index, job);
      if (opts.on_point) opts.on_point(index, p.r);
      out.push_back(std::move(p));
      continue;
    }
    Job ejob = estimate_part(job);
    if (opts.warm) {
      ejob.outputs.store_state = true;
      if (prefix.empty()) {
        ejob.solver = "cold";
        ejob.warm_chain.clear();
      } else {
        ejob.solver = "warm";
        ejob.warm_chain = prefix;
      }
    }
    Partial p;
    p.index = index;
    p.start = Clock::now();
    p.annotate = opts.warm;
    p.solver = ejob.solver;
    p.warm_chain = ejob.warm_chain;
    p.r = run_isolated(
        job, opts.on_failure, opts.retry, [&](std::uint64_t attempt) {
          JobResult r = identified(ejob);
          // A warm-keyed entry without its stored state cannot seed the
          // chain; treat it as a miss and repair it in place.
          if (cache.load(r.key, r) &&
              (!opts.warm || !r.est_state.empty())) {
            r.cache_hit = true;
            if (opts.warm) chain.seed(r.est_state, r.est_state_truncation);
          } else {
            inject_job_faults(job, attempt);
            r = estimated(ejob, opts.warm ? &chain : nullptr);
            store_quietly(cache, r.key, r);
          }
          return r;
        });
    p.end = Clock::now();
    p.r.wall_seconds = seconds_between(p.start, p.end);
    if (p.r.status == JobStatus::Failed) {
      // The continuation already reset itself on the failed solve (and an
      // injected job fault fires before it ever runs); clearing the
      // prefix cold-restarts the rest of the chain.
      chain.reset();
      prefix.clear();
    } else if (opts.warm) {
      prefix.push_back(ejob.lambda);
    }
    if (opts.on_point) opts.on_point(index, p.r);
    out.push_back(std::move(p));
  }
  return out;
}

/// A simulated point that completes without running anything: cancelled
/// before it started, or answered by the cache (ResultCache::load reports
/// every read failure as a miss, so a lookup never fails a job). nullopt
/// means it must be simulated.
std::optional<Partial> settle_sim(std::size_t index, const Job& sjob,
                                  const ResultCache& cache,
                                  const RunnerOptions& opts) {
  std::optional<Partial> p;
  if (cancelled(opts)) {
    p = cancelled_partial(index, sjob);
  } else {
    const auto t0 = Clock::now();
    JobResult r = identified(sjob);
    if (!cache.load(r.key, r)) return p;
    r.cache_hit = true;
    p.emplace();
    p->index = index;
    p->start = t0;
    p->end = Clock::now();
    p->r = std::move(r);
    p->r.wall_seconds = seconds_between(p->start, p->end);
  }
  if (opts.on_point) opts.on_point(index, p->r);
  return p;
}

/// Unit k of a simulated point; the unit that completes the point returns
/// its partial.
std::vector<Partial> run_sim_unit(JobShards& shards, std::size_t k,
                                  const ResultCache& cache,
                                  const RunnerOptions& opts) {
  std::vector<Partial> out;
  if (!shards.run_unit(k, opts.cancel)) return out;
  Partial p;
  if (shards.cancelled()) {
    p = cancelled_partial(shards.index(), shards.job());
  } else {
    p.index = shards.index();
    p.r = shards.finish(cache, opts.on_failure, opts.retry);
    p.end = Clock::now();
  }
  p.start = shards.started();
  if (opts.on_point) opts.on_point(p.index, p.r);
  out.push_back(std::move(p));
  return out;
}

/// Warm chaining solves each entry's points in λ order, so a spec with an
/// estimating entry needs a strictly monotone λ axis. Throws util::Error
/// otherwise.
void check_chainable(const ExperimentSpec& spec, const std::vector<Job>& jobs) {
  if (std::any_of(jobs.begin(), jobs.end(),
                  [](const Job& job) { return job.estimate; }) &&
      !strictly_monotone(spec.lambdas)) {
    throw util::Error("spec '" + spec.name +
                      "': λ grid must be strictly monotone to warm-chain "
                      "its estimates");
  }
}

/// Merges the partials back into one result per job, in spec order, after
/// applying the solver annotations each chain actually used — every report
/// key must reflect how the point was really solved (a chain break demotes
/// the remainder to cold). A job counts as a cache hit only when every
/// half of it hit; its wall time spans the start of its first half to the
/// end of its last, which may overlap.
void merge(RunReport& report,
           const std::vector<std::vector<Partial>>& partials) {
  for (const auto& bundle : partials) {
    for (const auto& p : bundle) {
      if (!p.annotate) continue;
      Job& job = report.jobs[p.index];
      job.outputs.store_state = true;
      job.solver = p.solver;
      job.warm_chain = p.warm_chain;
    }
  }

  const std::size_t n = report.jobs.size();
  report.results.resize(n);
  std::vector<std::size_t> parts(n, 0);
  std::vector<std::size_t> hits(n, 0);
  std::vector<Clock::time_point> start(n, Clock::time_point::max());
  std::vector<Clock::time_point> end(n, Clock::time_point::min());
  for (std::size_t i = 0; i < n; ++i) {
    report.results[i] = identified(report.jobs[i]);
  }
  for (const auto& bundle : partials) {
    for (const auto& p : bundle) {
      JobResult& dst = report.results[p.index];
      const JobResult& src = p.r;
      if (src.status == JobStatus::Failed) {
        // Either half failing fails the merged job; distinct errors
        // concatenate, the first kind wins (it is the CSV slug).
        dst.status = JobStatus::Failed;
        if (dst.error != src.error) {
          if (!dst.error.empty()) dst.error += "; ";
          dst.error += src.error;
        }
        if (dst.error_kind.empty()) dst.error_kind = src.error_kind;
      }
      dst.attempts = std::max(dst.attempts, src.attempts);
      if (src.has_estimate) {
        dst.has_estimate = true;
        dst.est_sojourn = src.est_sojourn;
        dst.est_mean_tasks = src.est_mean_tasks;
        dst.est_residual = src.est_residual;
        dst.est_tail = src.est_tail;
        dst.est_rhs_evals = src.est_rhs_evals;
        dst.est_state = src.est_state;
        dst.est_state_truncation = src.est_state_truncation;
      }
      if (src.has_sim) {
        dst.has_sim = true;
        dst.sim_sojourn = src.sim_sojourn;
        dst.sim_mean_tasks = src.sim_mean_tasks;
        dst.sim_tail = src.sim_tail;
        dst.steal_attempts = src.steal_attempts;
        dst.steal_successes = src.steal_successes;
        dst.tasks_moved = src.tasks_moved;
        dst.forwards = src.forwards;
        dst.message_rate = src.message_rate;
        dst.events = src.events;
      }
      start[p.index] = std::min(start[p.index], p.start);
      end[p.index] = std::max(end[p.index], p.end);
      ++parts[p.index];
      if (src.cache_hit) ++hits[p.index];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    JobResult& r = report.results[i];
    r.cache_hit = parts[i] > 0 && hits[i] == parts[i];
    if (parts[i] > 0) r.wall_seconds = seconds_between(start[i], end[i]);
  }
}

/// Writes `contents` to `path` atomically (tmp + rename), so a crash
/// mid-write never leaves a partial file behind. Throws
/// util::FailureError (Io) on failure, removing the tmp file.
void write_atomic(const std::string& path, const std::string& contents) {
  const auto& injector = util::FaultInjector::instance();
  if (injector.armed() &&
      injector.should_fail(util::FaultSite::ArtifactWrite, path)) {
    util::Failure f;
    f.kind = util::FailureKind::Io;
    f.message = "injected artifact-write fault";
    f.context = path;
    f.retryable = true;
    throw util::FailureError(std::move(f));
  }
  namespace fs = std::filesystem;
  const auto io_failure = [&path](const char* what) {
    util::Failure f;
    f.kind = util::FailureKind::Io;
    f.message = std::string(what) + " " + path;
    f.retryable = true;
    return util::FailureError(std::move(f));
  };
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::trunc | std::ios::binary);
    if (!file) throw io_failure("cannot write");
    file << contents;
    file.flush();
    if (!file) {
      std::error_code ec;
      fs::remove(tmp, ec);
      throw io_failure("cannot write");
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code ec2;
    fs::remove(tmp, ec2);
    throw io_failure("cannot publish");
  }
}

/// Report finalization: fills the aggregate cache/event/failure counters
/// from `report.results` and, when `artifact_dir` and the spec name are
/// non-empty, writes the manifest + CSV artifacts atomically (recording
/// their paths in the report). Artifact I/O failures degrade to
/// report.artifact_error.
void finalize_report(RunReport& report, const std::string& artifact_dir) {
  for (const auto& r : report.results) {
    if (r.status == JobStatus::Failed) {
      ++report.failed_jobs;
    } else if (r.cache_hit) {
      ++report.cache_hits;
    } else {
      ++report.cache_misses;
      report.events_simulated += r.events;
    }
  }

  if (!artifact_dir.empty() && !report.spec_name.empty()) {
    // Artifacts are emitted after every job has been computed (and the
    // misses cached), so an artifact-side I/O failure must not discard
    // the run: degrade to a warning and record why in the report.
    try {
      namespace fs = std::filesystem;
      std::error_code ec;
      fs::create_directories(artifact_dir, ec);
      if (ec) {
        util::Failure f;
        f.kind = util::FailureKind::Io;
        f.message = "cannot create artifact dir " + artifact_dir;
        f.retryable = true;
        throw util::FailureError(std::move(f));
      }
      const auto manifest_path =
          fs::path(artifact_dir) / (report.spec_name + ".manifest.json");
      write_atomic(manifest_path.string(), report.manifest().dump(2) + "\n");
      report.manifest_path = manifest_path.string();

      const auto csv_path =
          fs::path(artifact_dir) / (report.spec_name + ".csv");
      std::ostringstream csv;
      report.table().write_csv(csv);
      write_atomic(csv_path.string(), csv.str());
      report.csv_path = csv_path.string();
    } catch (const std::exception& e) {
      report.artifact_error = e.what();
      std::cerr << "warning: run '" << report.spec_name
                << "': artifact emission failed: " << e.what() << "\n";
    }
  }
}

}  // namespace

std::string RunnerOptions::default_artifact_dir() {
  if (const char* v = std::getenv("LSM_ARTIFACTS")) return v;
  return ".lsm-artifacts";
}

OnFailure RunnerOptions::default_on_failure() {
  if (const char* v = std::getenv("LSM_ON_FAILURE")) {
    if (std::string(v) == "report") return OnFailure::Report;
  }
  return OnFailure::Abort;
}

Runner::Runner(RunnerOptions opts) : opts_(std::move(opts)) {}

RunReport Runner::run(const ExperimentSpec& spec) {
  const auto t0 = Clock::now();
  RunReport report;
  report.spec_name = spec.name;
  report.jobs = spec.expand();
  if (opts_.warm) check_chainable(spec, report.jobs);

  std::unique_ptr<par::ThreadPool> owned;
  par::ThreadPool* pool = opts_.pool;
  if (pool == nullptr) {
    owned = std::make_unique<par::ThreadPool>(
        opts_.threads > 0 ? opts_.threads : util::worker_threads());
    pool = owned.get();
  }
  report.threads = pool->size();

  const ResultCache local_cache(opts_.cache != nullptr ? ""
                                                       : opts_.cache_dir);
  const ResultCache& cache =
      opts_.cache != nullptr ? *opts_.cache : local_cache;

  // Work units, entry by entry and in λ order, so the pool's in-order
  // cursor starts the earliest jobs first: each simulated point's
  // replication units (a point the cache answers, or one cancelled before
  // it started, completes here and schedules none), then the entry's
  // estimate chain (serial within, λ order). The units read report.jobs
  // without writing it and return partials, so any pool schedule produces
  // the same merge.
  const std::size_t n_lambdas = spec.lambdas.size();
  std::vector<Partial> settled;
  std::vector<std::unique_ptr<JobShards>> sims;
  std::vector<std::function<std::vector<Partial>()>> units;
  for (std::size_t e = 0; e < spec.entries.size(); ++e) {
    std::vector<std::size_t> chain_indices;
    for (std::size_t j = 0; j < n_lambdas; ++j) {
      const std::size_t index = e * n_lambdas + j;
      const Job& job = report.jobs[index];
      if (job.estimate) chain_indices.push_back(index);
      if (!job.simulate) continue;
      Job sjob = simulate_part(job);
      if (auto p = settle_sim(index, sjob, cache, opts_)) {
        settled.push_back(std::move(*p));
        continue;
      }
      sims.push_back(std::make_unique<JobShards>(index, job, std::move(sjob)));
      for (std::size_t k = 0; k < sims.back()->units(); ++k) {
        units.emplace_back([&, shards = sims.back().get(), k] {
          return run_sim_unit(*shards, k, cache, opts_);
        });
      }
    }
    if (!chain_indices.empty()) {
      units.emplace_back([&, indices = std::move(chain_indices)] {
        return run_chain(indices, report.jobs, cache, opts_);
      });
    }
  }

  auto partials = par::parallel_map(*pool, units.size(),
                                    [&](std::size_t i) { return units[i](); });
  // Settled sim halves merge first: per job, a sim half still merges
  // ahead of its estimate half, as the units are listed.
  partials.insert(partials.begin(), std::move(settled));
  merge(report, partials);

  report.wall_seconds = seconds_since(t0);
  finalize_report(report, opts_.artifact_dir);
  return report;
}

const JobResult& RunReport::at(const std::string& label,
                               double lambda) const {
  for (const auto& r : results) {
    if (r.label == label && lambda_matches(r.lambda, lambda)) return r;
  }
  throw util::Error("run '" + spec_name + "' has no job (" + label + ", " +
                    util::Json::number_to_string(lambda) + ")");
}

double RunReport::sim(const std::string& label, double lambda) const {
  const auto& r = at(label, lambda);
  if (r.status == JobStatus::Failed) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  LSM_EXPECT(r.has_sim, "job (" + label + ") has no simulation output");
  return r.sim_sojourn.mean;
}

double RunReport::estimate(const std::string& label, double lambda) const {
  const auto& r = at(label, lambda);
  if (r.status == JobStatus::Failed) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  LSM_EXPECT(r.has_estimate, "job (" + label + ") has no estimate output");
  return r.est_sojourn;
}

std::vector<const JobResult*> RunReport::failed() const {
  std::vector<const JobResult*> out;
  for (const auto& r : results) {
    if (r.status == JobStatus::Failed) out.push_back(&r);
  }
  return out;
}

util::Json RunReport::manifest(bool include_timing) const {
  auto doc = util::Json::object();
  doc["name"] = spec_name;

  auto jobs_json = util::Json::array();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    auto j = util::Json::object();
    j["label"] = r.label;
    j["lambda"] = r.lambda;
    j["key"] = r.key;
    j["config"] = jobs[i].canonical();
    j["cache_hit"] = r.cache_hit;
    j["status"] = r.status == JobStatus::Failed ? "failed" : "ok";
    if (r.status == JobStatus::Failed) {
      auto err = util::Json::object();
      err["kind"] = r.error_kind;
      err["message"] = r.error;
      err["attempts"] = static_cast<std::size_t>(r.attempts);
      j["error"] = std::move(err);
    }
    if (r.has_estimate) {
      auto est = util::Json::object();
      est["sojourn"] = r.est_sojourn;
      est["mean_tasks"] = r.est_mean_tasks;
      est["residual"] = r.est_residual;
      est["rhs_evals"] = r.est_rhs_evals;
      if (!r.est_tail.empty()) est["tail"] = tail_json(r.est_tail);
      j["estimate"] = std::move(est);
    }
    if (r.has_sim) {
      auto sim = util::Json::object();
      sim["sojourn"] = summary_json(r.sim_sojourn);
      sim["mean_tasks"] = summary_json(r.sim_mean_tasks);
      if (!r.sim_tail.empty()) sim["tail"] = tail_json(r.sim_tail);
      auto steal = util::Json::object();
      steal["attempts"] = r.steal_attempts;
      steal["successes"] = r.steal_successes;
      steal["tasks_moved"] = r.tasks_moved;
      steal["forwards"] = r.forwards;
      steal["message_rate"] = r.message_rate;
      sim["steal"] = std::move(steal);
      j["sim"] = std::move(sim);
    }
    j["events"] = r.events;
    if (include_timing) {
      j["wall_seconds"] = r.wall_seconds;
      if (r.wall_seconds > 0.0 && r.events > 0 && !r.cache_hit) {
        j["events_per_second"] =
            static_cast<double>(r.events) / r.wall_seconds;
      }
    }
    jobs_json.push_back(std::move(j));
  }
  doc["jobs"] = std::move(jobs_json);

  auto agg = util::Json::object();
  agg["jobs"] = results.size();
  agg["cache_hits"] = cache_hits;
  agg["cache_misses"] = cache_misses;
  agg["failed"] = failed_jobs;
  agg["events_simulated"] = events_simulated;
  std::uint64_t attempts = 0, successes = 0, moved = 0, forwards = 0;
  for (const auto& r : results) {
    attempts += r.steal_attempts;
    successes += r.steal_successes;
    moved += r.tasks_moved;
    forwards += r.forwards;
  }
  auto steal = util::Json::object();
  steal["attempts"] = attempts;
  steal["successes"] = successes;
  steal["tasks_moved"] = moved;
  steal["forwards"] = forwards;
  agg["steal"] = std::move(steal);
  if (include_timing) {
    agg["threads"] = static_cast<std::size_t>(threads);
    agg["wall_seconds"] = wall_seconds;
    if (wall_seconds > 0.0) {
      agg["events_per_second"] =
          static_cast<double>(events_simulated) / wall_seconds;
    }
  }
  doc["run"] = std::move(agg);
  return doc;
}

util::Table RunReport::table() const {
  util::Table t({"label", "lambda", "status", "est_sojourn", "sim_sojourn",
                 "sim_half_width", "sim_stddev", "replications",
                 "sim_mean_tasks", "message_rate", "steal_attempts",
                 "steal_successes", "events", "wall_ms", "cache", "error"});
  for (const auto& r : results) {
    const auto num = [](double v) { return util::Json::number_to_string(v); };
    const bool failed = r.status == JobStatus::Failed;
    t.add_row({r.label, num(r.lambda), failed ? "failed" : "ok",
               r.has_estimate ? num(r.est_sojourn) : "",
               r.has_sim ? num(r.sim_sojourn.mean) : "",
               r.has_sim ? num(r.sim_sojourn.half_width) : "",
               r.has_sim ? num(r.sim_sojourn.stddev) : "",
               r.has_sim ? std::to_string(r.sim_sojourn.n) : "",
               r.has_sim ? num(r.sim_mean_tasks.mean) : "",
               r.has_sim ? num(r.message_rate) : "",
               std::to_string(r.steal_attempts),
               std::to_string(r.steal_successes), std::to_string(r.events),
               num(r.wall_seconds * 1e3), r.cache_hit ? "hit" : "miss",
               // The kind slug only: comma- and quote-free by
               // construction, so the CSV needs no escaping. The full
               // message lives in the manifest.
               failed ? r.error_kind : ""});
  }
  return t;
}

std::string RunReport::summary() const {
  std::string s = "runner: " + std::to_string(results.size()) + " jobs | " +
                  std::to_string(cache_hits) + " cached, " +
                  std::to_string(cache_misses) + " computed" +
                  (failed_jobs > 0
                       ? " | " + std::to_string(failed_jobs) + " failed"
                       : "") +
                  " | " +
                  format_rate(static_cast<double>(events_simulated)) +
                  " events in " + format_rate(wall_seconds) + " s";
  if (wall_seconds > 0.0 && events_simulated > 0) {
    s += " (" +
         format_rate(static_cast<double>(events_simulated) / wall_seconds) +
         " events/s, " + std::to_string(threads) + " threads)";
  }
  if (!manifest_path.empty()) s += " | manifest: " + manifest_path;
  return s;
}

}  // namespace lsm::exp
