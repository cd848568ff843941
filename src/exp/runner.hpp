// Parallel sharded experiment runner with result caching and run
// observability — the engine behind the table/figure benches.
//
// Runner::run expands an ExperimentSpec into Jobs, consults the on-disk
// ResultCache before computing anything, and shards every miss across a
// thread pool as one unit per simulation replication (each replication
// runs on its own deterministic jump stream, so results are
// byte-identical regardless of the thread count). It emits structured
// artifacts: a CSV of all job outputs plus a JSON run manifest with
// per-job wall time, event counts, cache provenance and aggregate steal
// statistics.
//
// Scheduling independence: par::ThreadPool is a work-stealing pool, so
// which worker executes a replication — and in what order units complete
// — is nondeterministic. That is fine by contract: a Job's results are a
// pure function of (spec.seed, entry, lambda, replication count); no
// state flows between jobs, a job's replications are aggregated in
// replication order, and the report assembles results by spec order, not
// completion order. tests/exp_runner_test.cpp pins this down by comparing
// timing-free manifests across pool widths 1, 2 and 8.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exp/cache.hpp"
#include "exp/result.hpp"
#include "exp/spec.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace lsm::core {
class FixedPointContinuation;
}  // namespace lsm::core

namespace lsm::exp {

/// Strict-vs-degraded failure handling for a run.
enum class OnFailure {
  /// The first job failure (after retries) aborts the whole run: a
  /// util::FailureError with the job identity attached propagates out of
  /// Runner::run. The pre-isolation behaviour, and the safe default for
  /// golden-table benches.
  Abort,
  /// Failures are isolated: the job's JobResult carries status = Failed
  /// plus the error, the rest of the run completes, and the failure is
  /// surfaced in the manifest/CSV/summary. For long sweeps where losing
  /// one near-critical point must not discard hours of finished work.
  Report,
};

/// Bounded exponential backoff for retryable job failures (transient
/// I/O, injected faults). Non-retryable failures never retry.
struct RetryPolicy {
  std::size_t max_attempts = 3;  ///< total executions, including the first
  double initial_backoff_seconds = 0.025;
  double backoff_multiplier = 4.0;
  double max_backoff_seconds = 1.0;
};

struct RunnerOptions {
  /// External pool to shard replications on; nullptr spawns a private
  /// pool of `threads` workers (0 = util::worker_threads()).
  par::ThreadPool* pool = nullptr;
  unsigned threads = 0;
  /// "" disables caching. Defaults to LSM_CACHE_DIR / ".lsm-cache".
  std::string cache_dir = ResultCache::default_dir();
  /// Shared cache instance to consult instead of constructing one from
  /// cache_dir — the serve daemon points every request's run at one
  /// process-wide cache so its hit/miss/quarantine counters aggregate
  /// across clients. ResultCache::load/store are const and safe to call
  /// concurrently. Not owned; must outlive the run.
  const ResultCache* cache = nullptr;
  /// Directory for the manifest + CSV; "" disables artifact emission.
  /// Defaults to LSM_ARTIFACTS / ".lsm-artifacts".
  std::string artifact_dir = default_artifact_dir();
  /// Abort (default) vs Report; LSM_ON_FAILURE=report flips the default.
  OnFailure on_failure = default_on_failure();
  RetryPolicy retry{};

  [[nodiscard]] static std::string default_artifact_dir();
  [[nodiscard]] static OnFailure default_on_failure();
};

/// Everything one Runner::run produced, in spec order.
struct RunReport {
  std::string spec_name;
  std::vector<Job> jobs;
  std::vector<JobResult> results;  ///< parallel to `jobs`
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// Events executed by this run (cache hits contribute nothing).
  std::uint64_t events_simulated = 0;
  /// Jobs that ended Failed (Report mode; counted by finalize alongside
  /// the cache stats — hits + misses + failed == jobs).
  std::size_t failed_jobs = 0;
  double wall_seconds = 0.0;
  unsigned threads = 0;
  std::string manifest_path;  ///< "" when artifacts are disabled
  std::string csv_path;
  /// Why artifact emission was skipped ("" = it wasn't): artifacts are
  /// written after all compute, so their I/O failures degrade to this
  /// field + a stderr warning instead of discarding the finished run.
  std::string artifact_error;

  /// Result lookup by grid label + arrival rate; throws util::Error when
  /// the job does not exist. λ matches within a few ulps, so values
  /// produced by grid arithmetic (0.1 * 9) still find the 0.9 job.
  [[nodiscard]] const JobResult& at(const std::string& label,
                                    double lambda) const;
  /// Simulated mean sojourn of (label, lambda); NaN when the job failed
  /// (so degraded tables render holes instead of aborting the bench).
  [[nodiscard]] double sim(const std::string& label, double lambda) const;
  /// Fixed-point sojourn estimate of (label, lambda); NaN when failed.
  [[nodiscard]] double estimate(const std::string& label,
                                double lambda) const;
  /// The failed results, in spec order (empty on a fully clean run).
  [[nodiscard]] std::vector<const JobResult*> failed() const;

  /// The run manifest. With include_timing = false every
  /// schedule-dependent field (wall times, rates, thread count) is
  /// omitted and the document is a pure function of (spec, seed, cache
  /// state) — byte-identical across thread counts.
  [[nodiscard]] util::Json manifest(bool include_timing = true) const;

  /// All job outputs as one flat table (the CSV artifact).
  [[nodiscard]] util::Table table() const;

  /// One-line observability summary for bench output.
  [[nodiscard]] std::string summary() const;
};

class Runner {
 public:
  explicit Runner(RunnerOptions opts = {});

  /// Runs every job of `spec` (cache-first), writes artifacts, returns
  /// the report. Exceptions from any job propagate to the caller.
  [[nodiscard]] RunReport run(const ExperimentSpec& spec);

 private:
  RunnerOptions opts_;
};

/// The simulation replications of one job, run before execute_job (as
/// pool units, see detail::JobShards): runs[k] is replication k, unless
/// errors[k] holds the exception it threw. Empty for estimate-only jobs.
struct Replications {
  std::vector<sim::SimResult> runs;
  std::vector<std::exception_ptr> errors;
};

/// Computes one job's result without cache or pool: the fault-injection
/// prologue, the estimate, then the simulation outputs aggregated from
/// `reps` in replication order (the lowest-index replication error is
/// rethrown instead). With a non-null `chain` the estimate side solves
/// through the continuation (warm-started from the chain's carried state,
/// which the call then updates); nullptr solves cold. `attempt` (1-based)
/// only feeds the fault-injection hooks, so a retry draws a fresh
/// deterministic fault decision.
[[nodiscard]] JobResult execute_job(const Job& job, const Replications& reps,
                                    core::FixedPointContinuation* chain,
                                    std::uint64_t attempt);

namespace detail {

/// Report finalization shared by Runner and SweepRunner: fills the
/// aggregate cache/event/failure counters from `report.results` and,
/// when `artifact_dir` and the spec name are non-empty, writes the
/// manifest + CSV artifacts atomically (recording their paths in the
/// report). Artifact I/O failures degrade to report.artifact_error.
void finalize_report(RunReport& report, const std::string& artifact_dir);

/// The cached result of `job` (cache_hit set, wall_seconds the lookup
/// time), or nullopt on a miss. ResultCache::load reports every read
/// failure as a miss, so a lookup never fails a job.
[[nodiscard]] std::optional<JobResult> load_cached(const ResultCache& cache,
                                                   const Job& job);

/// A job whose cache lookup missed, computed as pool units: unit k runs
/// simulation replication k (sim::run_replication, exactly what
/// sim::replicate runs), and a job with nothing to replicate is one unit
/// that runs none. Units may run on any worker in any order; run_unit()
/// tells the call that completed the job's last unit, which alone may
/// then call finish(). So no job's result waits for another job's units.
/// Neither copyable nor movable: units hold its address.
class JobShards {
 public:
  /// `index` is the job's position in spec order.
  JobShards(std::size_t index, Job job);
  JobShards(const JobShards&) = delete;
  JobShards& operator=(const JobShards&) = delete;

  [[nodiscard]] std::size_t index() const noexcept { return index_; }
  [[nodiscard]] const Job& job() const noexcept { return job_; }
  [[nodiscard]] std::size_t units() const noexcept { return units_; }

  /// Runs unit k, catching a replication's exception into its slot. A
  /// unit that finds `cancel` set runs nothing and marks the job
  /// cancelled. Returns true for the call that completed the last unit.
  [[nodiscard]] bool run_unit(std::size_t k,
                              const std::atomic<bool>* cancel = nullptr);

  /// Whether any unit saw the cancel flag (valid after the last unit).
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// The job's result, after the last unit: execute_job over the
  /// replications under run_isolated (the job's failure boundary), cached
  /// on success; the replications are released. wall_seconds runs from
  /// the first unit's start to the end of this call.
  [[nodiscard]] JobResult finish(const ResultCache& cache,
                                 OnFailure on_failure,
                                 const RetryPolicy& retry);

 private:
  std::size_t index_;
  Job job_;
  Replications reps_;
  std::size_t units_ = 1;
  std::atomic<std::size_t> remaining_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> cancelled_{false};
  std::chrono::steady_clock::time_point t0_{};
};

/// Runs `fn(attempt)` under the failure policy: a retryable failure
/// (per util::classify_exception) is retried with bounded exponential
/// backoff up to retry.max_attempts total executions. A final failure
/// either rethrows as util::FailureError with the job identity attached
/// (Abort) or returns a JobResult whose status/error/error_kind/attempts
/// describe it (Report). Successful results get attempts stamped.
JobResult run_isolated(const Job& job, OnFailure on_failure,
                       const RetryPolicy& retry,
                       const std::function<JobResult(std::uint64_t)>& fn);

/// cache.store, with I/O failures downgraded to a stderr warning: a
/// lost cache entry only costs a recompute, never the computed job.
void store_quietly(const ResultCache& cache, const std::string& key,
                   const JobResult& result);

/// Writes `contents` to `path` atomically (tmp + rename), so a crash
/// mid-write never leaves a partial file behind. Throws
/// util::FailureError (Io) on failure, removing the tmp file.
void write_atomic(const std::string& path, const std::string& contents);

}  // namespace detail

}  // namespace lsm::exp
