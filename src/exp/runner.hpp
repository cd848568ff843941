// The experiment engine behind the table/figure benches, the serve
// daemon and the benchmark harness.
//
// Runner::run expands an ExperimentSpec into Jobs and consults the
// on-disk ResultCache before computing anything. Every miss is split into
// pool units by what it computes:
//   * simulation: one unit per replication, each on its own deterministic
//     jump stream; the unit that finishes last aggregates the job in
//     replication order;
//   * estimate: one unit per grid entry, solving the entry's points in λ
//     order through one core::FixedPointContinuation (warm), or each point
//     cold (RunnerOptions::warm = false).
// A job that both simulates and estimates is computed (and cached) as two
// halves, merged back into one JobResult per job in spec order. The run
// emits a CSV of all job outputs plus a JSON manifest with per-job wall
// time, event counts, cache provenance and aggregate steal statistics.
//
// Scheduling independence: par::ThreadPool is a work-stealing pool, so
// which worker executes a unit — and in what order units complete — is
// nondeterministic. That is fine by contract: a job's results are a pure
// function of (spec.seed, entry, lambda, replication count, and for a
// warm estimate its chain prefix); a job's replications are aggregated in
// replication order, a chain runs serially, and the report assembles
// results by spec order, not completion order. tests/exp_runner_test.cpp
// pins this down by comparing timing-free manifests across pool widths 1,
// 2 and 8.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/cache.hpp"
#include "exp/result.hpp"
#include "exp/spec.hpp"
#include "parallel/thread_pool.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

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
  /// External pool to run the units on; nullptr spawns a private pool of
  /// `threads` workers (0 = util::worker_threads()).
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
  /// Warm continuation along each entry's λ chain, under warm-aware cache
  /// keys (Job::solver, Job::warm_chain) with the converged state stored
  /// alongside, so an interrupted sweep resumes warm. A spec with an
  /// estimating entry must then have a strictly monotone λ grid. false
  /// solves every point cold under plain cold keys and accepts any λ
  /// order — the reference mode the warm path is validated against.
  bool warm = true;
  /// Abort (default) vs Report; LSM_ON_FAILURE=report flips the default.
  /// In Report mode a failed chain point is isolated and the REST OF THE
  /// CHAIN COLD-RESTARTS: the failed point left no trustworthy state to
  /// continue from, so the next point solves cold (keyed as such) and
  /// warm chaining resumes behind it.
  OnFailure on_failure = default_on_failure();
  RetryPolicy retry{};
  /// Streaming progress: called once per completed job half (an estimate
  /// point, or a simulated point) with the job's index in spec order and
  /// the partial result — including Failed partials, whose
  /// error/error_kind fields describe the failure. Invoked from pool
  /// threads (for a simulated point, by the replication unit that
  /// finished it), possibly concurrently for independent units, or from
  /// the calling thread for a simulated point answered by the cache or
  /// cancelled before it started; an entry's estimate points always
  /// arrive in λ order. The callback must not throw; keep it cheap (the
  /// chain blocks on it between solves).
  std::function<void(std::size_t index, const JobResult& partial)> on_point;
  /// Cooperative cancellation: when non-null and set, every point not yet
  /// started is skipped and reported as Failed with error_kind
  /// "cancelled" (the run still returns a complete, well-formed report).
  /// Checked before every estimate point and every simulation
  /// replication — a cancel lands within one point's solve time or one
  /// replication's run time; a simulated point any of whose replications
  /// saw it is cancelled. Cancelled points are never cached.
  const std::atomic<bool>* cancel = nullptr;

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
  /// the report. Throws util::Error when the spec is malformed — including
  /// a non-monotone λ grid under warm chaining — and, in Abort mode, the
  /// first job failure.
  [[nodiscard]] RunReport run(const ExperimentSpec& spec);

 private:
  RunnerOptions opts_;
};

}  // namespace lsm::exp
