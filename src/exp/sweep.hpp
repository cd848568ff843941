// Warm-started λ-sweep execution for experiment specs.
//
// Runner shards by point: every (entry, λ) job is independent, which is
// right for the simulation-heavy side but leaves the mean-field side
// solving every λ from scratch. A sweep over an ordered λ grid is a
// continuation problem — neighbouring fixed points are close, so the
// previous point's converged tail state, truncation level and Newton
// factorization are a far better start than a cold solve. SweepRunner
// therefore shards the ESTIMATE side by grid entry — one chain per
// model, points solved in λ order through a core::FixedPointContinuation
// — while the simulation side fans out one unit per replication, as in
// Runner; the partial results merge into one Runner-compatible RunReport.
//
// Caching: chained estimate results are cached under warm-aware keys
// (Job::solver and the full warm_chain prefix feed the content hash)
// with the converged compact state stored alongside
// (Outputs::store_state), so an interrupted sweep resumes warm from the
// last cached point, and a warm entry can never satisfy a cold query or
// vice versa. A chain's head point runs the ordinary cold solve and is
// keyed as such.
#pragma once

#include <atomic>
#include <functional>

#include "exp/runner.hpp"
#include "exp/spec.hpp"

namespace lsm::exp {

/// An ExperimentSpec whose λ axis is strictly monotone (ascending or
/// descending — a hysteresis study sweeps back down) and therefore safe
/// to chain.
struct SweepSpec {
  ExperimentSpec spec;

  /// Validates that `spec.lambdas` is non-empty and strictly monotone;
  /// throws util::Error otherwise.
  [[nodiscard]] static SweepSpec from(ExperimentSpec spec);
};

struct SweepOptions {
  /// External pool to shard on; nullptr spawns a private pool of
  /// `threads` workers (0 = util::worker_threads()).
  par::ThreadPool* pool = nullptr;
  unsigned threads = 0;
  /// "" disables caching. Defaults to LSM_CACHE_DIR / ".lsm-cache".
  std::string cache_dir = ResultCache::default_dir();
  /// Shared cache instance used instead of cache_dir when non-null (see
  /// RunnerOptions::cache): one process-wide cache whose counters span
  /// every request the serve daemon executes. Not owned.
  const ResultCache* cache = nullptr;
  /// Directory for the manifest + CSV; "" disables artifact emission.
  std::string artifact_dir = RunnerOptions::default_artifact_dir();
  /// Warm continuation along each entry's λ chain. false solves every
  /// point cold under plain cold keys — the reference mode the warm path
  /// is validated against (fixed_point_property_test asserts the two
  /// agree to 1e-9).
  bool warm = true;
  /// Abort (default) vs Report. In Report mode a failed chain point is
  /// isolated and the REST OF THE CHAIN COLD-RESTARTS: the failed point
  /// left no trustworthy state to continue from, so the next point solves
  /// cold (keyed as such) and warm chaining resumes behind it.
  OnFailure on_failure = RunnerOptions::default_on_failure();
  RetryPolicy retry{};
  /// Streaming progress: called once per completed job half (an
  /// estimate chain point, or a simulated point) with the job's index in
  /// spec order and the partial result — including Failed partials, whose
  /// error/error_kind fields describe the failure. Invoked from pool
  /// threads (for a simulated point, by the replication unit that
  /// finished it), possibly concurrently for independent units, or from
  /// the calling thread for a simulated point answered by the cache or
  /// cancelled before it started; an estimate chain's points always
  /// arrive in λ order. The callback must not throw; keep it cheap (the
  /// chain blocks on it between solves).
  std::function<void(std::size_t index, const JobResult& partial)> on_point;
  /// Cooperative cancellation: when non-null and set, every point not yet
  /// started is skipped and reported as Failed with error_kind
  /// "cancelled" (the run still returns a complete, well-formed report).
  /// Checked before every chain point and every simulation replication —
  /// a cancel lands within one point's solve time or one replication's
  /// run time; a simulated point any of whose replications saw it is
  /// cancelled. Cancelled points are never cached.
  const std::atomic<bool>* cancel = nullptr;
};

/// Executes a SweepSpec: estimate chains per entry, simulations per
/// replication, merged into the same RunReport shape Runner produces (results
/// parallel to jobs in spec order, deterministic across thread counts).
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opts = {});

  [[nodiscard]] RunReport run(const SweepSpec& sweep);
  /// Convenience: validates `spec` via SweepSpec::from first.
  [[nodiscard]] RunReport run(const ExperimentSpec& spec);

 private:
  SweepOptions opts_;
};

}  // namespace lsm::exp
