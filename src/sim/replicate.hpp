// Replication harness: runs R independent simulation replications (each on
// its own xoshiro jump stream) and aggregates the per-replication results,
// matching the paper's "average of 10 simulations" methodology. Stream k
// always drives replication k, so the aggregate is bit-for-bit identical
// whether the replications run serially, on a thread pool, or as separate
// units of exp::Runner's pool.
#pragma once

#include <span>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "sim/simulator.hpp"
#include "util/statistics.hpp"

namespace lsm::sim {

struct ReplicationResult {
  util::Summary sojourn;            ///< across per-replication mean sojourns
  util::Summary mean_tasks;         ///< across per-replication E[N] values
  std::vector<double> tail_fraction;  ///< element-wise mean of s_i estimates
  std::vector<SimResult> replications;
};

/// How to run a batch of replications.
struct ReplicateOptions {
  std::size_t replications = 1;
  /// Workers to fan the replications across; nullptr runs them serially on
  /// the calling thread (same results either way).
  par::ThreadPool* pool = nullptr;
};

/// Replication k of `config`: one simulation driven by jump stream k of
/// config.seed. A pure function of (config, k).
[[nodiscard]] SimResult run_replication(const SimConfig& config,
                                        std::size_t k);

/// The summaries of `runs`, given in replication order. `replications` is
/// left empty; replicate() moves the runs in after summarizing them.
[[nodiscard]] ReplicationResult aggregate(std::span<const SimResult> runs);

/// Runs `opts.replications` copies of `config` (seeded from config.seed via
/// deterministic jump streams). Results are independent of the thread
/// schedule.
[[nodiscard]] ReplicationResult replicate(const SimConfig& config,
                                          const ReplicateOptions& opts);

}  // namespace lsm::sim
