// Replication harness: runs R independent simulation replications (each on
// its own xoshiro jump stream) and aggregates the per-replication results,
// matching the paper's "average of 10 simulations" methodology. Stream k
// always drives replication k, so the aggregate is bit-for-bit identical
// whether the replications run serially or on a thread pool.
#pragma once

#include <optional>
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
  /// When set, overrides SimConfig::collect_sojourns for every replication.
  std::optional<bool> collect_sojourns;
};

/// Runs `opts.replications` copies of `config` (seeded from config.seed via
/// deterministic jump streams). Results are independent of the thread
/// schedule.
[[nodiscard]] ReplicationResult replicate(const SimConfig& config,
                                          const ReplicateOptions& opts);

}  // namespace lsm::sim
