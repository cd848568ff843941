#include "sim/replicate.hpp"

#include "parallel/parallel_for.hpp"
#include "parallel/rng_streams.hpp"
#include "util/error.hpp"

namespace lsm::sim {

SimResult run_replication(const SimConfig& config, std::size_t k) {
  return simulate(config,
                  par::RngStreams(config.seed).stream(static_cast<unsigned>(k)));
}

ReplicationResult aggregate(std::span<const SimResult> runs) {
  ReplicationResult out;
  std::vector<double> sojourns, tasks;
  sojourns.reserve(runs.size());
  tasks.reserve(runs.size());
  for (const auto& r : runs) {
    sojourns.push_back(r.mean_sojourn());
    tasks.push_back(r.mean_tasks);
  }
  out.sojourn = util::summarize(sojourns);
  out.mean_tasks = util::summarize(tasks);
  if (!runs.empty()) {
    out.tail_fraction.assign(runs.front().tail_fraction.size(), 0.0);
    for (const auto& r : runs) {
      for (std::size_t i = 0; i < out.tail_fraction.size(); ++i) {
        out.tail_fraction[i] += r.tail_fraction[i];
      }
    }
    for (auto& v : out.tail_fraction) v /= static_cast<double>(runs.size());
  }
  return out;
}

ReplicationResult replicate(const SimConfig& config,
                            const ReplicateOptions& opts) {
  LSM_EXPECT(opts.replications >= 1, "need at least one replication");
  config.validate();
  const auto one = [&](std::size_t k) { return run_replication(config, k); };
  std::vector<SimResult> runs;
  if (opts.pool != nullptr) {
    runs = par::parallel_map(*opts.pool, opts.replications, one);
  } else {
    runs.reserve(opts.replications);
    for (std::size_t k = 0; k < opts.replications; ++k) runs.push_back(one(k));
  }
  ReplicationResult out = aggregate(runs);
  out.replications = std::move(runs);
  return out;
}

}  // namespace lsm::sim
