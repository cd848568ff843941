#include "analysis/compare.hpp"

#include "util/error.hpp"
#include "util/statistics.hpp"

namespace lsm::analysis {

ComparisonSpec quick_spec(ComparisonSpec spec) {
  spec.replications = 3;
  spec.horizon = 30000.0;
  spec.warmup = 3000.0;
  return spec;
}

ComparisonRow compare_row(const sim::SimConfig& base,
                          const ComparisonSpec& spec, double estimate,
                          par::ThreadPool& pool) {
  LSM_EXPECT(!spec.processor_counts.empty(), "need processor counts");
  ComparisonRow row;
  row.lambda = base.arrival_rate;
  row.estimate = estimate;
  for (std::size_t n : spec.processor_counts) {
    sim::SimConfig cfg = base;
    cfg.processors = n;
    cfg.horizon = spec.horizon;
    cfg.warmup = spec.warmup;
    cfg.seed = spec.seed;
    const auto rep = sim::replicate(
        cfg, sim::ReplicateOptions{.replications = spec.replications,
                                   .pool = &pool});
    row.sim_sojourn.push_back(rep.sojourn.mean);
  }
  row.rel_error_pct =
      util::relative_error_pct(row.sim_sojourn.back(), row.estimate);
  return row;
}

}  // namespace lsm::analysis
