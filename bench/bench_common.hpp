// Shared scaffolding for the table/figure reproduction benches.
//
// Fidelity presets live in exp::Fidelity: CI-speed by default, the
// paper's 10 x 100,000 s methodology under LSM_PAPER=1. Table/figure
// benches that sweep a model x lambda grid should build an
// exp::ExperimentSpec and run it through exp::Runner (sharded,
// cached, with manifest/CSV artifacts; the mean-field column warm-starts
// each λ from the previous point's converged state); the helpers here
// remain for one-off simulations that do not fit a grid.
#pragma once

#include <cstddef>
#include <iostream>

#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/replicate.hpp"
#include "sim/simulator.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace lsm::bench {

using Fidelity = exp::Fidelity;

inline Fidelity fidelity() { return exp::Fidelity::from_env(); }

/// Mean sojourn from a replicated simulation at the bench's fidelity.
inline double sim_mean_sojourn(sim::SimConfig cfg, const Fidelity& f,
                               par::ThreadPool& pool, std::uint64_t seed = 42) {
  cfg.horizon = f.horizon;
  cfg.warmup = f.warmup;
  cfg.seed = seed;
  return sim::replicate(cfg, sim::ReplicateOptions{
                                 .replications = f.replications,
                                 .pool = &pool})
      .sojourn.mean;
}

inline void print_header(const char* title, const Fidelity& f) {
  std::cout << "=== " << title << " ===\n"
            << "fidelity: " << f.label << "\n\n";
}

}  // namespace lsm::bench
