// Figure F5 (Section 2.4 ablation): preemptive stealing. A processor with
// j <= B tasks left steals from victims with >= j + T tasks. Sweeps B and
// T, checks the predicted tail ratio lambda / (1 + lambda - pi_{B+2}),
// and spot-checks against simulation.
#include <iostream>

#include "bench_common.hpp"
#include "core/composed_ws.hpp"
#include "core/fixed_point.hpp"
#include "core/metrics.hpp"

int main() {
  using namespace lsm;
  const auto f = bench::fidelity();
  bench::print_header("Fig F5: preemptive stealing (B, T) sweep", f);
  par::ThreadPool pool(util::worker_threads());

  for (double lambda : {0.90, 0.95}) {
    std::cout << "lambda = " << lambda << "\n";
    util::Table table({"B", "T", "Est E[T]", "Sim(128)", "tail ratio",
                       "predicted ratio"});
    for (std::size_t T : {2u, 4u}) {
      for (std::size_t B : {0u, 1u, 2u, 4u}) {
        core::ComposedWS model(lambda, {.threshold = T, .begin_steal = B});
        const auto fp = core::solve_fixed_point(model);
        std::string sim_cell = "-";
        if (lambda == 0.90 && (B == 0 || B == 2)) {
          sim::SimConfig cfg;
          cfg.processors = 128;
          cfg.arrival_rate = lambda;
          cfg.policy = sim::StealPolicy::preemptive(B, T);
          sim_cell = util::Table::fmt(bench::sim_mean_sojourn(cfg, f, pool));
        }
        table.add_row(
            {std::to_string(B), std::to_string(T),
             util::Table::fmt(model.mean_sojourn(fp.state)), sim_cell,
             util::Table::fmt(core::tail_decay_ratio(fp.state, B + T + 3), 4),
             util::Table::fmt(model.predicted_tail_ratio(fp.state), 4)});
      }
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "observation: stealing before empty (B > 0) smooths load; "
               "the tails beyond B+T decay at lambda/(1+lambda-pi_{B+2})\n";
  return 0;
}
