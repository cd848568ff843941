// Figure F4 (Section 2.5 ablation): repeated steal attempts at rate r.
// Shows E[T] and pi_T falling as r grows (pi_T -> 0 as r -> infinity) and
// verifies the tail-decay formula lambda / (1 + r(1-lambda) + lambda - pi_2).
#include <iostream>

#include "bench_common.hpp"
#include "core/composed_ws.hpp"
#include "core/fixed_point.hpp"
#include "core/metrics.hpp"

int main() {
  using namespace lsm;
  const auto f = bench::fidelity();
  bench::print_header("Fig F4: repeated steal attempts (T = 3)", f);
  par::ThreadPool pool(util::worker_threads());
  constexpr std::size_t kT = 3;

  for (double lambda : {0.90, 0.95}) {
    std::cout << "lambda = " << lambda << "\n";
    util::Table table({"r", "Est E[T]", "Sim(128)", "pi_T", "tail ratio",
                       "predicted ratio"});
    for (double r : {0.0, 0.5, 1.0, 2.0, 5.0, 10.0}) {
      core::ComposedWS model(lambda, {.threshold = kT, .retry_rate = r});
      const auto fp = core::solve_fixed_point(model);
      const double est = model.mean_sojourn(fp.state);

      std::string sim_cell = "-";
      if (r == 0.0 || r == 1.0 || r == 5.0) {
        sim::SimConfig cfg;
        cfg.processors = 128;
        cfg.arrival_rate = lambda;
        cfg.policy = r > 0.0 ? sim::StealPolicy::with_retries(r, kT)
                             : sim::StealPolicy::on_empty(kT);
        sim_cell = util::Table::fmt(bench::sim_mean_sojourn(cfg, f, pool));
      }
      table.add_row({util::Table::fmt(r, 1), util::Table::fmt(est), sim_cell,
                     util::Table::fmt(fp.state[kT], 4),
                     util::Table::fmt(core::tail_decay_ratio(fp.state, kT + 3), 4),
                     util::Table::fmt(model.predicted_tail_ratio(fp.state), 4)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "paper: in the limit r -> infinity, pi_T -> 0\n";
  return 0;
}
