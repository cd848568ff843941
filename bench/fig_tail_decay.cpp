// Figure F1 (Section 2.2's headline claim): with work stealing the tails
// of the load distribution decay geometrically at ratio
// lambda / (1 + lambda - pi_2), strictly faster than the no-stealing ratio
// lambda. Prints the fixed-point tails side by side plus measured vs
// predicted decay ratios, and cross-checks against a simulated tail.
#include <iostream>

#include "bench_common.hpp"
#include "core/composed_ws.hpp"
#include "core/fixed_point.hpp"
#include "core/metrics.hpp"
#include "core/threshold_ws.hpp"

int main() {
  using namespace lsm;
  const auto f = bench::fidelity();
  bench::print_header("Fig F1: geometric tail decay, lambda = 0.9", f);
  const double lambda = 0.9;

  core::NoStealing none(lambda);
  core::SimpleWS simple(lambda);
  core::ThresholdWS t4(lambda, 4);
  core::ComposedWS two(lambda, {.choices = 2});

  const auto pi_none = none.analytic_fixed_point();
  const auto pi_simple = simple.analytic_fixed_point();
  const auto pi_t4 = t4.analytic_fixed_point();
  const auto pi_two = core::solve_fixed_point(two).state;

  // Simulated empirical tail at n = 128 for the simple model.
  sim::SimConfig cfg;
  cfg.processors = 128;
  cfg.arrival_rate = lambda;
  cfg.policy = sim::StealPolicy::on_empty(2);
  cfg.horizon = f.horizon;
  cfg.warmup = f.warmup;
  cfg.seed = 42;
  par::ThreadPool pool(util::worker_threads());
  const auto rep = sim::replicate(
      cfg,
      sim::ReplicateOptions{.replications = f.replications, .pool = &pool});

  util::Table table({"i", "no-steal", "simple-ws", "sim(128) simple",
                     "threshold T=4", "2 choices"});
  for (std::size_t i = 0; i <= 14; ++i) {
    table.add_row({std::to_string(i), util::Table::fmt(pi_none[i], 6),
                   util::Table::fmt(pi_simple[i], 6),
                   util::Table::fmt(rep.tail_fraction[i], 6),
                   util::Table::fmt(pi_t4[i], 6),
                   util::Table::fmt(pi_two[i], 6)});
  }
  table.print(std::cout);

  std::cout << "\ndecay ratios (measured by log-linear fit | predicted):\n"
            << "  no-steal  : " << core::tail_decay_ratio(pi_none, 2) << " | "
            << lambda << "\n"
            << "  simple-ws : " << core::tail_decay_ratio(pi_simple, 3)
            << " | " << simple.analytic_tail_ratio() << "\n"
            << "  T=4       : " << core::tail_decay_ratio(pi_t4, 5) << " | "
            << t4.analytic_tail_ratio() << "\n"
            << "  2 choices : " << core::tail_decay_ratio(pi_two, 3)
            << " | >= " << two.predicted_tail_ratio(pi_two) << " (bound)\n";
  return 0;
}
