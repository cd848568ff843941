// Figure F2 (Section 4): trajectories of the L1 distance D(t) to the fixed
// point. In the Theorem 1 regime (pi_2 < 1/2) D must be non-increasing;
// at high load the theorem gives no guarantee but convergence still holds
// numerically, exactly as the paper reports.
#include <iostream>

#include "analysis/convergence.hpp"
#include "analysis/stability.hpp"
#include "bench_common.hpp"
#include "core/threshold_ws.hpp"

int main() {
  using namespace lsm;
  const auto f = bench::fidelity();
  bench::print_header("Fig F2: stability and convergence of D(t)", f);

  for (double lambda : {0.60, 0.95}) {
    core::SimpleWS model(lambda);
    const auto pi = model.analytic_fixed_point();
    std::cout << "lambda = " << lambda << "  (pi_2 = " << pi[2]
              << (analysis::theorem_stability_condition(pi)
                      ? " < 1/2: Theorem 1 applies)"
                      : " >= 1/2: beyond Theorem 1)")
              << "\n";

    const double duration = lambda < 0.9 ? 30.0 : 120.0;
    const auto from_empty = analysis::trace_l1_distance(
        model, model.empty_state(), pi, duration, duration / 12.0);
    const auto from_mm1 = analysis::trace_l1_distance(
        model, model.mm1_state(), pi, duration, duration / 12.0);

    util::Table table({"t", "D(t) from empty", "D(t) from M/M/1 tail"});
    for (std::size_t k = 0; k < from_empty.samples.size(); ++k) {
      table.add_row({util::Table::fmt(from_empty.samples[k].t, 1),
                     util::Table::fmt(from_empty.samples[k].l1, 6),
                     util::Table::fmt(from_mm1.samples[k].l1, 6)});
    }
    table.print(std::cout);
    std::cout << "max single-step increase: empty-start "
              << from_empty.max_increase << ", mm1-start "
              << from_mm1.max_increase << "\n";

    const auto starts = analysis::random_starts(model, 6, 2026);
    const auto report = analysis::check_convergence(
        model, starts, pi, {.t_max = 2000.0, .tol = 1e-6});
    std::cout << "random starts converged: " << report.converged << "/"
              << report.starts
              << " (worst final distance " << report.worst_final_distance
              << ")\n\n";
  }
  return 0;
}
