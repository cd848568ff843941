// Reproduces Table 1: simulations vs fixed-point estimates for the
// simplest WS model (steal one task on empty, T = 2), lambda from 0.50 to
// 0.99, n in {16, 32, 64, 128}. Paper reference values:
//
//   lambda  Sim16   Sim32   Sim64   Sim128  Estimate RelErr%
//   0.50    1.631   1.626   1.622   1.620   1.618    0.15
//   0.99    17.863  14.368  12.183  11.306  10.462   7.46
//
// Runs through exp::Runner: the model x lambda grid is sharded across
// pool, completed cells are cached on disk, and the run manifest/CSV land
// in the artifact directory.
#include <iostream>

#include "bench_common.hpp"
#include "util/statistics.hpp"

int main() {
  using namespace lsm;
  const auto f = bench::fidelity();
  bench::print_header("Table 1: simplest WS model, sim vs estimate", f);

  exp::ExperimentSpec spec;
  spec.name = "table1_simple_ws";
  spec.fidelity = f;
  spec.lambdas = {0.50, 0.70, 0.80, 0.90, 0.95, 0.99};
  for (const std::size_t n : {16u, 32u, 64u, 128u}) {
    exp::GridEntry e;
    e.label = "sim" + std::to_string(n);
    e.config.processors = n;
    e.config.policy = sim::StealPolicy::on_empty(2);
    e.estimate = false;
    spec.add(std::move(e));
  }
  {
    exp::GridEntry e;
    e.label = "est";
    e.model = "simple";
    e.simulate = false;
    spec.add(std::move(e));
  }

  const auto report = exp::Runner().run(spec);

  util::Table table({"lambda", "Sim(16)", "Sim(32)", "Sim(64)", "Sim(128)",
                     "Estimate", "RelErr(%)"});
  for (const double lambda : spec.lambdas) {
    const double estimate = report.estimate("est", lambda);
    std::vector<std::string> row = {util::Table::fmt(lambda, 2)};
    for (const std::size_t n : {16u, 32u, 64u, 128u}) {
      row.push_back(util::Table::fmt(
          report.sim("sim" + std::to_string(n), lambda)));
    }
    row.push_back(util::Table::fmt(estimate));
    row.push_back(util::Table::fmt(
        util::relative_error_pct(report.sim("sim128", lambda), estimate), 2));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\npaper: estimates 1.618 / 2.107 / 2.562 / 3.541 / 4.887 / "
               "10.462; error grows with lambda, shrinks with n\n"
            << report.summary() << "\n";
  return 0;
}
