// Reproduces Table 4: one victim choice vs two (T = 2, n = 128) plus the
// two-choice fixed-point estimate. Paper:
//
//   lambda  Sim 1-choice  Sim 2-choice  Est 2-choice
//   0.50    1.620         1.436         1.433
//   0.99    11.306        4.597         4.011
//
// Runs through exp::Runner (sharded, cached, manifest/CSV
// artifacts; estimates chain warm along the λ grid).
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace lsm;
  const auto f = bench::fidelity();
  bench::print_header("Table 4: one choice vs two choices (T = 2, n = 128)",
                      f);

  exp::ExperimentSpec spec;
  spec.name = "table4_two_choices";
  spec.fidelity = f;
  spec.lambdas = {0.50, 0.70, 0.80, 0.90, 0.95, 0.99};
  {
    exp::GridEntry one;
    one.label = "d1";
    one.model = "simple";
    one.config.processors = 128;
    one.config.policy = sim::StealPolicy::on_empty(2, 1);
    spec.add(std::move(one));
  }
  {
    exp::GridEntry two;
    two.label = "d2";
    two.model = "multi-choice";
    two.params = {{"d", 2.0}, {"T", 2.0}};
    two.config.processors = 128;
    two.config.policy = sim::StealPolicy::on_empty(2, 2);
    spec.add(std::move(two));
  }

  const auto report = exp::Runner().run(spec);

  util::Table table({"lambda", "Sim(128) 1 choice", "Sim(128) 2 choices",
                     "Est 1 choice", "Est 2 choices"});
  for (const double lambda : spec.lambdas) {
    table.add_row({util::Table::fmt(lambda, 2),
                   util::Table::fmt(report.sim("d1", lambda)),
                   util::Table::fmt(report.sim("d2", lambda)),
                   util::Table::fmt(report.estimate("d1", lambda)),
                   util::Table::fmt(report.estimate("d2", lambda))});
  }
  table.print(std::cout);
  std::cout << "\npaper 2-choice estimates: 1.433 / 1.673 / 1.864 / 2.220 / "
               "2.640 / 4.011; most of the gain comes from the first probe\n"
            << report.summary() << "\n";
  return 0;
}
