// Reproduces Table 2: the constant-service-time model (T = 2), comparing
// simulations (constant service, n = 16..128) against the Erlang
// method-of-stages estimates with c = 10 and c = 20 stages. Paper:
//
//   lambda  Sim128  c=10   c=20
//   0.50    1.378   1.405  1.391
//   0.99    7.542   7.581  7.399
//
// Runs through exp::Runner (sharded, cached, manifest/CSV
// artifacts; estimates chain warm along the λ grid).
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace lsm;
  const auto f = bench::fidelity();
  bench::print_header(
      "Table 2: constant service times vs Erlang-stage estimates (T=2)", f);

  exp::ExperimentSpec spec;
  spec.name = "table2_constant_service";
  spec.fidelity = f;
  spec.lambdas = {0.50, 0.70, 0.80, 0.90, 0.95, 0.99};
  for (const std::size_t n : {16u, 32u, 64u, 128u}) {
    exp::GridEntry e;
    e.label = "sim" + std::to_string(n);
    e.config.processors = n;
    e.config.service = sim::ServiceDistribution::constant(1.0);
    e.config.policy = sim::StealPolicy::on_empty(2);
    e.estimate = false;
    spec.add(std::move(e));
  }
  for (const std::size_t c : {10u, 20u}) {
    exp::GridEntry e;
    e.label = "est_c" + std::to_string(c);
    e.model = "erlang";
    e.params = {{"c", static_cast<double>(c)}};
    e.simulate = false;
    spec.add(std::move(e));
  }

  const auto report = exp::Runner().run(spec);

  util::Table table({"lambda", "Sim(16)", "Sim(32)", "Sim(64)", "Sim(128)",
                     "c=10", "c=20"});
  for (const double lambda : spec.lambdas) {
    std::vector<std::string> row = {util::Table::fmt(lambda, 2)};
    for (const std::size_t n : {16u, 32u, 64u, 128u}) {
      row.push_back(util::Table::fmt(
          report.sim("sim" + std::to_string(n), lambda)));
    }
    for (const std::size_t c : {10u, 20u}) {
      row.push_back(util::Table::fmt(
          report.estimate("est_c" + std::to_string(c), lambda)));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\npaper c=20 estimates: 1.391 / 1.727 / 2.039 / 2.700 / 3.625 "
               "/ 7.399; constant service beats exponential service\n"
            << report.summary() << "\n";
  return 0;
}
