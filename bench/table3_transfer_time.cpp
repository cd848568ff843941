// Reproduces Table 3: stealing with transfer time r = 0.25 (mean transfer
// 4 service units) for thresholds T = 3..6. For each lambda, simulations
// at n = 128 sit next to the fixed-point estimates; the best threshold is
// T = 4 ~ 1/r at small arrival rates and grows with lambda. Paper row
// lambda = 0.95: Sim/Est = 13.162/13.106 (T=3) ... 13.067/12.925 (T=6).
//
// Runs through exp::Runner (sharded, cached, manifest/CSV
// artifacts; estimates chain warm along the λ grid).
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace lsm;
  const auto f = bench::fidelity();
  bench::print_header("Table 3: transfer times (r = 0.25), threshold sweep",
                      f);
  constexpr double kRate = 0.25;
  const std::size_t thresholds[] = {3u, 4u, 5u, 6u};

  exp::ExperimentSpec spec;
  spec.name = "table3_transfer_time";
  spec.fidelity = f;
  spec.lambdas = {0.50, 0.70, 0.80, 0.90, 0.95};
  for (const std::size_t T : thresholds) {
    exp::GridEntry e;
    e.label = "T" + std::to_string(T);
    e.model = "transfer";
    e.params = {{"r", kRate}, {"T", static_cast<double>(T)}};
    e.config.processors = 128;
    e.config.policy = sim::StealPolicy::with_transfer(1.0 / kRate, T);
    spec.add(std::move(e));
  }

  const auto report = exp::Runner().run(spec);

  std::vector<std::string> header = {"lambda"};
  for (const std::size_t T : thresholds) {
    header.push_back("T=" + std::to_string(T) + " Sim(128)");
    header.push_back("T=" + std::to_string(T) + " Est");
  }
  header.push_back("best T (Est)");
  util::Table table(std::move(header));

  for (const double lambda : spec.lambdas) {
    std::vector<std::string> row = {util::Table::fmt(lambda, 2)};
    double best_w = 1e300;
    std::size_t best_T = 0;
    for (const std::size_t T : thresholds) {
      const std::string label = std::string("T").append(std::to_string(T));
      row.push_back(util::Table::fmt(report.sim(label, lambda)));
      const double est = report.estimate(label, lambda);
      row.push_back(util::Table::fmt(est));
      if (est < best_w) {
        best_w = est;
        best_T = T;
      }
    }
    row.push_back(std::to_string(best_T));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\npaper: best threshold T = 4 = 1/r at small lambda, larger "
               "at higher arrival rates\n"
            << report.summary() << "\n";
  return 0;
}
