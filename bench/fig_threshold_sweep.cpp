// Figure F3 (Section 2.3 ablation): expected time in system across steal
// thresholds T = 2..8 and arrival rates, from the fixed point, with a
// simulated spot check at lambda = 0.9. With instant transfers, lower
// thresholds always help; the threshold only pays off once transfers cost
// time (see table3/fig for that crossover).
//
// Runs through exp::Runner (sharded, cached, manifest/CSV
// artifacts; estimates chain warm along the λ grid).
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace lsm;
  const auto f = bench::fidelity();
  bench::print_header("Fig F3: threshold sweep (closed-form estimates)", f);

  exp::ExperimentSpec sweep;
  sweep.name = "fig_threshold_sweep";
  sweep.fidelity = f;
  sweep.lambdas = {0.50, 0.80, 0.90, 0.95, 0.99};
  for (std::size_t T = 2; T <= 8; ++T) {
    exp::GridEntry e;
    e.label = "T" + std::to_string(T);
    e.model = "threshold";
    e.params = {{"T", static_cast<double>(T)}};
    e.simulate = false;
    sweep.add(std::move(e));
  }
  const auto estimates = exp::Runner().run(sweep);

  std::vector<std::string> header = {"lambda"};
  for (std::size_t T = 2; T <= 8; ++T) {
    header.push_back("T=" + std::to_string(T));
  }
  util::Table table(std::move(header));
  for (const double lambda : sweep.lambdas) {
    std::vector<std::string> row = {util::Table::fmt(lambda, 2)};
    for (std::size_t T = 2; T <= 8; ++T) {
      row.push_back(util::Table::fmt(
          estimates.estimate("T" + std::to_string(T), lambda)));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  exp::ExperimentSpec check;
  check.name = "fig_threshold_sweep_spot";
  check.fidelity = f;
  check.lambdas = {0.9};
  for (const std::size_t T : {2u, 4u, 6u}) {
    exp::GridEntry e;
    e.label = "T" + std::to_string(T);
    e.model = "threshold";
    e.params = {{"T", static_cast<double>(T)}};
    e.config.processors = 128;
    e.config.policy = sim::StealPolicy::on_empty(T);
    check.add(std::move(e));
  }
  const auto spot_report = exp::Runner().run(check);

  std::cout << "\nsimulated spot check, lambda = 0.9, n = 128:\n";
  util::Table spot({"T", "Sim(128)", "Estimate"});
  for (const std::size_t T : {2u, 4u, 6u}) {
    const std::string label = "T" + std::to_string(T);
    spot.add_row({std::to_string(T),
                  util::Table::fmt(spot_report.sim(label, 0.9)),
                  util::Table::fmt(spot_report.estimate(label, 0.9))});
  }
  spot.print(std::cout);
  std::cout << estimates.summary() << "\n"
            << spot_report.summary() << "\n";
  return 0;
}
