// Policy explorer: ranks every stealing strategy the library models at a
// given offered load, using fixed points only (instant; no simulation).
// The kind of what-if exploration the paper's technique makes cheap.
//
//   ./policy_explorer [--lambda=0.95]
#include <iostream>
#include <memory>
#include <vector>

#include "lsm.hpp"

int main(int argc, char** argv) {
  const lsm::util::Args args(argc, argv);
  const double lambda = args.get("lambda", 0.95);
  using lsm::core::MeanFieldModel;

  std::vector<std::unique_ptr<MeanFieldModel>> models;
  models.push_back(std::make_unique<lsm::core::NoStealing>(lambda));
  models.push_back(std::make_unique<lsm::core::SimpleWS>(lambda));
  models.push_back(std::make_unique<lsm::core::ThresholdWS>(lambda, 4));
  // The single-extension families are registry presets of ComposedWS.
  models.push_back(lsm::core::make_model("preemptive", lambda, {{"B", 2}}));
  models.push_back(lsm::core::make_model("repeated", lambda, {{"r", 2}}));
  models.push_back(lsm::core::make_model("multi-choice", lambda, {{"d", 2}}));
  models.push_back(lsm::core::make_model("multi-steal", lambda, {{"k", 2}}));
  models.push_back(std::make_unique<lsm::core::RebalanceWS>(lambda, 1.0));
  models.push_back(
      lsm::core::make_model("transfer", lambda, {{"r", 1.0}, {"T", 3}}));
  models.push_back(std::make_unique<lsm::core::ErlangServiceWS>(lambda, 20));
  models.push_back(std::make_unique<lsm::core::WorkSharingWS>(lambda, 2));
  models.push_back(std::make_unique<lsm::core::ComposedWS>(
      lambda, lsm::core::ComposedPolicy{.threshold = 4,
                                        .choices = 2,
                                        .steal_count = 2,
                                        .begin_steal = 2,
                                        .retry_rate = 1.0}));

  struct Row {
    std::string name;
    double sojourn;
  };
  std::vector<Row> rows;
  for (const auto& m : models) {
    const auto fp = lsm::core::solve_fixed_point(*m);
    rows.push_back({m->name(), m->mean_sojourn(fp.state)});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.sojourn < b.sojourn; });

  std::cout << "policies ranked by predicted E[time in system], lambda = "
            << lambda << "\n\n";
  lsm::util::Table table({"rank", "policy", "E[T]", "vs no-steal"});
  const double baseline = 1.0 / (1.0 - lambda);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    table.add_row({std::to_string(i + 1), rows[i].name,
                   lsm::util::Table::fmt(rows[i].sojourn),
                   lsm::util::Table::fmt(baseline / rows[i].sojourn, 2) + "x"});
  }
  table.print(std::cout);
  std::cout << "\n(erlang-ws models deterministic service; its win is lower "
               "variance, not a better steal rule)\n";
  return 0;
}
