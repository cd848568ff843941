// Threshold tuning (the Section 3.2 / Table 3 workflow): given a measured
// task-transfer latency, use the fixed point of the transfer-time model to
// pick the steal threshold T that minimizes expected time in system --
// without running a single simulation.
//
//   ./threshold_tuning [--rate=0.25] [--lambda=0.9] [--tmax=8]
#include <iostream>

#include "lsm.hpp"

int main(int argc, char** argv) {
  const lsm::util::Args args(argc, argv);
  const double rate = args.get("rate", 0.25);     // transfers per unit time
  const double lambda = args.get("lambda", 0.9);  // offered load
  const auto t_max = static_cast<std::size_t>(args.get("tmax", 8L));

  std::cout << "transfer rate r = " << rate << " (mean transfer "
            << 1.0 / rate << " service units), lambda = " << lambda << "\n"
            << "rule of thumb: T ~ 1/r + 1 = " << 1.0 / rate + 1.0
            << "; exact answer from the fixed point:\n\n";

  lsm::util::Table table({"T", "E[T] predicted", "waiting fraction"});
  double best_w = 1e300;
  std::size_t best_T = 0;
  for (std::size_t T = 2; T <= t_max; ++T) {
    // One Exp(1/r) transfer stage: the registry's `transfer` model.
    lsm::core::StagedTransferWS model(lambda, rate, 1, T);
    const auto fp = lsm::core::solve_fixed_point(model);
    const double w = model.mean_sojourn(fp.state);
    table.add_row({std::to_string(T), lsm::util::Table::fmt(w, 4),
                   lsm::util::Table::fmt(fp.state[model.w_index(1, 0)], 4)});
    if (w < best_w) {
      best_w = w;
      best_T = T;
    }
  }
  table.print(std::cout);
  std::cout << "\nbest threshold: T = " << best_T << " (E[T] = " << best_w
            << ")\n";
  return 0;
}
