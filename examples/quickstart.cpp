// Quickstart: predict the mean time-in-system of a work stealing cluster
// with the mean-field model, then check the prediction with a simulation.
//
//   ./quickstart [--lambda=0.9] [--n=128] [--threshold=2]
#include <iostream>

#include "lsm.hpp"

int main(int argc, char** argv) {
  const lsm::util::Args args(argc, argv);
  const double lambda = args.get("lambda", 0.9);
  const auto n = static_cast<std::size_t>(args.get("n", 128L));
  const auto threshold = static_cast<std::size_t>(args.get("threshold", 2L));

  // 1. Model: fixed point of the mean-field ODEs -> predicted E[T].
  lsm::core::ThresholdWS model(lambda, threshold);
  const auto fp = lsm::core::solve_fixed_point(model);
  const double predicted = model.mean_sojourn(fp.state);

  std::cout << "model " << model.name() << "\n"
            << "  closed-form estimate : " << model.analytic_sojourn() << "\n"
            << "  numeric fixed point  : " << predicted
            << "  (residual " << fp.residual << ")\n";

  // 2. Simulation: a finite system of n processors, same policy.
  lsm::sim::SimConfig cfg;
  cfg.processors = n;
  cfg.arrival_rate = lambda;
  cfg.policy = lsm::sim::StealPolicy::on_empty(threshold);
  cfg.horizon = 30000.0;
  cfg.warmup = 3000.0;
  const auto rep = lsm::sim::replicate(
      cfg, lsm::sim::ReplicateOptions{.replications = 3});

  std::cout << "simulation (n=" << n << ", 3 replications)\n"
            << "  mean sojourn         : " << rep.sojourn.mean << " +/- "
            << rep.sojourn.half_width << "\n"
            << "  busy fraction        : " << rep.tail_fraction[1]
            << "  (model: " << fp.state[1] << ")\n";
  return 0;
}
