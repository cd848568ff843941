// Warmup advisor: how long must a simulation run before its measurements
// reflect steady state? The paper discards the first 10,000 of 100,000
// seconds; this tool derives a principled number for any policy and load
// from the mean-field transient and its relaxation spectrum, then verifies
// it with a short simulation.
//
//   ./warmup_advisor [--lambda=0.95] [--threshold=2] [--eps=0.01]
#include <iostream>

#include "lsm.hpp"

int main(int argc, char** argv) {
  const lsm::util::Args args(argc, argv);
  const double lambda = args.get("lambda", 0.95);
  const auto threshold = static_cast<std::size_t>(args.get("threshold", 2L));
  const double eps = args.get("eps", 0.01);

  lsm::core::ThresholdWS model(lambda, threshold);
  const auto fp = lsm::core::solve_fixed_point(model);

  // Transient from the empty start (how simulations begin).
  const auto tr = lsm::analysis::time_to_steady_state(
      model, model.empty_state(), fp.state, eps);
  const auto spec = lsm::analysis::dominant_relaxation_mode(model, fp.state);

  std::cout << "policy " << model.name() << ", lambda = " << lambda << "\n"
            << "steady-state E[T]         : " << model.mean_sojourn(fp.state)
            << "\n"
            << "settle time to L1 < " << eps << "  : " << tr.settle_time
            << "\n";
  if (spec.converged) {
    std::cout << "spectral relaxation time  : " << spec.relaxation_time
              << "  (gap " << spec.spectral_gap << ")\n"
              << "spectral settle estimate  : "
              << lsm::analysis::spectral_settle_estimate(
                     tr.initial_distance, eps, spec.spectral_gap)
              << "\n";
  }
  const double recommended = 2.0 * tr.settle_time;
  std::cout << "recommended sim warmup    : " << recommended
            << "  (2x settle time; paper used 10,000 for lambda up to "
               "0.99)\n\n";

  // Verify: measure with the recommended warmup vs none at all.
  auto measure = [&](double warmup) {
    lsm::sim::SimConfig cfg;
    cfg.processors = 128;
    cfg.arrival_rate = lambda;
    cfg.policy = lsm::sim::StealPolicy::on_empty(threshold);
    cfg.horizon = std::max(4000.0, 10.0 * recommended);
    cfg.warmup = warmup;
    cfg.seed = 9;
    return lsm::sim::replicate(
               cfg, lsm::sim::ReplicateOptions{.replications = 3})
        .sojourn.mean;
  };
  const double with_warmup = measure(recommended);
  const double without = measure(0.0);
  std::cout << "sim mean sojourn, warmup = " << recommended << " : "
            << with_warmup << "\n"
            << "sim mean sojourn, no warmup       : " << without
            << "  (biased low by the empty start)\n"
            << "fixed-point estimate              : "
            << model.mean_sojourn(fp.state) << "\n";
  return 0;
}
