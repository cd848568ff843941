// Time integration: an adaptive Cash-Karp 4(5) driver with PI-free
// classical step-size control and observer callbacks.
#pragma once

#include <functional>

#include "ode/steppers.hpp"
#include "ode/system.hpp"

namespace lsm::ode {

/// Called after every accepted step with (t, state). Return false to stop
/// integration early.
using Observer = std::function<bool(double, const State&)>;

struct AdaptiveOptions {
  double atol = 1e-10;
  double rtol = 1e-8;
  double dt_init = 1e-3;
  double dt_min = 1e-12;
  double dt_max = 1.0;
  std::size_t max_steps = 50'000'000;
};

/// Adaptive Cash-Karp driver with reusable scratch: the proposal buffer and
/// the stepper's stage vectors live in the object, so repeated integrate()
/// calls (and every accepted step within one) perform zero heap
/// allocations once warm. Step acceptance swaps the state and proposal
/// buffers instead of moving, which is what makes the hot loop
/// allocation-free (tests/hot_loop_alloc_test.cpp enforces this).
class AdaptiveIntegrator {
 public:
  /// Integrates s from t0 to t1. Throws util::Error if the step size
  /// underflows opts.dt_min. Returns the final time reached.
  double integrate(const OdeSystem& sys, State& s, double t0, double t1,
                   const AdaptiveOptions& opts = {},
                   const Observer& observe = nullptr);

 private:
  CashKarp45 ck_;
  State proposal_;
};

/// Adaptive Cash-Karp integration from t0 to t1. Throws util::Error if the
/// step size underflows dt_min. Returns the final time reached. One-shot
/// convenience over AdaptiveIntegrator; callers integrating repeatedly
/// should hold an AdaptiveIntegrator to reuse its scratch buffers.
double integrate_adaptive(const OdeSystem& sys, State& s, double t0, double t1,
                          const AdaptiveOptions& opts = {},
                          const Observer& observe = nullptr);

}  // namespace lsm::ode
