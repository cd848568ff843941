#include "ode/integrator.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace lsm::ode {

double AdaptiveIntegrator::integrate(const OdeSystem& sys, State& s,
                                     double t0, double t1,
                                     const AdaptiveOptions& opts,
                                     const Observer& observe) {
  LSM_EXPECT(t1 >= t0, "integration interval is inverted");
  double t = t0;
  double dt = std::min(opts.dt_init, std::max(t1 - t0, opts.dt_min));
  constexpr double kSafety = 0.9;
  constexpr double kShrinkExp = -0.25;  // error ~ dt^5 on rejection
  constexpr double kGrowExp = -0.20;
  std::size_t steps = 0;
  while (t < t1) {
    if (++steps > opts.max_steps) {
      throw util::Error("integrate_adaptive: exceeded max_steps");
    }
    const double h = std::min(dt, t1 - t);
    const auto res = ck_.attempt(sys, t, s, h, opts.atol, opts.rtol, proposal_);
    if (res.error_norm <= 1.0) {
      s.swap(proposal_);  // buffers ping-pong: no allocation per step
      sys.project(s);
      t += h;
      const double grow =
          res.error_norm > 0.0
              ? kSafety * std::pow(res.error_norm, kGrowExp)
              : 5.0;
      dt = std::clamp(h * std::min(grow, 5.0), opts.dt_min, opts.dt_max);
      if (observe && !observe(t, s)) break;
    } else {
      const double shrink = kSafety * std::pow(res.error_norm, kShrinkExp);
      dt = h * std::max(shrink, 0.1);
      if (dt < opts.dt_min) {
        throw util::Error("integrate_adaptive: step size underflow");
      }
    }
  }
  return t;
}

double integrate_adaptive(const OdeSystem& sys, State& s, double t0, double t1,
                          const AdaptiveOptions& opts,
                          const Observer& observe) {
  AdaptiveIntegrator driver;
  return driver.integrate(sys, s, t0, t1, opts, observe);
}

}  // namespace lsm::ode
