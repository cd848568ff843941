// The explicit one-step method of the adaptive driver in integrator.hpp:
// CashKarp45, an embedded 4(5) pair exposing an error estimate.
#pragma once

#include "ode/state.hpp"
#include "ode/system.hpp"

namespace lsm::ode {

/// Cash-Karp embedded Runge-Kutta 4(5): produces a 5th-order solution and a
/// 4th-order embedded estimate whose difference drives step-size control.
class CashKarp45 {
 public:
  struct Result {
    double error_norm = 0.0;  ///< max_i |err_i| / (atol + rtol*|s_i|)
  };

  /// Computes the proposed next state into `out`; does not modify `s`.
  Result attempt(const OdeSystem& sys, double t, const State& s, double dt,
                 double atol, double rtol, State& out);

 private:
  State k1_, k2_, k3_, k4_, k5_, k6_, tmp_;
};

}  // namespace lsm::ode
