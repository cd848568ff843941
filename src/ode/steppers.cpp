#include "ode/steppers.hpp"

#include <algorithm>
#include <cmath>

namespace lsm::ode {

CashKarp45::Result CashKarp45::attempt(const OdeSystem& sys, double t,
                                       const State& s, double dt, double atol,
                                       double rtol, State& out) {
  // Cash-Karp tableau coefficients.
  constexpr double a2 = 1.0 / 5, a3 = 3.0 / 10, a4 = 3.0 / 5, a5 = 1.0,
                   a6 = 7.0 / 8;
  constexpr double b21 = 1.0 / 5;
  constexpr double b31 = 3.0 / 40, b32 = 9.0 / 40;
  constexpr double b41 = 3.0 / 10, b42 = -9.0 / 10, b43 = 6.0 / 5;
  constexpr double b51 = -11.0 / 54, b52 = 5.0 / 2, b53 = -70.0 / 27,
                   b54 = 35.0 / 27;
  constexpr double b61 = 1631.0 / 55296, b62 = 175.0 / 512, b63 = 575.0 / 13824,
                   b64 = 44275.0 / 110592, b65 = 253.0 / 4096;
  constexpr double c1 = 37.0 / 378, c3 = 250.0 / 621, c4 = 125.0 / 594,
                   c6 = 512.0 / 1771;
  constexpr double d1 = 2825.0 / 27648, d3 = 18575.0 / 48384,
                   d4 = 13525.0 / 55296, d5 = 277.0 / 14336, d6 = 1.0 / 4;

  const std::size_t n = s.size();
  k1_.resize(n);
  k2_.resize(n);
  k3_.resize(n);
  k4_.resize(n);
  k5_.resize(n);
  k6_.resize(n);
  tmp_.resize(n);
  out.resize(n);

  sys.deriv(t, s, k1_);
  for (std::size_t i = 0; i < n; ++i) tmp_[i] = s[i] + dt * b21 * k1_[i];
  sys.deriv(t + a2 * dt, tmp_, k2_);
  for (std::size_t i = 0; i < n; ++i) {
    tmp_[i] = s[i] + dt * (b31 * k1_[i] + b32 * k2_[i]);
  }
  sys.deriv(t + a3 * dt, tmp_, k3_);
  for (std::size_t i = 0; i < n; ++i) {
    tmp_[i] = s[i] + dt * (b41 * k1_[i] + b42 * k2_[i] + b43 * k3_[i]);
  }
  sys.deriv(t + a4 * dt, tmp_, k4_);
  for (std::size_t i = 0; i < n; ++i) {
    tmp_[i] = s[i] + dt * (b51 * k1_[i] + b52 * k2_[i] + b53 * k3_[i] +
                           b54 * k4_[i]);
  }
  sys.deriv(t + a5 * dt, tmp_, k5_);
  for (std::size_t i = 0; i < n; ++i) {
    tmp_[i] = s[i] + dt * (b61 * k1_[i] + b62 * k2_[i] + b63 * k3_[i] +
                           b64 * k4_[i] + b65 * k5_[i]);
  }
  sys.deriv(t + a6 * dt, tmp_, k6_);

  Result res;
  for (std::size_t i = 0; i < n; ++i) {
    const double y5 =
        s[i] + dt * (c1 * k1_[i] + c3 * k3_[i] + c4 * k4_[i] + c6 * k6_[i]);
    const double y4 = s[i] + dt * (d1 * k1_[i] + d3 * k3_[i] + d4 * k4_[i] +
                                   d5 * k5_[i] + d6 * k6_[i]);
    out[i] = y5;
    const double scale = atol + rtol * std::max(std::abs(s[i]), std::abs(y5));
    res.error_norm = std::max(res.error_norm, std::abs(y5 - y4) / scale);
  }
  return res;
}

}  // namespace lsm::ode
