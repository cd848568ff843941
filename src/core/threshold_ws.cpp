#include "core/threshold_ws.hpp"

#include <cmath>

#include "util/error.hpp"

namespace lsm::core {

ThresholdWS::ThresholdWS(double lambda, std::size_t threshold,
                         std::size_t truncation)
    : MeanFieldModel(lambda,
                     truncation != 0 ? truncation
                                     : default_truncation(lambda) + threshold),
      threshold_(threshold) {
  trunc_explicit_ = truncation != 0;
  LSM_EXPECT(threshold >= 2, "steal threshold must be at least 2");
  LSM_EXPECT(lambda < 1.0, "model is unstable for lambda >= 1");
  LSM_EXPECT(trunc_ > threshold + 2, "truncation too small for threshold");
}

std::string ThresholdWS::name() const {
  return "threshold-ws(T=" + std::to_string(threshold_) + ")";
}

bool ThresholdWS::rhs_batch(std::size_t lanes, const double* x,
                            double* dx) const {
  return for_lanes(lanes, [&](auto nb) {
    const std::size_t L = trunc_;
    const double lam = lambda_;  // a local cannot alias dx
    const std::size_t T = threshold_;
    // Component-major lanes; equation (6)'s i >= T steal term becomes a
    // range split at T, so every inner lane loop is branch-free.
    const double* s0 = x;
    const double* s1 = x + nb;
    const double* s2 = x + 2 * nb;
    const double* sT = x + T * nb;
    for (std::size_t l = 0; l < nb; ++l) dx[l] = 0.0;
    for (std::size_t l = 0; l < nb; ++l) {
      dx[nb + l] = lam * (s0[l] - s1[l]) - (s1[l] - s2[l]) * (1.0 - sT[l]);
    }
    for (std::size_t i = 2; i < T; ++i) {
      const double* sp = x + (i - 1) * nb;
      const double* si = x + i * nb;
      const double* sn = x + (i + 1) * nb;  // i < T < L, so i + 1 is tracked
      double* out = dx + i * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = lam * (sp[l] - si[l]) - (si[l] - sn[l]);
      }
    }
    for (std::size_t i = T; i < L; ++i) {
      const double* sp = x + (i - 1) * nb;
      const double* si = x + i * nb;
      const double* sn = x + (i + 1) * nb;
      double* out = dx + i * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = lam * (sp[l] - si[l]) - (si[l] - sn[l]) -
                 (si[l] - sn[l]) * (s1[l] - s2[l]);
      }
    }
    {
      const double* sp = x + (L - 1) * nb;
      const double* si = x + L * nb;
      double* out = dx + L * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = lam * (sp[l] - si[l]) - (si[l] - 0.0) -
                 (si[l] - 0.0) * (s1[l] - s2[l]);
      }
    }
  });
}

double ThresholdWS::analytic_pi_threshold() const {
  const double b = 1.0 + lambda_;
  const double disc = b * b - 4.0 * std::pow(lambda_, static_cast<double>(threshold_));
  LSM_ASSERT(disc >= 0.0);
  return (b - std::sqrt(disc)) / 2.0;
}

double ThresholdWS::analytic_pi2() const {
  const double x = analytic_pi_threshold();
  return lambda_ * (lambda_ - x) / (1.0 - x);
}

double ThresholdWS::analytic_tail_ratio() const {
  return lambda_ / (1.0 + lambda_ - analytic_pi2());
}

ode::State ThresholdWS::analytic_fixed_point() const {
  const double x = analytic_pi_threshold();
  const double B = 1.0 / (1.0 - x);
  const double A = -lambda_ * x / (1.0 - x);
  const double rho = analytic_tail_ratio();
  ode::State pi(dimension(), 0.0);
  pi[0] = 1.0;
  double lam_pow = lambda_;
  for (std::size_t i = 1; i <= std::min(threshold_, trunc_); ++i) {
    pi[i] = A + B * lam_pow;
    lam_pow *= lambda_;
  }
  for (std::size_t i = threshold_ + 1; i <= trunc_; ++i) {
    pi[i] = pi[i - 1] * rho;
  }
  return pi;
}

double ThresholdWS::analytic_sojourn() const {
  // E[N] = sum_{i=1}^{T-1} (A + B l^i)  +  pi_T / (1 - rho); E[T] = E[N]/l.
  const double x = analytic_pi_threshold();
  const double B = 1.0 / (1.0 - x);
  const double A = -lambda_ * x / (1.0 - x);
  const double rho = analytic_tail_ratio();
  const auto T = static_cast<double>(threshold_);
  const double geo_head =
      lambda_ * (1.0 - std::pow(lambda_, T - 1.0)) / (1.0 - lambda_);
  const double head = A * (T - 1.0) + B * geo_head;
  const double tail = x / (1.0 - rho);
  return (head + tail) / lambda_;
}

}  // namespace lsm::core
