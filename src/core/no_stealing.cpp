#include "core/no_stealing.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace lsm::core {

namespace {
std::size_t pick_truncation(double lambda, std::size_t requested) {
  if (requested != 0) return requested;
  // Without stealing the tail ratio is lambda itself, slower than any
  // stealing variant; size L directly from it.
  if (lambda <= 0.0) return 48;
  const double needed = std::log(1e-13) / std::log(lambda);
  return static_cast<std::size_t>(std::clamp(needed + 8.0, 48.0, 2048.0));
}
}  // namespace

NoStealing::NoStealing(double lambda, std::size_t truncation)
    : MeanFieldModel(lambda, pick_truncation(lambda, truncation)) {
  trunc_explicit_ = truncation != 0;
  LSM_EXPECT(lambda < 1.0, "no-stealing model is unstable for lambda >= 1");
}

bool NoStealing::rhs_batch(std::size_t lanes, const double* x,
                           double* dx) const {
  return for_lanes(lanes, [&](auto nb) {
    const std::size_t L = trunc_;
    const double lam = lambda_;  // a local cannot alias dx
    // Component-major lanes; deriv() is the one-lane call.
    for (std::size_t l = 0; l < nb; ++l) dx[l] = 0.0;
    for (std::size_t i = 1; i < L; ++i) {
      const double* sp = x + (i - 1) * nb;
      const double* si = x + i * nb;
      const double* sn = x + (i + 1) * nb;
      double* out = dx + i * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = lam * (sp[l] - si[l]) - (si[l] - sn[l]);
      }
    }
    {
      const double* sp = x + (L - 1) * nb;
      const double* si = x + L * nb;
      double* out = dx + L * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = lam * (sp[l] - si[l]) - (si[l] - 0.0);
      }
    }
  });
}

ode::State NoStealing::analytic_fixed_point() const { return mm1_state(); }

double NoStealing::analytic_sojourn() const { return 1.0 / (1.0 - lambda_); }

}  // namespace lsm::core
