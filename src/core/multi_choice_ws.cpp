#include "core/multi_choice_ws.hpp"

#include <cmath>

#include "util/error.hpp"

namespace lsm::core {

namespace {
double int_pow(double x, std::size_t d) {
  double acc = 1.0;
  for (std::size_t k = 0; k < d; ++k) acc *= x;
  return acc;
}
}  // namespace

MultiChoiceWS::MultiChoiceWS(double lambda, std::size_t choices,
                             std::size_t threshold, std::size_t truncation)
    : MeanFieldModel(lambda, truncation != 0
                                 ? truncation
                                 : default_truncation(lambda) + threshold),
      choices_(choices),
      threshold_(threshold) {
  trunc_explicit_ = truncation != 0;
  LSM_EXPECT(choices >= 1, "need at least one victim choice");
  LSM_EXPECT(threshold >= 2, "steal threshold must be at least 2");
  LSM_EXPECT(lambda < 1.0, "model is unstable for lambda >= 1");
  LSM_EXPECT(trunc_ > threshold + 2, "truncation too small for threshold");
}

std::string MultiChoiceWS::name() const {
  return "multi-choice-ws(d=" + std::to_string(choices_) +
         ",T=" + std::to_string(threshold_) + ")";
}

bool MultiChoiceWS::rhs_batch(std::size_t lanes, const double* x,
                              double* dx) const {
  return for_lanes(lanes, [&](auto nb) {
    const std::size_t L = trunc_;
    const double lam = lambda_;  // a local cannot alias dx
    const std::size_t T = threshold_;
    const std::size_t d = choices_;
    // Rows split at T so the victim-probability evaluation is hoisted out
    // of the plain inner loops. Rows i >= T first hold the powers
    // (1 - s_i)^d, so each d-fold product is computed once, not twice.
    const double* s1 = x + nb;
    const double* s2 = x + 2 * nb;
    const double* sT = x + T * nb;
    for (std::size_t l = 0; l < nb; ++l) dx[l] = 0.0;
    for (std::size_t l = 0; l < nb; ++l) {
      const double fail_prob = int_pow(1.0 - sT[l], d);
      dx[nb + l] = lam * (x[l] - s1[l]) - (s1[l] - s2[l]) * fail_prob;
    }
    for (std::size_t i = 2; i < T; ++i) {
      const double* sp = x + (i - 1) * nb;
      const double* si = x + i * nb;
      const double* sn = x + (i + 1) * nb;  // i < T < L, tracked
      double* out = dx + i * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = lam * (sp[l] - si[l]) - (si[l] - sn[l]);
      }
    }
    for (std::size_t i = T; i <= L; ++i) {
      const double* si = x + i * nb;
      double* out = dx + i * nb;
      for (std::size_t l = 0; l < nb; ++l) out[l] = int_pow(1.0 - si[l], d);
    }
    // Row i reads its own power and row i + 1's before overwriting its own.
    for (std::size_t i = T; i < L; ++i) {
      const double* sp = x + (i - 1) * nb;
      const double* si = x + i * nb;
      const double* sn = x + (i + 1) * nb;
      double* out = dx + i * nb;
      const double* pow_next = out + nb;
      for (std::size_t l = 0; l < nb; ++l) {
        const double victim_prob = pow_next[l] - out[l];
        out[l] = lam * (sp[l] - si[l]) - (si[l] - sn[l]) -
                 victim_prob * (s1[l] - s2[l]);
      }
    }
    {
      const double* sp = x + (L - 1) * nb;
      const double* si = x + L * nb;
      double* out = dx + L * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        const double victim_prob = int_pow(1.0 - 0.0, d) - out[l];
        out[l] = lam * (sp[l] - si[l]) - (si[l] - 0.0) -
                 victim_prob * (s1[l] - s2[l]);
      }
    }
  });
}

double MultiChoiceWS::tail_ratio_bound(const ode::State& pi) const {
  LSM_ASSERT(pi.size() >= 3);
  return lambda_ /
         (1.0 + static_cast<double>(choices_) * (lambda_ - pi[2]));
}

}  // namespace lsm::core
