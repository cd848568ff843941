#include "core/multi_steal_ws.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace lsm::core {

MultiStealWS::MultiStealWS(double lambda, std::size_t steal_count,
                           std::size_t threshold, std::size_t truncation)
    : MeanFieldModel(lambda, truncation != 0
                                 ? truncation
                                 : default_truncation(lambda) + threshold),
      k_(steal_count),
      threshold_(threshold) {
  trunc_explicit_ = truncation != 0;
  LSM_EXPECT(steal_count >= 1, "must steal at least one task");
  LSM_EXPECT(threshold >= 2, "steal threshold must be at least 2");
  LSM_EXPECT(2 * steal_count <= threshold,
             "paper requires k <= T/2 so victims stay ahead of thieves");
  LSM_EXPECT(lambda < 1.0, "model is unstable for lambda >= 1");
  LSM_EXPECT(trunc_ > threshold + steal_count + 2,
             "truncation too small for T + k");
}

std::string MultiStealWS::name() const {
  return "multi-steal-ws(k=" + std::to_string(k_) +
         ",T=" + std::to_string(threshold_) + ")";
}

bool MultiStealWS::rhs_batch(std::size_t lanes, const double* x,
                             double* dx) const {
  return for_lanes(lanes, [&](auto nb) {
    const std::size_t L = trunc_;
    const double lam = lambda_;  // a local cannot alias dx
    const std::size_t T = threshold_;
    const std::size_t k = k_;
    // The recurrence's i <= k / i + k > T cases become disjoint i-ranges
    // (k <= T/2 and L >= T + k + 3 keep them non-overlapping and in-bounds),
    // so every inner lane loop is branch-free.
    const double* s1 = x + nb;
    const double* s2 = x + 2 * nb;
    const double* sT = x + T * nb;
    for (std::size_t l = 0; l < nb; ++l) dx[l] = 0.0;
    for (std::size_t l = 0; l < nb; ++l) {
      dx[nb + l] = lam * (x[l] - s1[l]) - (s1[l] - s2[l]) * (1.0 - sT[l]);
    }
    // 2 <= i <= k: a successful steal lifts the thief across these levels.
    for (std::size_t i = 2; i <= k; ++i) {
      const double* sp = x + (i - 1) * nb;
      const double* si = x + i * nb;
      const double* sn = x + (i + 1) * nb;
      double* out = dx + i * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = lam * (sp[l] - si[l]) - (si[l] - sn[l]) +
                 (s1[l] - s2[l]) * sT[l];
      }
    }
    // k + 1 <= i <= T - k: untouched by steals.
    for (std::size_t i = std::max<std::size_t>(2, k + 1); i <= T - k; ++i) {
      const double* sp = x + (i - 1) * nb;
      const double* si = x + i * nb;
      const double* sn = x + (i + 1) * nb;
      double* out = dx + i * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = lam * (sp[l] - si[l]) - (si[l] - sn[l]);
      }
    }
    // T - k + 1 <= i <= T - 1: victim drop with lo pinned at s_T.
    for (std::size_t i = T - k + 1; i < T; ++i) {
      const double* sp = x + (i - 1) * nb;
      const double* si = x + i * nb;
      const double* sn = x + (i + 1) * nb;
      const double* hi = x + (i + k) * nb;  // i + k <= T + k - 1 < L
      double* out = dx + i * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = lam * (sp[l] - si[l]) - (si[l] - sn[l]) -
                 (s1[l] - s2[l]) * (sT[l] - hi[l]);
      }
    }
    // T <= i <= L - k: victim drop with lo = s_i, hi tracked.
    for (std::size_t i = T; i + k <= L; ++i) {
      const double* sp = x + (i - 1) * nb;
      const double* si = x + i * nb;
      const double* sn = x + (i + 1) * nb;
      const double* hi = x + (i + k) * nb;
      double* out = dx + i * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = lam * (sp[l] - si[l]) - (si[l] - sn[l]) -
                 (s1[l] - s2[l]) * (si[l] - hi[l]);
      }
    }
    // L - k < i < L: hi beyond the truncation (treated as 0).
    for (std::size_t i = L - k + 1; i < L; ++i) {
      const double* sp = x + (i - 1) * nb;
      const double* si = x + i * nb;
      const double* sn = x + (i + 1) * nb;
      double* out = dx + i * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = lam * (sp[l] - si[l]) - (si[l] - sn[l]) -
                 (s1[l] - s2[l]) * (si[l] - 0.0);
      }
    }
    {
      const double* sp = x + (L - 1) * nb;
      const double* si = x + L * nb;
      double* out = dx + L * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = lam * (sp[l] - si[l]) - (si[l] - 0.0) -
                 (s1[l] - s2[l]) * (si[l] - 0.0);
      }
    }
  });
}

}  // namespace lsm::core
