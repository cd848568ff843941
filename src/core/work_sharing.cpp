#include "core/work_sharing.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace lsm::core {

namespace {
std::size_t pick_truncation(double lambda, std::size_t requested) {
  if (requested != 0) return requested;
  // Below S the profile decays roughly like the M/M/1 tail (ratio about
  // lambda); size for that, like the no-stealing model.
  const double needed =
      lambda > 0.0 ? std::log(1e-13) / std::log(lambda) : 48.0;
  return static_cast<std::size_t>(std::clamp(needed + 8.0, 48.0, 2048.0));
}
}  // namespace

WorkSharingWS::WorkSharingWS(double lambda, std::size_t share_threshold,
                             std::size_t truncation)
    : MeanFieldModel(lambda, pick_truncation(lambda, truncation)),
      threshold_(share_threshold) {
  trunc_explicit_ = truncation != 0;
  LSM_EXPECT(share_threshold >= 1, "sharing threshold must be at least 1");
  LSM_EXPECT(lambda < 1.0, "model is unstable for lambda >= 1");
  LSM_EXPECT(trunc_ > share_threshold + 2,
             "truncation too small for threshold");
}

std::string WorkSharingWS::name() const {
  return "work-sharing(S=" + std::to_string(threshold_) + ")";
}

bool WorkSharingWS::rhs_batch(std::size_t lanes, const double* x,
                              double* dx) const {
  return for_lanes(lanes, [&](auto nb) {
    const std::size_t L = trunc_;
    const double lam = lambda_;  // a local cannot alias dx
    const std::size_t S = threshold_;
    // Rows split at S so the direct-arrival term [i-1 < S] is hoisted out
    // of each inner loop (beyond S it is the exact 0.0 + forwarded sum).
    const double* sS = x + S * nb;
    for (std::size_t l = 0; l < nb; ++l) dx[l] = 0.0;
    for (std::size_t i = 1; i <= S; ++i) {
      const double* sp = x + (i - 1) * nb;
      const double* si = x + i * nb;
      const double* sn = x + (i + 1) * nb;  // i <= S < L - 1, tracked
      double* out = dx + i * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = (lam + lam * sS[l]) * (sp[l] - si[l]) - (si[l] - sn[l]);
      }
    }
    for (std::size_t i = S + 1; i < L; ++i) {
      const double* sp = x + (i - 1) * nb;
      const double* si = x + i * nb;
      const double* sn = x + (i + 1) * nb;
      double* out = dx + i * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = (0.0 + lam * sS[l]) * (sp[l] - si[l]) - (si[l] - sn[l]);
      }
    }
    {
      const double* sp = x + (L - 1) * nb;
      const double* si = x + L * nb;
      double* out = dx + L * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = (0.0 + lam * sS[l]) * (sp[l] - si[l]) - (si[l] - 0.0);
      }
    }
  });
}

double WorkSharingWS::message_rate(const ode::State& s) const {
  LSM_ASSERT(s.size() > threshold_);
  return lambda_ * s[threshold_];
}

double stealing_message_rate(const ode::State& s, double retry_rate) {
  LSM_ASSERT(s.size() >= 3);
  return (s[1] - s[2]) + retry_rate * (s[0] - s[1]);
}

}  // namespace lsm::core
