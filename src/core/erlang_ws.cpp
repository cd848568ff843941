#include "core/erlang_ws.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace lsm::core {

namespace {
std::size_t pick_truncation(double lambda, std::size_t stages,
                            std::size_t requested) {
  if (requested != 0) return requested;
  // Size in whole tasks using the exponential-service tail ratio as an
  // upper bound (constant service decays faster; Section 3.1 / Table 2).
  const double pi2 = simple_ws_pi2(std::min(lambda, 0.999));
  const double rho = lambda / (1.0 + lambda - pi2);
  const double tasks_needed = std::log(1e-12) / std::log(rho);
  const auto tasks = static_cast<std::size_t>(
      std::clamp(tasks_needed + 6.0, 24.0, 400.0));
  return stages * (tasks + 1);
}
}  // namespace

ErlangServiceWS::ErlangServiceWS(double lambda, std::size_t stages,
                                 std::size_t truncation)
    : MeanFieldModel(lambda, pick_truncation(lambda, stages, truncation)),
      stages_(stages) {
  trunc_explicit_ = truncation != 0;
  LSM_EXPECT(stages >= 1, "need at least one service stage");
  LSM_EXPECT(lambda < 1.0, "model is unstable for lambda >= 1");
  LSM_EXPECT(trunc_ >= 3 * stages, "truncation must cover several tasks");
}

std::string ErlangServiceWS::name() const {
  return "erlang-ws(c=" + std::to_string(stages_) + ")";
}

bool ErlangServiceWS::rhs_batch(std::size_t lanes, const double* x,
                                double* dx) const {
  return for_lanes(lanes, [&](auto nb) {
    const std::size_t L = trunc_;
    const std::size_t c = stages_;
    const double lam = lambda_;  // a local cannot alias dx
    const auto mu = static_cast<double>(c);  // per-stage completion rate
    // Rows split where s_{i+c} leaves the tracked range (L >= 3c keeps
    // rows 1..c inside it); finishers s_1 - s_2 are the processors on
    // their final stage.
    const double* s0 = x;
    const double* s1 = x + nb;
    const double* s2 = x + 2 * nb;
    const double* sc1 = x + (c + 1) * nb;
    for (std::size_t l = 0; l < nb; ++l) dx[l] = 0.0;
    for (std::size_t l = 0; l < nb; ++l) {
      dx[nb + l] = lam * (s0[l] - s1[l]) - mu * (s1[l] - s2[l]) * (1.0 - sc1[l]);
    }
    for (std::size_t i = 2; i <= c; ++i) {
      const double* si = x + i * nb;
      const double* sn = x + (i + 1) * nb;
      const double* sic = x + (i + c) * nb;
      double* out = dx + i * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = lam * (s0[l] - si[l]) + mu * (s1[l] - s2[l]) * sic[l] -
                 mu * (si[l] - sn[l]);
      }
    }
    for (std::size_t i = c + 1; i <= L - c; ++i) {
      const double* sb = x + (i - c) * nb;
      const double* si = x + i * nb;
      const double* sn = x + (i + 1) * nb;
      const double* sic = x + (i + c) * nb;
      double* out = dx + i * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = lam * (sb[l] - si[l]) - mu * (si[l] - sn[l]) -
                 mu * (si[l] - sic[l]) * (s1[l] - s2[l]);
      }
    }
    for (std::size_t i = L - c + 1; i <= L; ++i) {
      const double* sb = x + (i - c) * nb;
      const double* si = x + i * nb;
      double* out = dx + i * nb;
      if (i < L) {
        const double* sn = x + (i + 1) * nb;
        for (std::size_t l = 0; l < nb; ++l) {
          out[l] = lam * (sb[l] - si[l]) - mu * (si[l] - sn[l]) -
                   mu * (si[l] - 0.0) * (s1[l] - s2[l]);
        }
      } else {
        for (std::size_t l = 0; l < nb; ++l) {
          out[l] = lam * (sb[l] - si[l]) - mu * (si[l] - 0.0) -
                   mu * (si[l] - 0.0) * (s1[l] - s2[l]);
        }
      }
    }
  });
}

double ErlangServiceWS::mean_tasks(const ode::State& s) const {
  LSM_ASSERT(s.size() == trunc_ + 1);
  double acc = 0.0;
  // ceil(stages/c) tasks: sum P(stages >= kc + 1) over k >= 0.
  for (std::size_t i = 1; i <= trunc_; i += stages_) acc += s[i];
  return acc;
}

}  // namespace lsm::core
