#include "core/work_sharing.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace lsm::core {

namespace {
/// Unit exponential service's automatic L: below S the profile decays
/// roughly like the M/M/1 tail (ratio about lambda); size for that, like
/// the no-stealing model.
std::size_t unit_truncation(double lambda) {
  const double needed =
      lambda > 0.0 ? std::log(1e-13) / std::log(lambda) : 48.0;
  return static_cast<std::size_t>(std::clamp(needed + 8.0, 48.0, 2048.0));
}
}  // namespace

WorkSharingWS::WorkSharingWS(double lambda, std::size_t share_threshold,
                             std::size_t truncation)
    : WorkSharingWS(lambda, PhaseType::exponential(), share_threshold,
                    truncation) {}

WorkSharingWS::WorkSharingWS(double lambda, PhaseType service,
                             std::size_t share_threshold,
                             std::size_t truncation)
    : PhaseTypeModelBase(lambda, std::move(service), share_threshold,
                         truncation, unit_truncation(lambda)) {
  LSM_EXPECT(share_threshold >= 1, "sharing threshold must be at least 1");
}

std::string WorkSharingWS::name() const {
  return unit_ ? "work-sharing(S=" + std::to_string(threshold_) + ")"
               : "ph-sharing(S=" + std::to_string(threshold_) +
                     ",svc=" + service_.label() + ")";
}

bool WorkSharingWS::rhs_batch(std::size_t lanes, const double* x,
                              double* dx) const {
  return run_kernel(lanes, [&](auto nb, const auto& ph) {
    const std::size_t L = trunc_;
    const std::size_t S = threshold_;
    const std::size_t seg = (L + 1) * nb;  // between phase segments
    const double lam = lambda_;  // a local cannot alias dx
    // Phase 0's head row holds the forwarded stream lambda sum_k u_{S,k}
    // until the heads are written last.
    double* fw = dx;
    for (std::size_t l = 0; l < nb; ++l) {
      fw[l] = lam * ph.total(x + S * nb, seg, l);
    }
    // Rows 2..L: service and arrivals, direct ones only below S (rows
    // i <= S); beyond S the arrival rate is the exact 0.0 + forwarded sum.
    const auto both = [&](std::size_t l) { return lam + fw[l]; };
    const auto forwarded = [&](std::size_t l) { return 0.0 + fw[l]; };
    const std::false_type no;
    detail::tail_rows(nb, ph, x, dx, seg, 2, S + 1, both, nullptr, no, no);
    detail::tail_rows(nb, ph, x, dx, seg, S + 1, L, forwarded, nullptr, no,
                      no);
    detail::tail_rows(nb, ph, x, dx, seg, L, L + 1, forwarded, nullptr, no,
                      std::true_type{});
    // Row 1: direct and forwarded arrivals to idle processors (S >= 1).
    for (std::size_t l = 0; l < nb; ++l) {
      const double idle = ph.idle(x, seg, nb, l);
      const double exits = ph.exits(x + 2 * nb, seg, l);
      for (std::size_t j = 0; j < ph.p; ++j) {
        double d = ph.service(x + nb, seg, l, j, exits);
        d += (lam + fw[l]) * ph.alpha[j] * idle;
        dx[j * seg + nb + l] = d;
      }
    }
    ph.slave_heads(nb, dx, seg);
  });
}

double WorkSharingWS::message_rate(const ode::State& x) const {
  double share_tail = 0.0;
  for (std::size_t k = 0; k < service_.phases(); ++k) {
    share_tail += u(x, threshold_, k);
  }
  return lambda_ * share_tail;
}

double stealing_message_rate(const ode::State& s, double retry_rate) {
  LSM_ASSERT(s.size() >= 3);
  return (s[1] - s[2]) + retry_rate * (s[0] - s[1]);
}

}  // namespace lsm::core
