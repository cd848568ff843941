#include "core/threshold_ws.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace lsm::core {

namespace {
/// Unit exponential service's automatic L: stealing sizes from simple
/// stealing's tail ratio, plus T. Without stealing the tail ratio is
/// lambda itself, slower than any stealing variant; size L directly from
/// it.
std::size_t unit_truncation(double lambda, std::size_t threshold) {
  if (threshold > 0) return default_truncation(lambda) + threshold;
  if (lambda <= 0.0) return 48;
  const double needed = std::log(1e-13) / std::log(lambda);
  return static_cast<std::size_t>(std::clamp(needed + 8.0, 48.0, 2048.0));
}
}  // namespace

ThresholdWS::ThresholdWS(double lambda, std::size_t threshold,
                         std::size_t truncation)
    : ThresholdWS(lambda, PhaseType::exponential(), threshold, truncation) {}

ThresholdWS::ThresholdWS(double lambda, PhaseType service,
                         std::size_t threshold, std::size_t truncation)
    : PhaseTypeModelBase(lambda, std::move(service), threshold, truncation,
                         unit_truncation(lambda, threshold)) {
  LSM_EXPECT(threshold != 1, "steal threshold must be 0 (off) or >= 2");
}

std::string ThresholdWS::name() const {
  if (unit_) {
    return threshold_ == 0 ? "no-stealing"
                           : "threshold-ws(T=" + std::to_string(threshold_) +
                                 ")";
  }
  return threshold_ == 0 ? "ph-queue(svc=" + service_.label() + ")"
                         : "ph-ws(T=" + std::to_string(threshold_) +
                               ",svc=" + service_.label() + ")";
}

bool ThresholdWS::rhs_batch(std::size_t lanes, const double* x,
                            double* dx) const {
  return run_kernel(lanes, [&](auto nb, const auto& ph) {
    const std::size_t L = trunc_;
    const std::size_t T = threshold_;
    const std::size_t seg = (L + 1) * nb;  // between phase segments
    const double lam = lambda_;  // a local cannot alias dx
    // Phase 0's head row holds R, the rate of processors completing their
    // final task, until the heads are written last.
    double* R = dx;
    if (T > 0) {
      for (std::size_t l = 0; l < nb; ++l) R[l] = ph.drain(x + nb, seg, nb, l);
    }
    // Rows 2..L: service, arrivals, and for i >= T steal victims (a range
    // split at T, so every inner lane loop is branch-free).
    const auto arrival = [lam](std::size_t) { return lam; };
    const std::true_type yes;
    const std::false_type no;
    if (T == 0) {
      detail::tail_rows(nb, ph, x, dx, seg, 2, L, arrival, R, no, no);
      detail::tail_rows(nb, ph, x, dx, seg, L, L + 1, arrival, R, no, yes);
    } else {
      detail::tail_rows(nb, ph, x, dx, seg, 2, T, arrival, R, no, no);
      detail::tail_rows(nb, ph, x, dx, seg, T, L, arrival, R, yes, no);
      detail::tail_rows(nb, ph, x, dx, seg, L, L + 1, arrival, R, yes, yes);
    }
    // Row 1: arrivals to idle processors and successful thieves start a
    // task in phase alpha_j (T >= 2, so no victims leave row 1).
    for (std::size_t l = 0; l < nb; ++l) {
      const double idle = ph.idle(x, seg, nb, l);
      double success = 0.0;  // s_T: victims holding >= T tasks
      if (T > 0) success = ph.total(x + T * nb, seg, l);
      const double exits = ph.exits(x + 2 * nb, seg, l);
      for (std::size_t j = 0; j < ph.p; ++j) {
        const double arrive = lam * ph.alpha[j] * idle;
        dx[j * seg + nb + l] =
            T > 0 ? ph.steal_row1(x + nb, seg, l, j, exits, arrive, R[l],
                                  success)
                  : ph.service(x + nb, seg, l, j, exits) + arrive;
      }
    }
    ph.slave_heads(nb, dx, seg);
  });
}

double ThresholdWS::analytic_pi_threshold() const {
  LSM_EXPECT(unit_ && threshold_ >= 2,
             "closed form only for stealing under unit exponential service");
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

ode::State NoStealing::analytic_fixed_point() const {
  LSM_EXPECT(unit_, "closed form only under unit exponential service");
  return mm1_state();
}

double NoStealing::analytic_sojourn() const {
  const double rho = lambda_ * service_.mean();
  return service_.mean() + lambda_ * service_.moment2() / (2.0 * (1.0 - rho));
}

}  // namespace lsm::core
