#include "ode/anderson.hpp"

#include <algorithm>
#include <cmath>

#include "ode/history_qr.hpp"
#include "util/error.hpp"

namespace lsm::ode {

namespace {

/// Fixed-capacity workspace for one AA run. Everything is sized once in
/// the constructor; iterations perform no heap allocations.
class Workspace {
 public:
  Workspace(std::size_t n, std::size_t m)
      : f_(n),
        r_(n),
        xn_(n),
        fn_(n),
        fbest_(n),
        dr_(n),
        qr_(n, m),
        dg_(m, State(n)),
        theta_(m) {}

  std::size_t depth() const noexcept { return qr_.size(); }
  void clear_history() noexcept {
    qr_.clear();
    deficient_ = false;
  }

  /// Appends the newest differences dx = x_new - x_old and
  /// dr = r_new - r_old, dropping the oldest pair once the window is full.
  /// The QR factors follow dr; dg = dx + dr is what the step combines.
  void push_history(const State& x_old, const State& x_new,
                    const State& r_old, const State& r_new) {
    if (qr_.size() == qr_.capacity()) {
      qr_.drop_oldest();
      std::rotate(dg_.begin(), dg_.begin() + 1, dg_.end());
    }
    State& dg = dg_[qr_.size()];
    for (std::size_t i = 0; i < dg.size(); ++i) {
      const double dx = x_new[i] - x_old[i];
      dr_[i] = r_new[i] - r_old[i];
      dg[i] = dx + dr_[i];
    }
    if (!qr_.push(dr_, &r_new)) deficient_ = true;
  }

  /// Least squares min_theta ||r - DR theta||_2 from the updated QR of the
  /// history. Returns false once a pushed column was numerically dependent
  /// on the kept ones (caller should restart).
  bool solve_theta(const State& r) {
    if (deficient_) return false;
    qr_.solve(r, theta_.data());
    return true;
  }

  /// xn = x + r - sum_j theta_j (dx_j + dr_j)
  void accelerated_step(const State& x, const State& r, State& xn) const {
    detail::extrapolate(x, r, dg_, theta_.data(), qr_.size(), xn);
  }

  State f_, r_, xn_, fn_, fbest_;

 private:
  State dr_;
  detail::HistoryQr qr_;
  std::vector<State> dg_;  // dx + dr per history column, oldest first
  std::vector<double> theta_;
  bool deficient_ = false;
};

}  // namespace

AndersonResult anderson_fixed_point(const OdeSystem& sys, State s0,
                                    const AndersonOptions& opts) {
  LSM_EXPECT(s0.size() == sys.dimension(), "initial state has wrong dimension");
  LSM_EXPECT(opts.depth >= 1, "Anderson depth must be at least 1");
  LSM_EXPECT(opts.gamma > 0.0, "Picard damping must be positive");

  const CountingSystem counted(sys);
  const std::size_t n = s0.size();
  Workspace w(n, opts.depth);
  const double gamma_min = opts.gamma / 64.0;
  double gamma = opts.gamma;

  AndersonResult out;
  counted.project(s0);
  out.state = s0;  // best-so-far
  State x = std::move(s0);
  counted.deriv(0.0, x, w.f_);
  double norm = norm_linf(w.f_);
  out.residual_norm = norm;
  w.fbest_ = w.f_;
  std::size_t bad_streak = 0;
  std::size_t since_best = 0;

  for (std::size_t k = 0; k < opts.max_iter; ++k) {
    if (norm < opts.tol) {
      out.state = x;
      out.residual_norm = norm;
      out.converged = true;
      break;
    }
    if (norm > opts.divergence_factor * (out.residual_norm + opts.tol)) {
      break;  // hopeless: hand the best iterate to the fallback path
    }
    if (since_best > opts.stall_patience) {
      break;  // orbiting the residual floor: stop burning evaluations
    }

    for (std::size_t i = 0; i < n; ++i) w.r_[i] = gamma * w.f_[i];
    const bool plain = k < opts.warmup || w.depth() == 0;
    if (plain) {
      for (std::size_t i = 0; i < n; ++i) w.xn_[i] = x[i] + w.r_[i];
    } else if (w.solve_theta(w.r_)) {
      w.accelerated_step(x, w.r_, w.xn_);
    } else {
      // Rank-deficient history: restart with a plain damped step.
      w.clear_history();
      ++out.restarts;
      for (std::size_t i = 0; i < n; ++i) w.xn_[i] = x[i] + w.r_[i];
    }
    counted.project(w.xn_);
    counted.deriv(0.0, w.xn_, w.fn_);
    const double norm_next = norm_linf(w.fn_);
    ++out.iterations;

    if (plain && norm_next > norm && gamma > gamma_min) {
      // The damped map is locally expansive at this gamma: back off and
      // retry from the same iterate (history is stale once gamma moves).
      gamma *= 0.5;
      w.clear_history();
      continue;
    }

    // Accept the step and extend the difference history. Reuse f_ to hold
    // r_old = gamma f(x) (f(x) is not needed past this point) and r_ for
    // r_new = gamma f(xn).
    for (std::size_t i = 0; i < n; ++i) w.f_[i] = gamma * w.f_[i];
    for (std::size_t i = 0; i < n; ++i) w.r_[i] = gamma * w.fn_[i];
    w.push_history(x, w.xn_, w.f_, w.r_);
    x.swap(w.xn_);
    w.f_.swap(w.fn_);

    if (norm_next < out.residual_norm) {
      out.state = x;
      out.residual_norm = norm_next;
      w.fbest_ = w.f_;
      since_best = 0;
    } else {
      ++since_best;
    }
    if (norm_next > norm) {
      if (++bad_streak > opts.restart_patience) {
        // A run of non-monotone residuals: restart from the best iterate.
        w.clear_history();
        ++out.restarts;
        bad_streak = 0;
        x = out.state;
        w.f_ = w.fbest_;
        norm = out.residual_norm;
        continue;
      }
    } else {
      bad_streak = 0;
    }
    norm = norm_next;
  }

  if (!out.converged && norm < opts.tol) {
    // max_iter landed exactly on a converged iterate.
    out.state = x;
    out.residual_norm = norm;
    out.converged = true;
  }
  out.rhs_evals = counted.evals();
  return out;
}

}  // namespace lsm::ode
