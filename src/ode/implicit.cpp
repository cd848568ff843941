#include "ode/implicit.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "util/error.hpp"
#include "util/failure.hpp"

namespace lsm::ode {

namespace {

// Both FD routines overwrite every band entry of jac, one column at a time,
// and leave its fill rows alone.
void fd_per_column(const OdeSystem& sys, double t, const State& s,
                   double eps, detail::BandedFdScratch& w,
                   BandedMatrix& jac) {
  const std::size_t n = s.size();
  const std::size_t kl = jac.lower();
  const std::size_t ku = jac.upper();
  w.f0.resize(n);
  w.f1.resize(n);
  sys.deriv(t, s, w.f0);
  w.pert = s;
  for (std::size_t j = 0; j < n; ++j) {
    const double h = eps * std::max(1.0, std::abs(s[j]));
    w.pert[j] = s[j] + h;
    sys.deriv(t, w.pert, w.f1);
    w.pert[j] = s[j];
    const double inv_h = 1.0 / h;
    const std::size_t i_lo = j >= ku ? j - ku : 0;
    const std::size_t i_hi = std::min(j + kl, n - 1);
    double* col = jac.column_from(i_lo, j);
    for (std::size_t i = i_lo; i <= i_hi; ++i) {
      *col++ = (w.f1[i] - w.f0[i]) * inv_h;
    }
  }
}

void fd_grouped(const OdeSystem& sys, double t, const State& s, double eps,
                detail::BandedFdScratch& w, BandedMatrix& jac) {
  const std::size_t n = s.size();
  const std::size_t kl = jac.lower();
  const std::size_t ku = jac.upper();
  w.f0.resize(n);
  w.f1.resize(n);
  w.h.resize(n);
  sys.deriv(t, s, w.f0);
  // Columns a full bandwidth apart touch disjoint row ranges, so each
  // group of them shares one perturbed evaluation. Only exact when the
  // Jacobian really is banded.
  const std::size_t groups = kl + ku + 1;
  w.pert = s;
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t j = g; j < n; j += groups) {
      w.h[j] = eps * std::max(1.0, std::abs(s[j]));
      w.pert[j] = s[j] + w.h[j];
    }
    sys.deriv(t, w.pert, w.f1);
    for (std::size_t j = g; j < n; j += groups) {
      const std::size_t i_lo = j >= ku ? j - ku : 0;
      const std::size_t i_hi = std::min(j + kl, n - 1);
      const double inv_h = 1.0 / w.h[j];
      double* col = jac.column_from(i_lo, j);
      for (std::size_t i = i_lo; i <= i_hi; ++i) {
        *col++ = (w.f1[i] - w.f0[i]) * inv_h;
      }
      w.pert[j] = s[j];
    }
  }
}

void fill_fd_jacobian(const OdeSystem& sys, double t, const State& s,
                      FdMode mode, double eps, detail::BandedFdScratch& w,
                      BandedMatrix& jac) {
  if (mode == FdMode::PerColumn) {
    fd_per_column(sys, t, s, eps, w, jac);
  } else {
    fd_grouped(sys, t, s, eps, w, jac);
  }
}

}  // namespace

BandedMatrix banded_fd_jacobian(const OdeSystem& sys, double t,
                                const State& s, std::size_t kl,
                                std::size_t ku, FdMode mode, double eps) {
  LSM_EXPECT(kl < s.size() && ku < s.size(),
             "bandwidths must be below the dimension");
  BandedMatrix jac(s.size(), kl, ku);
  detail::BandedFdScratch scratch;
  fill_fd_jacobian(sys, t, s, mode, eps, scratch, jac);
  return jac;
}

void ImplicitEulerBanded::refresh_jacobian(const OdeSystem& sys, double t,
                                           const State& s) {
  if (!jac_ || jac_->size() != s.size()) {
    jac_.emplace(s.size(), opts_.kl, opts_.ku);
  }
  fill_fd_jacobian(sys, t, s, opts_.fd_mode, kBandedFdEps, fd_, *jac_);
  have_jac_ = true;
  steps_since_jac_ = 0;
}

bool ImplicitEulerBanded::newton_solve(const OdeSystem& sys, double t,
                                       const State& s, double h, State& out) {
  const std::size_t n = s.size();
  const std::size_t kl = opts_.kl;
  const std::size_t ku = opts_.ku;
  // Assemble M = I - h J from the cached Jacobian band, column by column
  // (the fill rows stay zero), and factor it, in the previous step's
  // storage once there is one.
  const auto assemble = [&](BandedMatrix& m) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i_lo = j >= ku ? j - ku : 0;
      const std::size_t i_hi = std::min(j + kl, n - 1);
      const double* jc = jac_->column_from(i_lo, j);
      double* mc = m.column_from(i_lo, j);
      for (std::size_t i = i_lo; i <= i_hi; ++i) {
        *mc++ = (i == j ? 1.0 : 0.0) - h * *jc++;
      }
    }
  };
  if (lu_ && lu_->size() == n) {
    lu_->refactor(assemble);
  } else {
    BandedMatrix m(n, kl, ku);
    assemble(m);
    lu_.emplace(std::move(m));
  }

  out = s;
  double prev_update = 1e300;
  for (std::size_t it = 0; it < opts_.max_newton; ++it) {
    sys.deriv(t + h, out, f_);
    for (std::size_t i = 0; i < n; ++i) {
      residual_[i] = out[i] - s[i] - h * f_[i];
    }
    lu_->solve_into(residual_.data(), delta_.data());
    double update = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] -= delta_[i];
      update = std::max(update, std::abs(delta_[i]));
    }
    if (update < opts_.newton_tol) return true;
    if (it > 1 && update > 0.9 * prev_update) return false;  // not contracting
    prev_update = update;
  }
  return false;
}

bool ImplicitEulerBanded::step(const OdeSystem& sys, double t, State& s,
                               double h) {
  f_.resize(s.size());
  residual_.resize(s.size());
  delta_.resize(s.size());
  const bool stale = have_jac_ && (steps_since_jac_ >= opts_.refresh_every ||
                                   jac_->size() != s.size());
  if (!have_jac_ || stale) refresh_jacobian(sys, t, s);
  if (newton_solve(sys, t, s, h, trial_)) {
    s = trial_;
    sys.project(s);
    ++steps_since_jac_;
    return true;
  }
  // One retry with a fresh Jacobian before reporting failure.
  if (steps_since_jac_ > 0) {
    refresh_jacobian(sys, t, s);
    if (newton_solve(sys, t, s, h, trial_)) {
      s = trial_;
      sys.project(s);
      ++steps_since_jac_;
      return true;
    }
  }
  return false;
}

StiffRelaxResult stiff_relax_to_fixed_point(const OdeSystem& sys, State s0,
                                            const StiffRelaxOptions& opts) {
  LSM_EXPECT(s0.size() == sys.dimension(), "state dimension mismatch");
  const auto wall0 = std::chrono::steady_clock::now();
  const CountingSystem counted(sys);
  ImplicitEulerBanded stepper(opts.implicit);
  State f(s0.size());
  counted.project(s0);
  double h = opts.h0;
  double t = 0.0;
  StiffRelaxResult out;
  out.state = std::move(s0);
  const auto context = [&opts] {
    return opts.label.empty() ? std::string() : " [" + opts.label + "]";
  };
  auto give_up = [&](SolveStatus status, const std::string& why,
                     std::size_t steps) -> StiffRelaxResult {
    out.steps = steps;
    out.rhs_evals = counted.evals();
    out.status = status;
    out.failure = "stiff_relax_to_fixed_point: " + why + context() +
                  ": deriv_norm=" + std::to_string(out.deriv_norm) +
                  " rhs_evals=" + std::to_string(counted.evals());
    if (opts.throw_on_failure) {
      util::Failure fail;
      fail.kind = status == SolveStatus::Diverged
                      ? util::FailureKind::SolverDiverged
                      : util::FailureKind::SolverBudget;
      fail.message = out.failure;
      fail.context = opts.label;
      throw util::FailureError(std::move(fail));
    }
    return std::move(out);
  };

  for (std::size_t step = 0; step < opts.max_steps; ++step) {
    if (opts.max_rhs_evals != 0 && counted.evals() >= opts.max_rhs_evals) {
      return give_up(SolveStatus::BudgetExhausted,
                     "RHS evaluation budget exhausted", step);
    }
    if (opts.max_wall_seconds > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
                .count() >= opts.max_wall_seconds) {
      return give_up(SolveStatus::BudgetExhausted, "wall budget exhausted",
                     step);
    }
    counted.deriv(t, out.state, f);
    out.deriv_norm = norm_linf(f);
    if (out.deriv_norm < opts.deriv_tol) {
      out.steps = step;
      out.rhs_evals = counted.evals();
      return out;
    }
    if (!std::isfinite(out.deriv_norm)) {
      return give_up(SolveStatus::Diverged, "derivative norm is not finite",
                     step);
    }
    if (stepper.step(counted, t, out.state, h)) {
      t += h;
      h = std::min(h * 2.0, opts.h_max);  // pseudo-transient continuation
    } else {
      h *= 0.25;
      stepper.invalidate();
      if (h < 1e-8) {
        return give_up(SolveStatus::Diverged, "step underflow", step);
      }
    }
  }
  return give_up(SolveStatus::BudgetExhausted, "exceeded max_steps",
                 opts.max_steps);
}

}  // namespace lsm::ode
