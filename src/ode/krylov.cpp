#include "ode/krylov.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "ode/banded.hpp"
#include "ode/linalg.hpp"
#include "util/error.hpp"

namespace lsm::ode {

namespace {

double norm2(const double* v, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += v[i] * v[i];
  return std::sqrt(acc);
}

double dot(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace

void GmresWorkspace::ensure(std::size_t n, std::size_t restart) {
  if (n == n_ && restart == m_) return;
  n_ = n;
  m_ = restart;
  basis.assign((restart + 1) * n, 0.0);
  hess.assign(restart * (restart + 1), 0.0);
  cs.assign(restart, 0.0);
  sn.assign(restart, 0.0);
  g.assign(restart + 1, 0.0);
  y.assign(restart, 0.0);
  w.assign(n, 0.0);
  z.assign(n, 0.0);
  r.assign(n, 0.0);
}

GmresResult gmres(const LinearOperator& op, const double* b, double* x,
                  const GmresOptions& opts, GmresWorkspace& ws,
                  const LinearOperator* right_precond) {
  const std::size_t n = op.size();
  const std::size_t m = std::max<std::size_t>(1, opts.restart);
  ws.ensure(n, m);
  GmresResult out;
  double prev_cycle = std::numeric_limits<double>::infinity();
  bool first_cycle = true;

  for (;;) {
    // True residual r = b - A x (also the un-preconditioned one: right
    // preconditioning keeps the residual in the original variables).
    op.apply(x, ws.r.data());
    for (std::size_t i = 0; i < n; ++i) ws.r[i] = b[i] - ws.r[i];
    const double beta = norm2(ws.r.data(), n);
    out.residual = beta;
    // A non-finite residual means the operator or preconditioner blew up
    // (e.g. a near-singular aliased chord); iterating on NaN cannot recover.
    if (!std::isfinite(beta)) return out;
    if (beta <= opts.tol) {
      out.converged = true;
      return out;
    }
    if (out.iterations >= opts.max_iters) return out;
    if (!first_cycle) {
      // Singular or hopelessly ill-conditioned systems plateau; a cycle
      // that failed to make real progress will not be saved by another.
      if (beta > opts.stagnation_factor * prev_cycle) {
        out.stagnated = true;
        return out;
      }
      ++out.restarts;
    }
    first_cycle = false;
    prev_cycle = beta;

    const double inv_beta = 1.0 / beta;
    double* v0 = ws.basis.data();
    for (std::size_t i = 0; i < n; ++i) v0[i] = ws.r[i] * inv_beta;
    ws.g[0] = beta;

    std::size_t cols = 0;
    for (std::size_t j = 0; j < m && out.iterations < opts.max_iters; ++j) {
      ++out.iterations;
      const double* vj = ws.basis.data() + j * n;
      double* w = ws.w.data();
      if (right_precond != nullptr) {
        right_precond->apply(vj, ws.z.data());
        op.apply(ws.z.data(), w);
      } else {
        op.apply(vj, w);
      }
      // Modified Gram-Schmidt against the basis so far.
      double* hcol = ws.hess.data() + j * (m + 1);
      for (std::size_t i = 0; i <= j; ++i) {
        const double* vi = ws.basis.data() + i * n;
        const double hij = dot(w, vi, n);
        hcol[i] = hij;
        for (std::size_t k = 0; k < n; ++k) w[k] -= hij * vi[k];
      }
      const double hnext = norm2(w, n);
      hcol[j + 1] = hnext;
      // Previously accumulated Givens rotations, then a new one zeroing
      // the subdiagonal; |g[j+1]| tracks the least-squares residual.
      for (std::size_t i = 0; i < j; ++i) {
        const double t = ws.cs[i] * hcol[i] + ws.sn[i] * hcol[i + 1];
        hcol[i + 1] = -ws.sn[i] * hcol[i] + ws.cs[i] * hcol[i + 1];
        hcol[i] = t;
      }
      const double denom = std::hypot(hcol[j], hcol[j + 1]);
      const double c = denom > 0.0 ? hcol[j] / denom : 1.0;
      const double s = denom > 0.0 ? hcol[j + 1] / denom : 0.0;
      ws.cs[j] = c;
      ws.sn[j] = s;
      hcol[j] = c * hcol[j] + s * hcol[j + 1];
      hcol[j + 1] = 0.0;
      ws.g[j + 1] = -s * ws.g[j];
      ws.g[j] = c * ws.g[j];
      cols = j + 1;
      const double res_est = std::abs(ws.g[j + 1]);
      // Happy breakdown (the Krylov space became invariant) or target hit:
      // stop the cycle without manufacturing the next basis vector.
      if (res_est <= opts.tol || hnext < 1e-300) break;
      double* vnext = ws.basis.data() + (j + 1) * n;
      const double inv_h = 1.0 / hnext;
      for (std::size_t k = 0; k < n; ++k) vnext[k] = w[k] * inv_h;
    }

    // Back-substitute R y = g on the rotated Hessenberg, then update
    // x += M^-1 V y (V y for the unpreconditioned run).
    for (std::size_t ii = cols; ii-- > 0;) {
      double acc = ws.g[ii];
      for (std::size_t jj = ii + 1; jj < cols; ++jj) {
        acc -= ws.hess[jj * (m + 1) + ii] * ws.y[jj];
      }
      const double diag = ws.hess[ii * (m + 1) + ii];
      ws.y[ii] = diag != 0.0 ? acc / diag : 0.0;
    }
    std::fill(ws.z.begin(), ws.z.end(), 0.0);
    for (std::size_t k = 0; k < cols; ++k) {
      const double yk = ws.y[k];
      const double* vk = ws.basis.data() + k * n;
      for (std::size_t i = 0; i < n; ++i) ws.z[i] += yk * vk[i];
    }
    if (right_precond != nullptr) {
      right_precond->apply(ws.z.data(), ws.w.data());
      for (std::size_t i = 0; i < n; ++i) x[i] += ws.w[i];
    } else {
      for (std::size_t i = 0; i < n; ++i) x[i] += ws.z[i];
    }
  }
}

JacobianOperator::JacobianOperator(const OdeSystem& sys, double fd_eps)
    : sys_(sys),
      eps_(fd_eps),
      pert_(sys.dimension()),
      f_pert_(sys.dimension()) {}

void JacobianOperator::rebase(const State& s, const State& f) {
  LSM_ASSERT(s.size() == sys_.dimension() && f.size() == sys_.dimension());
  s_ = &s;
  f_ = &f;
  scale_ = 1.0 + norm_linf(s);
}

void JacobianOperator::apply(const double* v, double* y) const {
  LSM_EXPECT(s_ != nullptr, "JacobianOperator: apply before rebase");
  const std::size_t n = sys_.dimension();
  double vmax = 0.0;
  for (std::size_t i = 0; i < n; ++i) vmax = std::max(vmax, std::abs(v[i]));
  if (vmax == 0.0) {
    for (std::size_t i = 0; i < n; ++i) y[i] = 0.0;
    return;
  }
  const double h = eps_ * scale_ / vmax;
  const State& s = *s_;
  const State& f = *f_;
  for (std::size_t i = 0; i < n; ++i) pert_[i] = s[i] + h * v[i];
  sys_.deriv(0.0, pert_, f_pert_);
  const double inv_h = 1.0 / h;
  for (std::size_t i = 0; i < n; ++i) y[i] = (f_pert_[i] - f[i]) * inv_h;
}

namespace {

class DenseLuOperator final : public LinearOperator {
 public:
  explicit DenseLuOperator(const LuSolver& lu) : lu_(lu) {}
  void apply(const double* x, double* y) const override {
    lu_.solve_into(x, y);
  }
  [[nodiscard]] std::size_t size() const override { return lu_.size(); }

 private:
  const LuSolver& lu_;
};

class BandedLuOperator final : public LinearOperator {
 public:
  explicit BandedLuOperator(const BandedLuSolver& lu) : lu_(lu) {}
  void apply(const double* x, double* y) const override {
    lu_.solve_into(x, y);
  }
  [[nodiscard]] std::size_t size() const override { return lu_.size(); }

 private:
  const BandedLuSolver& lu_;
};

}  // namespace

NewtonKrylovResult newton_krylov_fixed_point(const OdeSystem& sys, State s0,
                                             const NewtonKrylovOptions& opts,
                                             NewtonWorkspace* precond_reuse) {
  const std::size_t n = sys.dimension();
  LSM_EXPECT(s0.size() == n, "initial state has wrong dimension");
  const auto t0 = std::chrono::steady_clock::now();
  const CountingSystem counted(sys);

  NewtonKrylovResult res;
  res.state = std::move(s0);
  State f(n), trial(n), f_trial(n), rhs(n), delta(n);
  counted.deriv(0.0, res.state, f);
  res.residual_norm = norm_linf(f);

  JacobianOperator jac(counted, opts.fd_eps);
  GmresWorkspace gws;
  const bool dense_pc =
      opts.dense_precond_max_dim > 0 && n <= opts.dense_precond_max_dim;
  const std::size_t bw = opts.banded_precond_bandwidth;
  const bool banded_pc = !dense_pc && bw > 0 && bw < n;
  // Without a caller's workspace the chords live for this solve only.
  NewtonWorkspace own_ws;
  NewtonWorkspace& chord_ws =
      precond_reuse != nullptr ? *precond_reuse : own_ws;
  // A factorization taken at the CURRENT iterate; a stale chord that stops
  // helping is dropped and rebuilt here before the solve gives up.
  bool precond_fresh = false;
  double prev_norm = std::numeric_limits<double>::infinity();

  auto out_of_budget = [&] {
    if (opts.max_rhs_evals != 0 && counted.evals() >= opts.max_rhs_evals) {
      return true;
    }
    if (opts.max_wall_seconds > 0.0) {
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
      if (elapsed >= opts.max_wall_seconds) return true;
    }
    return false;
  };

  for (std::size_t iter = 0; iter < opts.max_iter; ++iter) {
    if (res.residual_norm < opts.tol) {
      res.converged = true;
      break;
    }
    if (out_of_budget()) {
      res.budget_exhausted = true;
      break;
    }
    ++res.iterations;

    // Chord preconditioner: reuse whatever is at hand, build lazily. A
    // failed build (singular chord) just runs the solve unpreconditioned.
    const LuSolver* dense_lu = nullptr;
    const BandedLuSolver* banded_lu = nullptr;
    if (dense_pc) {
      dense_lu = detail::cached_lu(chord_ws, n);
      if (dense_lu == nullptr) {
        try {
          detail::cache_lu(chord_ws,
                           detail::factor_fd_jacobian(
                               counted, res.state, f, opts.fd_eps,
                               /*regularize_zero_rows=*/true),
                           n);
          ++res.jacobian_builds;
          precond_fresh = true;
          dense_lu = detail::cached_lu(chord_ws, n);
        } catch (const util::Error&) {
          dense_lu = nullptr;
        }
      }
    } else if (banded_pc) {
      banded_lu = detail::cached_banded(chord_ws, n);
      if (banded_lu == nullptr) {
        try {
          banded_lu = detail::build_banded_chord(chord_ws, counted, res.state,
                                                 bw, opts.fd_eps);
          ++res.jacobian_builds;
          precond_fresh = true;
        } catch (const util::Error&) {
          banded_lu = nullptr;
        }
      }
    }

    // Inner solve J delta = -f to the Eisenstat-Walker forcing target:
    // loose while far away, tightening quadratically as the outer
    // iteration converges, so early Newton steps stay cheap.
    jac.rebase(res.state, f);
    double eta = opts.forcing_max;
    if (iter > 0 && prev_norm > 0.0) {
      const double ratio = res.residual_norm / prev_norm;
      eta = std::clamp(0.9 * ratio * ratio, opts.forcing_min,
                       opts.forcing_max);
    }
    GmresOptions gopts = opts.gmres;
    gopts.tol = std::max(eta * norm2(f.data(), n), 1e-306);
    for (std::size_t i = 0; i < n; ++i) {
      rhs[i] = -f[i];
      delta[i] = 0.0;
    }
    GmresResult inner;
    if (dense_lu != nullptr) {
      const DenseLuOperator pc(*dense_lu);
      inner = gmres(jac, rhs.data(), delta.data(), gopts, gws, &pc);
    } else if (banded_lu != nullptr) {
      const BandedLuOperator pc(*banded_lu);
      inner = gmres(jac, rhs.data(), delta.data(), gopts, gws, &pc);
    } else {
      inner = gmres(jac, rhs.data(), delta.data(), gopts, gws, nullptr);
    }
    res.inner_iterations += inner.iterations;

    // Backtracking line search on the true residual (projected, matching
    // the dense polish).
    double alpha = 1.0;
    bool improved = false;
    for (int bt = 0; bt < 30; ++bt) {
      for (std::size_t i = 0; i < n; ++i) {
        trial[i] = res.state[i] + alpha * delta[i];
      }
      counted.project(trial);
      counted.deriv(0.0, trial, f_trial);
      const double trial_norm = norm_linf(f_trial);
      if (trial_norm < res.residual_norm) {
        prev_norm = res.residual_norm;
        res.state.swap(trial);
        f.swap(f_trial);
        res.residual_norm = trial_norm;
        improved = true;
        precond_fresh = false;  // the iterate moved off the factorization
        break;
      }
      alpha *= 0.5;
    }
    if (improved) continue;
    // No step helped. The usual culprit is a stale chord preconditioner:
    // drop it so the next pass rebuilds at the current iterate. With a
    // fresh one (or none) the iteration has genuinely stagnated.
    const bool had_stale = !precond_fresh &&
                           ((dense_pc && dense_lu != nullptr) ||
                            (banded_pc && banded_lu != nullptr));
    if (had_stale) {
      chord_ws.reset();
      continue;
    }
    break;
  }

  res.converged = res.converged || res.residual_norm < opts.tol;
  res.rhs_evals = counted.evals();
  return res;
}

}  // namespace lsm::ode
