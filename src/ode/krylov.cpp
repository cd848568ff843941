#include "ode/krylov.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "ode/banded.hpp"
#include "ode/fd_columns.hpp"
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

/// Gives every row of `jac` whose largest |entry| is zero a unit diagonal,
/// inserting the entry or overwriting a stored one.
void unit_diagonal_on_zero_rows(SparseColumns& jac) {
  const std::size_t n = jac.n;
  std::vector<double> row_max(n, 0.0);
  for (std::size_t p = 0; p < jac.row.size(); ++p) {
    double& m = row_max[jac.row[p]];
    m = std::max(m, std::abs(jac.value[p]));
  }
  if (std::find(row_max.begin(), row_max.end(), 0.0) == row_max.end()) return;
  SparseColumns reg;
  reg.n = n;
  reg.col_start.reserve(n + 1);
  reg.row.reserve(jac.row.size() + n);
  reg.value.reserve(jac.row.size() + n);
  const auto copy = [&](std::size_t p) {
    reg.row.push_back(jac.row[p]);
    reg.value.push_back(jac.value[p]);
  };
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t p = jac.col_start[j];
    const std::size_t p_end = jac.col_start[j + 1];
    for (; p < p_end && jac.row[p] < j; ++p) copy(p);
    if (row_max[j] == 0.0) {
      reg.row.push_back(j);
      reg.value.push_back(1.0);
      if (p < p_end && jac.row[p] == j) ++p;
    }
    for (; p < p_end; ++p) copy(p);
    reg.col_start.push_back(reg.row.size());
  }
  jac = std::move(reg);
}

/// Appends the nb columns of one fd_column_batches pass to jac. The
/// differences (fp - f0) / h are formed row by row over the pass's
/// contiguous lanes; each lane's nonzeros go to its own buffer (n entries
/// per lane in rows and values), and the buffers are appended in column
/// order, so jac gets the entries, in the order and with the bits, of a
/// scan down each column. kNb is nb for a full pass, whose lane loop then
/// unrolls with the counts in registers, or 0 for a width known only at
/// run time. (Compacting without the branch, each entry written and its
/// count advanced when nonzero, measured slower: the scan is n^2 entries,
/// almost all of them zero.)
template <std::size_t kNb>
void append_fd_columns(SparseColumns& jac, const double* f0, const double* fb,
                       const double* h, std::size_t nb, std::size_t* rows,
                       double* values) {
  const std::size_t n = jac.n;
  const std::size_t lanes = kNb == 0 ? nb : kNb;
  double inv_h[kFdLanes];
  std::size_t count[kFdLanes] = {};
  for (std::size_t l = 0; l < lanes; ++l) inv_h[l] = 1.0 / h[l];
  for (std::size_t i = 0; i < n; ++i) {
    const double fi = f0[i];
    const double* fp = fb + i * lanes;
    for (std::size_t l = 0; l < lanes; ++l) {
      const double d = (fp[l] - fi) * inv_h[l];
      if (d == 0.0) continue;
      rows[l * n + count[l]] = i;
      values[l * n + count[l]] = d;
      ++count[l];
    }
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    jac.row.insert(jac.row.end(), rows + l * n, rows + l * n + count[l]);
    jac.value.insert(jac.value.end(), values + l * n,
                     values + l * n + count[l]);
    jac.col_start.push_back(jac.row.size());
  }
}

}  // namespace

NewtonWorkspace::NewtonWorkspace() = default;
NewtonWorkspace::~NewtonWorkspace() = default;
NewtonWorkspace::NewtonWorkspace(NewtonWorkspace&&) noexcept = default;
NewtonWorkspace& NewtonWorkspace::operator=(NewtonWorkspace&&) noexcept =
    default;

void NewtonWorkspace::reset() {
  lu_.reset();
  dim_ = 0;
  banded_dim_ = 0;
}

const LuSolver* NewtonWorkspace::dense_chord(std::size_t dim) const {
  return dim_ == dim ? lu_.get() : nullptr;
}

const LuSolver& NewtonWorkspace::build_dense_chord(const OdeSystem& sys,
                                                   const State& s,
                                                   const State& f,
                                                   double fd_eps) {
  dim_ = 0;
  lu_ = detail::factor_fd_jacobian(sys, s, f, fd_eps,
                                   /*regularize_zero_rows=*/true);
  dim_ = s.size();
  return *lu_;
}

const BandedLuSolver* NewtonWorkspace::banded_chord(std::size_t dim) const {
  return banded_dim_ == dim ? banded_.get() : nullptr;
}

const BandedLuSolver& NewtonWorkspace::build_banded_chord(const OdeSystem& sys,
                                                          const State& s,
                                                          std::size_t bw,
                                                          double fd_eps) {
  const std::size_t n = s.size();
  banded_dim_ = 0;
  // A row with no entry of positive magnitude in its band gets a unit
  // diagonal.
  const auto assemble = [&](BandedMatrix& jac) {
    banded_fd_into(sys, 0.0, s, fd_eps, jac, banded_scratch_);
    for (std::size_t i = 0; i < n; ++i) {
      bool live = false;
      const std::size_t j_hi = std::min(i + bw, n - 1);
      for (std::size_t j = i > bw ? i - bw : 0; j <= j_hi && !live; ++j) {
        live = std::abs(jac.get(i, j)) > 0.0;
      }
      if (!live) jac.set(i, i, 1.0);
    }
  };
  const BandedMatrix* held = banded_ ? &banded_->factors() : nullptr;
  if (held != nullptr && held->size() == n && held->lower() == bw &&
      held->upper() == bw) {
    banded_->refactor(assemble);
  } else {
    BandedMatrix jac(n, bw, bw);
    assemble(jac);
    banded_ = std::make_unique<BandedLuSolver>(std::move(jac));
  }
  banded_dim_ = n;
  return *banded_;
}

namespace detail {

std::unique_ptr<LuSolver> factor_fd_jacobian(const OdeSystem& sys,
                                             const State& s, const State& f,
                                             double fd_eps,
                                             bool regularize_zero_rows) {
  const std::size_t n = sys.dimension();
  SparseColumns jac;
  jac.n = n;
  jac.col_start.reserve(n + 1);
  jac.row.reserve(8 * n);
  jac.value.reserve(8 * n);
  // The counter charges a batched pass nb evaluations, so the eval count,
  // the factorization and everything downstream (golden artifacts
  // included) do not depend on the path fd_column_batches takes.
  std::vector<std::size_t> lane_row(kFdLanes * n);
  std::vector<double> lane_value(kFdLanes * n);
  FdScratch scratch;
  fd_column_batches(sys, 0.0, s, fd_eps, scratch,
                    [&](std::size_t, std::size_t nb, const double* fb,
                        const double* h) {
                      if (nb == kFdLanes) {
                        append_fd_columns<kFdLanes>(jac, f.data(), fb, h, nb,
                                                    lane_row.data(),
                                                    lane_value.data());
                      } else {
                        append_fd_columns<0>(jac, f.data(), fb, h, nb,
                                             lane_row.data(),
                                             lane_value.data());
                      }
                    });
  if (regularize_zero_rows) unit_diagonal_on_zero_rows(jac);
  return std::make_unique<LuSolver>(jac);
}

}  // namespace detail

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
  const bool dense_pc =
      opts.dense_precond_max_dim > 0 && n <= opts.dense_precond_max_dim;
  const std::size_t bw = opts.banded_precond_bandwidth;
  const bool banded_pc = !dense_pc && bw > 0 && bw < n;
  // Without a caller's workspace the chords live for this solve only.
  NewtonWorkspace own_ws;
  NewtonWorkspace& chord_ws =
      precond_reuse != nullptr ? *precond_reuse : own_ws;
  GmresWorkspace& gws = chord_ws.gmres();
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
      dense_lu = chord_ws.dense_chord(n);
      if (dense_lu == nullptr) {
        try {
          dense_lu = &chord_ws.build_dense_chord(counted, res.state, f,
                                                 opts.fd_eps);
          ++res.jacobian_builds;
          precond_fresh = true;
        } catch (const util::Error&) {
          dense_lu = nullptr;
        }
      }
    } else if (banded_pc) {
      banded_lu = chord_ws.banded_chord(n);
      if (banded_lu == nullptr) {
        try {
          banded_lu = &chord_ws.build_banded_chord(counted, res.state, bw,
                                                   opts.fd_eps);
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

    // Backtracking line search on the true residual, each trial projected
    // onto the feasible set.
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
