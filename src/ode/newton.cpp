#include "ode/newton.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ode/banded.hpp"
#include "ode/fd_columns.hpp"
#include "ode/linalg.hpp"
#include "util/error.hpp"

namespace lsm::ode {

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

bool NewtonWorkspace::holds(std::size_t dim) const {
  return lu_ != nullptr && dim_ == dim;
}

struct NewtonWorkspaceAccess {
  static std::unique_ptr<LuSolver>& lu(NewtonWorkspace& ws) { return ws.lu_; }
  static std::size_t& dim(NewtonWorkspace& ws) { return ws.dim_; }
  static std::unique_ptr<BandedLuSolver>& banded(NewtonWorkspace& ws) {
    return ws.banded_;
  }
  static std::size_t& banded_dim(NewtonWorkspace& ws) {
    return ws.banded_dim_;
  }
  static std::unique_ptr<BandedFdScratch>& banded_scratch(
      NewtonWorkspace& ws) {
    return ws.banded_scratch_;
  }
};

namespace {

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

LuSolver* cached_lu(NewtonWorkspace& ws, std::size_t dim) {
  if (!ws.holds(dim)) return nullptr;
  return NewtonWorkspaceAccess::lu(ws).get();
}

void cache_lu(NewtonWorkspace& ws, std::unique_ptr<LuSolver> lu,
              std::size_t dim) {
  NewtonWorkspaceAccess::lu(ws) = std::move(lu);
  NewtonWorkspaceAccess::dim(ws) = dim;
}

BandedLuSolver* cached_banded(NewtonWorkspace& ws, std::size_t dim) {
  if (NewtonWorkspaceAccess::banded_dim(ws) != dim) return nullptr;
  return NewtonWorkspaceAccess::banded(ws).get();
}

BandedLuSolver* build_banded_chord(NewtonWorkspace& ws, const OdeSystem& sys,
                                   const State& s, std::size_t bw,
                                   double fd_eps) {
  const std::size_t n = s.size();
  auto& lu = NewtonWorkspaceAccess::banded(ws);
  auto& scratch = NewtonWorkspaceAccess::banded_scratch(ws);
  std::size_t& dim = NewtonWorkspaceAccess::banded_dim(ws);
  if (!scratch) scratch = std::make_unique<BandedFdScratch>();
  dim = 0;
  // A row with no entry of positive magnitude in its band gets a unit
  // diagonal.
  const auto assemble = [&](BandedMatrix& jac) {
    banded_fd_into(sys, 0.0, s, fd_eps, jac, *scratch);
    for (std::size_t i = 0; i < n; ++i) {
      bool live = false;
      const std::size_t j_hi = std::min(i + bw, n - 1);
      for (std::size_t j = i > bw ? i - bw : 0; j <= j_hi && !live; ++j) {
        live = std::abs(jac.get(i, j)) > 0.0;
      }
      if (!live) jac.set(i, i, 1.0);
    }
  };
  const BandedMatrix* held = lu ? &lu->factors() : nullptr;
  if (held != nullptr && held->size() == n && held->lower() == bw &&
      held->upper() == bw) {
    lu->refactor(assemble);
  } else {
    BandedMatrix jac(n, bw, bw);
    assemble(jac);
    lu = std::make_unique<BandedLuSolver>(std::move(jac));
  }
  dim = n;
  return lu.get();
}

}  // namespace detail

namespace {

/// The classic path: fresh Jacobian every iteration plus a backtracking
/// line search. Kept bit-for-bit as before so cold solves (and their golden
/// artifacts) are untouched by the continuation machinery.
NewtonResult newton_classic(const OdeSystem& sys, NewtonResult result,
                            const NewtonOptions& opts) {
  const std::size_t n = sys.dimension();
  State f(n), f_pert(n), trial(n);

  sys.deriv(0.0, result.state, f);
  result.residual_norm = norm_linf(f);

  for (std::size_t iter = 0; iter < opts.max_iter; ++iter) {
    if (result.residual_norm < opts.tol) {
      result.converged = true;
      return result;
    }
    ++result.iterations;

    std::unique_ptr<LuSolver> lu;
    try {
      lu = detail::factor_fd_jacobian(sys, result.state, f, opts.fd_eps);
    } catch (const util::Error&) {
      return result;  // singular Jacobian: hand back best-so-far
    }
    ++result.jacobian_builds;

    std::vector<double> rhs(n);
    for (std::size_t i = 0; i < n; ++i) rhs[i] = -f[i];
    std::vector<double> delta;
    try {
      delta = lu->solve(std::move(rhs));
    } catch (const util::Error&) {
      return result;
    }

    // Backtracking line search on the residual norm.
    double alpha = 1.0;
    bool improved = false;
    for (int bt = 0; bt < 30; ++bt) {
      for (std::size_t i = 0; i < n; ++i) {
        trial[i] = result.state[i] + alpha * delta[i];
      }
      sys.project(trial);
      sys.deriv(0.0, trial, f_pert);
      const double trial_norm = norm_linf(f_pert);
      if (trial_norm < result.residual_norm) {
        result.state = trial;
        std::swap(f, f_pert);
        result.residual_norm = trial_norm;
        improved = true;
        break;
      }
      alpha *= 0.5;
    }
    if (!improved) return result;  // stagnated
  }
  result.converged = result.residual_norm < opts.tol;
  return result;
}

/// Continuation path: chord steps with the workspace's cached factorization
/// (one residual evaluation each), rebuilding only when a stale chord stops
/// contracting. The freshest factorization stays in the workspace for the
/// next solve in the chain.
NewtonResult newton_chord(const OdeSystem& sys, NewtonResult result,
                          const NewtonOptions& opts, NewtonWorkspace& ws) {
  const std::size_t n = sys.dimension();
  State f(n), f_pert(n), trial(n);

  sys.deriv(0.0, result.state, f);
  result.residual_norm = norm_linf(f);

  // A factorization inherited from the previous solve in the chain is not
  // at the current iterate; one built below is.
  bool lu_fresh = false;

  for (std::size_t iter = 0; iter < opts.max_iter; ++iter) {
    if (result.residual_norm < opts.tol) {
      result.converged = true;
      return result;
    }
    ++result.iterations;

    // At most two passes: one with the stale chord, one after a rebuild.
    for (;;) {
      if (!ws.holds(n)) {
        try {
          NewtonWorkspaceAccess::lu(ws) = detail::factor_fd_jacobian(
              sys, result.state, f, opts.fd_eps);
          NewtonWorkspaceAccess::dim(ws) = n;
        } catch (const util::Error&) {
          ws.reset();
          return result;  // singular Jacobian: hand back best-so-far
        }
        ++result.jacobian_builds;
        lu_fresh = true;
      }

      std::vector<double> rhs(n);
      for (std::size_t i = 0; i < n; ++i) rhs[i] = -f[i];
      std::vector<double> delta;
      try {
        delta = NewtonWorkspaceAccess::lu(ws)->solve(std::move(rhs));
      } catch (const util::Error&) {
        ws.reset();
        return result;
      }

      for (std::size_t i = 0; i < n; ++i) {
        trial[i] = result.state[i] + delta[i];
      }
      sys.project(trial);
      sys.deriv(0.0, trial, f_pert);
      const double trial_norm = norm_linf(f_pert);
      // A stale chord must genuinely contract to stay in play; a fresh
      // Jacobian only has to improve (matching the classic acceptance).
      const double bound = lu_fresh
                               ? result.residual_norm
                               : opts.chord_contraction * result.residual_norm;
      if (trial_norm < bound) {
        result.state = trial;
        std::swap(f, f_pert);
        result.residual_norm = trial_norm;
        lu_fresh = false;  // the iterate moved away from the factorization
        break;
      }
      if (!lu_fresh) {
        ws.reset();  // stale chord stopped contracting: rebuild and retry
        continue;
      }
      // Fresh Jacobian and the full step still failed: backtrack.
      double alpha = 0.5;
      bool improved = false;
      for (int bt = 0; bt < 29; ++bt) {
        for (std::size_t i = 0; i < n; ++i) {
          trial[i] = result.state[i] + alpha * delta[i];
        }
        sys.project(trial);
        sys.deriv(0.0, trial, f_pert);
        const double bt_norm = norm_linf(f_pert);
        if (bt_norm < result.residual_norm) {
          result.state = trial;
          std::swap(f, f_pert);
          result.residual_norm = bt_norm;
          improved = true;
          break;
        }
        alpha *= 0.5;
      }
      if (!improved) return result;  // stagnated
      lu_fresh = false;
      break;
    }
  }
  result.converged = result.residual_norm < opts.tol;
  return result;
}

}  // namespace

NewtonResult newton_fixed_point(const OdeSystem& sys, State s0,
                                const NewtonOptions& opts,
                                NewtonWorkspace* reuse) {
  LSM_EXPECT(s0.size() == sys.dimension(),
             "initial state has wrong dimension");
  NewtonResult result;
  result.state = std::move(s0);
  if (reuse != nullptr) {
    return newton_chord(sys, std::move(result), opts, *reuse);
  }
  return newton_classic(sys, std::move(result), opts);
}

}  // namespace lsm::ode
