// Newton's method for f(s) = 0 with a finite-difference Jacobian and a
// backtracking line search. Used to polish fixed points of the mean-field
// systems after ODE relaxation has brought the iterate into the basin.
#pragma once

#include <cstddef>
#include <memory>

#include "ode/system.hpp"

namespace lsm::ode {

class BandedLuSolver;
class LuSolver;
struct BandedFdScratch;

struct NewtonOptions {
  double tol = 1e-13;        ///< stop when ||f(s)||_inf < tol
  std::size_t max_iter = 60;
  double fd_eps = 1e-7;      ///< forward-difference Jacobian perturbation
  /// Chord acceptance: a step taken with a reused factorization (see
  /// NewtonWorkspace) must shrink the residual by at least this factor,
  /// otherwise the Jacobian is rebuilt at the current iterate.
  double chord_contraction = 0.5;
};

struct NewtonResult {
  State state;
  double residual_norm = 0.0;
  std::size_t iterations = 0;
  /// Finite-difference Jacobians assembled (each costs `dimension`
  /// derivative evaluations). 0 when every step reused a cached chord.
  std::size_t jacobian_builds = 0;
  bool converged = false;
};

/// Cross-solve Newton state for continuation sweeps. A λ-sweep polishes a
/// chain of nearby fixed points; the Jacobian barely moves between
/// neighbouring λ, so the previous point's LU factorization makes a good
/// chord for the next. Pass the same workspace to consecutive
/// newton_fixed_point calls and each polish first tries chord steps with
/// the cached factorization (one residual evaluation per step instead of a
/// full O(n) finite-difference Jacobian); a step that fails to contract by
/// `chord_contraction` triggers a fresh factorization, so reuse is an
/// optimization, never a correctness risk — convergence is still judged
/// against the true residual.
class NewtonWorkspace {
 public:
  NewtonWorkspace();
  ~NewtonWorkspace();
  NewtonWorkspace(NewtonWorkspace&&) noexcept;
  NewtonWorkspace& operator=(NewtonWorkspace&&) noexcept;

  /// Drops the cached factorizations (e.g. when the chain jumps to an
  /// unrelated model or the discretization changes shape). The banded
  /// chord's storage stays, so its rebuild at the same shape reuses it.
  void reset();
  /// An LuSolver factorization of the given dimension is available for
  /// chord steps.
  [[nodiscard]] bool holds(std::size_t dim) const;

 private:
  friend struct NewtonWorkspaceAccess;  // implementation backdoor
  std::unique_ptr<LuSolver> lu_;
  /// Banded chord cache for the Krylov path (large dimensions, where the
  /// n-evaluation finite-difference Jacobian behind lu_ is unaffordable);
  /// cached and invalidated alongside lu_.
  std::unique_ptr<BandedLuSolver> banded_;
  std::unique_ptr<BandedFdScratch> banded_scratch_;
  std::size_t dim_ = 0;
  std::size_t banded_dim_ = 0;
};

/// Solves f(s) = 0 where f is sys.deriv at t = 0. On stagnation returns the
/// best iterate with converged = false rather than throwing, so callers can
/// fall back to the relaxation result. With a non-null `reuse` workspace the
/// call may take chord steps with a previously cached factorization and
/// leaves its freshest factorization behind for the next call; without one
/// the Jacobian is rebuilt every iteration (the classic behaviour).
NewtonResult newton_fixed_point(const OdeSystem& sys, State s0,
                                const NewtonOptions& opts = {},
                                NewtonWorkspace* reuse = nullptr);

namespace detail {

/// Builds and factors the forward-difference Jacobian of sys.deriv at `s`
/// (residual `f` already evaluated there). Costs exactly `dimension`
/// derivative evaluations — assembled through deriv_batch in blocks when
/// the system provides it (bit-identical entries and eval count either
/// way). Each column's nonzeros go straight into compressed sparse
/// columns; no n x n matrix is formed. Throws util::Error on numerical
/// singularity. Shared by the Newton polish and the Krylov path's dense
/// chord preconditioner.
/// With regularize_zero_rows, identically-zero rows (e.g. the conserved
/// ds_0/dt = 0 row of a raw mean-field derivative) get a unit diagonal
/// before factoring — harmless for a preconditioner, since the residual
/// component on such a row is identically zero anyway.
std::unique_ptr<LuSolver> factor_fd_jacobian(const OdeSystem& sys,
                                             const State& s, const State& f,
                                             double fd_eps,
                                             bool regularize_zero_rows = false);

/// Chord-reuse accessors so krylov.cpp can share a NewtonWorkspace's cached
/// dense or banded factorization (defined next to the friend access in
/// newton.cpp).
[[nodiscard]] LuSolver* cached_lu(NewtonWorkspace& ws, std::size_t dim);
void cache_lu(NewtonWorkspace& ws, std::unique_ptr<LuSolver> lu,
              std::size_t dim);
[[nodiscard]] BandedLuSolver* cached_banded(NewtonWorkspace& ws,
                                            std::size_t dim);

/// Builds, factors and caches in `ws` the banded chord of sys.deriv at `s`
/// (kl = ku = bw): the finite-difference band (banded_fd_into, dimension
/// evaluations), with rows that have no nonzero band entry given a unit
/// diagonal (see factor_fd_jacobian). A chord of the same shape left in
/// `ws`, valid or reset, is refactored in place with the FD buffers of
/// the last build, so a rebuild does not touch the heap. Throws
/// util::Error on numerical singularity, leaving no chord cached.
BandedLuSolver* build_banded_chord(NewtonWorkspace& ws, const OdeSystem& sys,
                                   const State& s, std::size_t bw,
                                   double fd_eps);

}  // namespace detail

}  // namespace lsm::ode
