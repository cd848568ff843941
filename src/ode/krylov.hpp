// Newton–Krylov machinery, the one Newton loop of the fixed-point polish:
//
//  * gmres            - restarted GMRES(m) with modified Gram–Schmidt
//    Arnoldi, Givens-rotation least squares and optional RIGHT
//    preconditioning (the iterate stays in the original variables, so the
//    convergence test is on the true residual). The workspace holds the
//    fixed Krylov basis storage and is allocation-free once warmed up.
//  * JacobianOperator - J·v by a one-sided directional difference
//    (f(s + h v) − f(s)) / h: ONE derivative evaluation per product, no
//    Jacobian ever materialized. That is the whole point: at n = 10^4 a
//    full finite-difference Jacobian costs n evaluations of O(n) each,
//    while a Krylov solve needs only as many J·v products as iterations.
//  * newton_krylov_fixed_point - inexact Newton over GMRES with
//    Eisenstat–Walker forcing, a backtracking line search on the true
//    residual, and a chord preconditioner: an LU of the full
//    finite-difference Jacobian for small systems or a finite-difference
//    banded LU for large ones, both reusable across solves via
//    NewtonWorkspace. The mean-field Jacobians are band + low-rank tail
//    couplings, so the exact band (per-column differences) preconditions
//    the system down to a low-rank perturbation of the identity — GMRES's
//    best case.
#pragma once

#include <cstddef>
#include <memory>

#include "ode/banded.hpp"
#include "ode/state.hpp"
#include "ode/system.hpp"

namespace lsm::ode {

class LuSolver;

/// Abstract y = A x over raw length-n arrays. Implementations are small
/// stack-allocated adapters (no std::function: the apply sits inside the
/// Krylov iteration and must not allocate).
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;
  /// Writes A x into y; x and y are length size() and must not alias.
  virtual void apply(const double* x, double* y) const = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;
};

struct GmresOptions {
  std::size_t restart = 30;     ///< Krylov subspace dimension m per cycle
  std::size_t max_iters = 200;  ///< total Arnoldi steps across restarts
  /// Absolute 2-norm residual target (callers set it from the outer
  /// Newton forcing term, so there is no meaningful default scale).
  double tol = 1e-12;
  /// A restart cycle must shrink the true residual below this factor of
  /// the previous cycle's, else the solve stops as stagnated (singular or
  /// ill-conditioned systems plateau instead of diverging).
  double stagnation_factor = 0.95;
};

struct GmresResult {
  double residual = 0.0;        ///< final true 2-norm residual
  std::size_t iterations = 0;   ///< Arnoldi steps == operator applications
  std::size_t restarts = 0;     ///< completed cycles beyond the first
  bool converged = false;
  bool stagnated = false;       ///< a restart cycle failed to make progress
};

/// Fixed storage for gmres(): the (m+1) x n Krylov basis, the Hessenberg
/// column store and the rotation/scratch vectors. ensure() only touches
/// memory when n or m grow, so repeated solves of the same shape are
/// allocation-free (enforced by hot_loop_alloc_test).
class GmresWorkspace {
 public:
  void ensure(std::size_t n, std::size_t restart);

  std::vector<double> basis;  ///< (m+1) rows of length n, row-major
  std::vector<double> hess;   ///< column j at [j*(m+1)], length m+1
  std::vector<double> cs, sn, g, y;
  std::vector<double> w, z, r;

 private:
  std::size_t n_ = 0;
  std::size_t m_ = 0;
};

/// Cross-solve state of newton_krylov_fixed_point: the chord
/// preconditioner's factorization and the GMRES basis. A λ-sweep polishes
/// a chain of nearby fixed points; the Jacobian barely moves between
/// neighbouring λ, so the previous point's factorization makes a good chord
/// for the next, and one Krylov basis serves every solve of the chain's
/// shape. A chord that stops helping is dropped and rebuilt at the current
/// iterate, so reuse is an optimization, never a correctness risk:
/// convergence is still judged against the true residual.
class NewtonWorkspace {
 public:
  NewtonWorkspace();
  ~NewtonWorkspace();
  NewtonWorkspace(NewtonWorkspace&&) noexcept;
  NewtonWorkspace& operator=(NewtonWorkspace&&) noexcept;

  /// Drops the cached chords (e.g. when the chain jumps to an unrelated
  /// model or the discretization changes shape). The banded chord's and
  /// the GMRES basis's storage stays, so a rebuild at the same shape
  /// reuses it.
  void reset();

  /// The cached dense chord, or null unless one of dimension `dim` is held.
  [[nodiscard]] const LuSolver* dense_chord(std::size_t dim) const;
  /// Factors the forward-difference Jacobian of sys.deriv at `s` (residual
  /// `f` already evaluated there; see detail::factor_fd_jacobian, zero
  /// rows regularized) and caches it as the dense chord. Throws
  /// util::Error on numerical singularity, leaving no dense chord cached.
  const LuSolver& build_dense_chord(const OdeSystem& sys, const State& s,
                                    const State& f, double fd_eps);

  /// The cached banded chord, or null unless one of dimension `dim` is
  /// held.
  [[nodiscard]] const BandedLuSolver* banded_chord(std::size_t dim) const;
  /// Builds, factors and caches the banded chord of sys.deriv at `s`
  /// (kl = ku = bw): the finite-difference band (banded_fd_into, dimension
  /// evaluations), with rows that have no nonzero band entry given a unit
  /// diagonal. A chord of the same shape left here, valid or reset, is
  /// refactored in place with the FD buffers of the last build, so a
  /// rebuild does not touch the heap. Throws util::Error on numerical
  /// singularity, leaving no banded chord cached.
  const BandedLuSolver& build_banded_chord(const OdeSystem& sys,
                                           const State& s, std::size_t bw,
                                           double fd_eps);

  [[nodiscard]] GmresWorkspace& gmres() noexcept { return gmres_; }

 private:
  std::unique_ptr<LuSolver> lu_;
  std::size_t dim_ = 0;
  std::unique_ptr<BandedLuSolver> banded_;
  BandedFdScratch banded_scratch_;
  std::size_t banded_dim_ = 0;
  GmresWorkspace gmres_;
};

namespace detail {

/// Builds and factors the forward-difference Jacobian of sys.deriv at `s`
/// (residual `f` already evaluated there). Costs exactly `dimension`
/// derivative evaluations — assembled through deriv_batch in blocks when
/// the system provides it (bit-identical entries and eval count either
/// way). Each column's nonzeros go straight into compressed sparse
/// columns; no n x n matrix is formed. Throws util::Error on numerical
/// singularity.
/// With regularize_zero_rows, identically-zero rows (e.g. the conserved
/// ds_0/dt = 0 row of a raw mean-field derivative) get a unit diagonal
/// before factoring — harmless for a preconditioner, since the residual
/// component on such a row is identically zero anyway.
std::unique_ptr<LuSolver> factor_fd_jacobian(const OdeSystem& sys,
                                             const State& s, const State& f,
                                             double fd_eps,
                                             bool regularize_zero_rows = false);

}  // namespace detail

/// Solves A x = b (x holds the initial guess on entry, the solution on
/// exit) by restarted GMRES. With `right_precond` (an operator applying
/// M^-1) the Krylov iteration runs on A M^-1 and un-preconditions the
/// update, so residuals — and the convergence test — stay those of the
/// original system. Never throws: singular/stagnating systems return
/// converged = false with the best iterate in x.
GmresResult gmres(const LinearOperator& op, const double* b, double* x,
                  const GmresOptions& opts, GmresWorkspace& ws,
                  const LinearOperator* right_precond = nullptr);

/// Matrix-free J·v at a base point (s, f = f(s)) by a one-sided directional
/// difference with the step scaled to ||s||_inf / ||v||_inf: one derivative
/// evaluation per apply.
class JacobianOperator final : public LinearOperator {
 public:
  explicit JacobianOperator(const OdeSystem& sys, double fd_eps = 1e-7);

  /// Re-bases the operator; `s` and `f` must outlive subsequent applies.
  void rebase(const State& s, const State& f);

  void apply(const double* v, double* y) const override;
  [[nodiscard]] std::size_t size() const override { return sys_.dimension(); }

 private:
  const OdeSystem& sys_;
  double eps_;
  double scale_ = 1.0;  ///< 1 + ||s||_inf at the base point
  const State* s_ = nullptr;
  const State* f_ = nullptr;
  mutable State pert_, f_pert_;
};

struct NewtonKrylovOptions {
  double tol = 1e-13;        ///< stop when ||f(s)||_inf < tol
  std::size_t max_iter = 50; ///< outer Newton iterations
  double fd_eps = 1e-7;      ///< directional-difference step scale
  GmresOptions gmres{};      ///< inner solver; gmres.tol is overwritten
  /// Eisenstat–Walker forcing bracket: the inner solve runs to
  /// eta * ||f||_2 with eta shrinking as the outer iteration converges.
  double forcing_max = 1e-2;
  double forcing_min = 1e-8;
  /// Chord preconditioner selection. At or below dense_precond_max_dim an
  /// LU of the full finite-difference Jacobian is built (n evaluations of
  /// O(n) each — worth it only while n is small) and reused chord-style
  /// across iterations and, via the NewtonWorkspace argument, across
  /// solves.
  /// Above it, a banded LU with kl = ku = banded_precond_bandwidth;
  /// 0 bandwidth runs unpreconditioned.
  std::size_t dense_precond_max_dim = 1400;
  /// The banded chord is differenced column by column (n evaluations), so
  /// the off-band low-rank couplings of the mean-field models never alias
  /// into the band.
  std::size_t banded_precond_bandwidth = 2;
  /// Optional budgets (0 = unlimited), checked at outer-iteration
  /// granularity like the other solvers in this directory.
  std::size_t max_rhs_evals = 0;
  double max_wall_seconds = 0.0;
};

struct NewtonKrylovResult {
  State state;
  double residual_norm = 0.0;       ///< final ||f||_inf
  std::size_t iterations = 0;       ///< outer Newton steps
  std::size_t inner_iterations = 0; ///< total GMRES steps (≈ J·v evals)
  std::size_t rhs_evals = 0;        ///< derivative evaluations, all phases
  /// Preconditioner (re)builds: dense and banded ones each cost
  /// `dimension` evaluations.
  std::size_t jacobian_builds = 0;
  bool converged = false;
  bool budget_exhausted = false;    ///< stopped on max_rhs_evals/wall
};

/// Solves f(s) = 0 (f = sys.deriv at t = 0) by inexact Newton–GMRES. On
/// stagnation returns the best iterate with converged = false rather than
/// throwing. A non-null `precond_reuse` workspace shares the chord
/// factorization (the dense LU at dimension <= dense_precond_max_dim, the
/// banded LU above it) and the GMRES basis across the solves of a
/// continuation chain: a chord costs `dimension` evaluations to build, so
/// a chain of nearby solves that reuses one build amortizes its cost to
/// near zero (stale chords that stop helping are dropped and rebuilt, so
/// reuse never compromises the converged residual). Without one, the
/// chords and the basis live for this solve only.
NewtonKrylovResult newton_krylov_fixed_point(
    const OdeSystem& sys, State s0, const NewtonKrylovOptions& opts = {},
    NewtonWorkspace* precond_reuse = nullptr);

}  // namespace lsm::ode
