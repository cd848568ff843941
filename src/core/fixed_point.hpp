// Fixed-point computation for any MeanFieldModel, built on the engine in
// ode/solve.hpp: by default the Krylov route (an Anderson warm-up finished
// by Newton) at every rung of an adaptively grown truncation ladder, then a
// Newton polish for high-accuracy tails. Every Newton step runs
// newton_finish: Newton-GMRES (ode/krylov.hpp) on the root system, whose
// constraint rows pin the conserved class mass (on the raw derivative,
// singular along that mass, Newton can settle on a mass-losing fixed
// point). Explicit Anderson and relaxation remain selectable as reference
// paths.
//
// Adaptive truncation: the tail indices are a discretization knob, not part
// of the model, and most of the relaxation budget at a generous L is spent
// dragging along entries that end far below double precision. The solver
// therefore starts from a small L, solves, and doubles L (warm-starting
// from the geometrically extended previous solution) until the neglected
// tail mass drops under tail_tol. Sub-critical lambdas converge at a
// fraction of the constructed truncation; near-critical ones climb back up
// to it.
#pragma once

#include "core/model.hpp"
#include "ode/krylov.hpp"
#include "ode/solve.hpp"
#include "ode/state.hpp"

namespace lsm::core {

enum class TruncationMode {
  /// Re-discretize models that auto-sized their truncation, then restore
  /// the model and return a state extended back to the constructed
  /// dimension: externally indistinguishable from Fixed, just faster.
  /// Models built with an explicit truncation are left untouched.
  Auto,
  /// Always solve at the model's current truncation (legacy behaviour).
  Fixed,
};

struct FixedPointOptions {
  /// ||f||_inf target for the explicit relaxation path. Kept well above
  /// the integrator's error floor (rtol ~ 1e-9) so relaxation always
  /// terminates; the Newton polish supplies the final accuracy. The
  /// Anderson and Krylov paths iterate to min(relax_tol, 1e-10) since
  /// their iterations are cheap.
  double relax_tol = 1e-8;
  double polish_tol = 1e-13;  ///< ||f||_inf target for the Newton phase
  bool polish = true;
  /// Newton-Krylov tuning of newton_finish, the polish's and the Krylov
  /// rungs' (tol, budgets and a declared band are set per call). Its
  /// dense_precond_max_dim is the one dimension threshold: at or below it
  /// the chord is the LU of the full finite-difference Jacobian, above it
  /// a banded LU.
  ode::NewtonKrylovOptions krylov{};
  double t_max = 1e6;                 ///< relaxation horizon before giving up
  double check_interval = 25.0;       ///< relaxation convergence test period
  /// Iterative engine selection (see solve_rung): Auto and Krylov take the
  /// Krylov route at every dimension; Anderson and Relax are forwarded to
  /// ode::solve_fixed_point.
  ode::FixedPointMethod method = ode::FixedPointMethod::Auto;
  /// Anderson tuning, of the Krylov route's warmup and of the explicit
  /// anderson path. The mean-field systems reward a deeper residual
  /// history than the library default (the near-critical and multi-class
  /// cases stall at m = 5 but converge comfortably at m = 10) and the
  /// iterations are cheap, so the cap is generous: on the anderson path
  /// hitting it costs one relaxation fallback, far more than the extra
  /// iterations.
  ode::AndersonOptions anderson{.depth = 10, .max_iter = 2500};
  TruncationMode truncation = TruncationMode::Auto;
  /// Ladder stop: grow L until the largest last-tracked tail entry falls
  /// under this mass (matches the 1e-13 target the auto-sizing aims for).
  double tail_tol = 1e-13;
  /// Continuation warm start: a converged state from a neighbouring solve
  /// (same model family, typically the previous λ of a sweep), discretized
  /// at warm_truncation. When set, the truncation ladder is skipped — the
  /// state is geometrically re-extended to a tail-mass-compatible L and
  /// solved tightly at once — and the ode layer runs under the cold-start
  /// safeguard: divergence or basin escape discards the warm attempt and
  /// re-runs the ordinary cold path, so a warm solve never returns an
  /// answer a cold one would reject. Leave empty for cold solves.
  ode::State warm_state{};
  /// Truncation the warm_state was discretized at. Required (non-zero)
  /// whenever warm_state is set.
  std::size_t warm_truncation = 0;
  /// Optional cross-solve Newton workspace: consecutive solves in a
  /// continuation chain that share it reuse the previous point's chord
  /// factorization and GMRES basis during the polish phase (see
  /// ode::NewtonWorkspace). Only consulted on warm solves; a cold solve
  /// polishes with a workspace local to the solve.
  ode::NewtonWorkspace* newton_reuse = nullptr;
  /// Optional budgets across the whole ladder (0 = unlimited); the
  /// remainder is threaded into every rung solve, Newton finish included.
  /// Exhaustion fails the solve with ode::SolveStatus::BudgetExhausted.
  /// The Newton polish is not budget-checked — it is a bounded handful of
  /// evaluations.
  std::size_t max_rhs_evals = 0;
  double max_wall_seconds = 0.0;
  /// Failures throw util::FailureError by default; set false to get a
  /// best-effort result with status/failure filled in instead.
  bool throw_on_failure = true;
};

struct FixedPointResult {
  ode::State state;
  /// Final ||root_residual(s)||_inf; with the polish off, an Anderson or
  /// relaxation rung's ||f(s)||_inf (they differ on constraint rows only).
  double residual = 0.0;
  /// Exactly residual <= polish_tol, the root system solved, when the
  /// polish is on; always false when it is off.
  bool polished = false;
  double relax_time = 0.0; ///< virtual time used by explicit relaxation
  /// Iterative path that produced the pre-polish state (Krylov, Anderson,
  /// or Relax after a fallback) at the final ladder rung.
  ode::FixedPointMethod method = ode::FixedPointMethod::Relax;
  std::size_t rhs_evals = 0;   ///< derivative evaluations, all phases
  std::size_t iterations = 0;  ///< AA + Newton iterations, all phases
  /// Truncation at which the solve/polish actually happened. Under
  /// TruncationMode::Auto the model (and state) are restored to the
  /// constructed truncation afterwards, so this may be smaller than
  /// model.truncation().
  std::size_t final_truncation = 0;
  /// Truncation the RETURNED state is discretized at (after any Auto-mode
  /// restore).
  std::size_t state_truncation = 0;
  /// The Auto ladder stopped at its cap (the constructed truncation) with
  /// the tail mass still above tail_tol: the answer carries a truncation
  /// error the ladder could not remove. Always false for solves that do
  /// not ladder (explicit truncation, TruncationMode::Fixed).
  bool truncation_capped = false;
  /// The solution at the ladder's final rung (final_truncation), BEFORE
  /// any Auto-mode restore — the natural seed for continuation chains:
  /// ladder rungs are quantized (24, 48, 96, …), so neighbouring λ share a
  /// discretization and the chain's Newton chord stays valid, where the
  /// restored `state` would change dimension at every grid point.
  ode::State compact_state;
  bool fellback = false;  ///< the iterative path gave up; relaxation finished
  /// A warm start was supplied and actually used (no divergence/basin
  /// rejection forced the cold path).
  bool warm = false;
  /// Converged unless a rung hard-failed (diverged / budget exhausted);
  /// only observable with throw_on_failure=false. On failure the state
  /// fields hold the best iterate at final_truncation.
  ode::SolveStatus status = ode::SolveStatus::Converged;
  std::string failure;  ///< human-readable reason when status != Converged
};

/// The model's root_residual as an OdeSystem, as the Newton polish sees
/// it: deriv is the root-residual map, batched Jacobian assembly goes
/// through root_residual_batch.
class RootSystem final : public ode::OdeSystem {
 public:
  explicit RootSystem(const MeanFieldModel& model) : model_(model) {}

  void deriv(double /*t*/, const ode::State& s, ode::State& ds) const override {
    model_.root_residual(s, ds);
  }
  [[nodiscard]] bool deriv_batch(double /*t*/, std::size_t nb, const double* x,
                                 double* dx) const override {
    return model_.root_residual_batch(nb, x, dx);
  }
  [[nodiscard]] std::size_t dimension() const override {
    return model_.dimension();
  }
  void project(ode::State& s) const override { model_.project(s); }

 private:
  const MeanFieldModel& model_;
};

/// Newton-GMRES on the root system of `model` from `s` to kopts.tol: the
/// finish of every Krylov-routed rung and the polish. A declared
/// jacobian_bandwidth() is the banded chord's band; `reuse` carries a
/// continuation chain's chord (see ode::newton_krylov_fixed_point).
[[nodiscard]] ode::NewtonKrylovResult newton_finish(
    const MeanFieldModel& model, ode::State s, ode::NewtonKrylovOptions kopts,
    ode::NewtonWorkspace* reuse = nullptr);

/// One solve of `model` at its current truncation under `sopts`. Explicit
/// Anderson and relaxation run in ode::solve_fixed_point. Every other
/// method (Auto, Krylov) takes the Krylov route: ode::krylov_warmup
/// finished by newton_finish (tuned by `krylov`) to
/// sopts.tol with what is left of sopts' budget, under the ode
/// dispatcher's warm-rejection, fallback and budget contract
/// (ode::solve_with_fallbacks). Throws util::FailureError, or with
/// sopts.throw_on_failure=false reports the failure in status/failure.
[[nodiscard]] ode::FixedPointSolveResult solve_rung(
    const MeanFieldModel& model, ode::State s0,
    const ode::FixedPointSolveOptions& sopts,
    const ode::NewtonKrylovOptions& krylov);

/// Computes the fixed point of `model`. When no applicable path
/// converges (see ode::solve_fixed_point) throws util::FailureError (a
/// util::Error subclass), or — with opts.throw_on_failure=false —
/// returns the best iterate with status/failure describing the problem.
[[nodiscard]] FixedPointResult solve_fixed_point(
    const MeanFieldModel& model, const FixedPointOptions& opts = {});

/// Convenience: fixed point -> mean sojourn time (the tables' "Estimate").
[[nodiscard]] double fixed_point_sojourn(const MeanFieldModel& model,
                                         const FixedPointOptions& opts = {});

/// Chains solves along a parameter sweep: each call warm-starts from the
/// previous call's converged state (and reuses its Newton factorization as
/// a chord) when one is available, and updates the carried state from the
/// result. The first call — or the first after reset() — runs the ordinary
/// cold path, byte-identical to a standalone core::solve_fixed_point.
/// A failed solve (thrown, or status != Converged) resets the chain: the
/// carried state is no longer trustworthy, so the next call cold-restarts
/// instead of propagating a suspect warm start down the sweep.
/// Intended usage: one continuation per (model family, ordered λ grid);
/// consecutive models must share the same state layout (tail segments).
class FixedPointContinuation {
 public:
  /// Solves `model`, warm-started from the carried state when warm() is
  /// true. The warm_* and newton_reuse fields of `opts` are overwritten.
  FixedPointResult solve(const MeanFieldModel& model,
                         FixedPointOptions opts = {});

  /// Seeds the carried state from an external source (e.g. a cached sweep
  /// point), so a resumed sweep continues warm. The Newton chord stays
  /// empty — it is rebuilt lazily on the next polish.
  void seed(ode::State state, std::size_t truncation);

  /// Forgets the carried state and Newton factorization; the next solve
  /// runs cold.
  void reset();

  /// A previous point is available to warm-start from.
  [[nodiscard]] bool warm() const noexcept { return !state_.empty(); }

 private:
  ode::State state_{};
  std::size_t truncation_ = 0;
  ode::NewtonWorkspace newton_{};
};

}  // namespace lsm::core
