// Single entry point for locating fixed points of ds/dt = f(s) by
// Anderson acceleration (anderson.hpp) or explicit time relaxation
// (steady_state.hpp, the robust safety net), plus the Anderson warmup of the
// Krylov route; each reports the method used and the RHS-evaluation budget
// it consumed.
//
// Anderson falls back to Relax from the caller's original start when
// acceleration fails to converge (NOT from Anderson's best iterate:
// truncated systems can be bistable, and the meaningful equilibrium is the
// one relaxation reaches from the start).
//
// The ode layer has no Newton, so solve_fixed_point serves the explicit
// Anderson and Relax methods only: Auto and Krylov both mean the Krylov
// route, whose ode half is krylov_warmup, returning the warmup's best
// iterate, reached its target or not. The caller finishes it on a
// nonsingular system (core::solve_rung: Newton on the mass-conserving root
// system), under the same warm-rejection, fallback and budget contract as
// Anderson's, solve_with_fallbacks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "ode/anderson.hpp"
#include "ode/status.hpp"
#include "ode/steady_state.hpp"
#include "ode/system.hpp"

namespace lsm::ode {

enum class FixedPointMethod {
  Auto,      ///< the Krylov route (the default)
  Relax,     ///< explicit time relaxation only (the pre-engine behaviour)
  Anderson,  ///< Anderson acceleration with relaxation fallback
  Krylov,    ///< Anderson warmup; the caller finishes with Newton
};

/// Every parseable method name, in declaration order. The single source of
/// truth shared by to_string, parse_fixed_point_method and CLI solver
/// listings, so a new method cannot silently miss one of them.
[[nodiscard]] const std::vector<std::string>& fixed_point_method_names();

/// Short lowercase name ("auto" | "relax" | "anderson" | "krylov").
[[nodiscard]] const char* to_string(FixedPointMethod method) noexcept;

/// Inverse of to_string; throws util::Error on an unknown name (the message
/// enumerates fixed_point_method_names()).
[[nodiscard]] FixedPointMethod parse_fixed_point_method(
    const std::string& name);

struct FixedPointSolveOptions {
  FixedPointMethod method = FixedPointMethod::Auto;
  /// ||f||_inf target for the Anderson and Krylov paths. The relaxation
  /// path (requested or fallback) runs to max(tol, relax.deriv_tol) so a
  /// caller who polishes afterwards can keep the slow safety net cheap.
  double tol = 1e-10;
  /// Caller context (model, lambda, truncation) carried into solver
  /// diagnostics and non-convergence errors.
  std::string label;
  AndersonOptions anderson{};
  /// When Anderson stalls without converging, accept its best iterate
  /// anyway (skipping the relaxation fallback) if the residual is within
  /// this factor of tol. 1.0 = strict. Callers that polish afterwards set
  /// this generously: Newton finishes a near-miss in a couple of
  /// iterations, where the fallback relaxation would spend thousands of
  /// evaluations re-deriving it.
  double anderson_accept_factor = 1.0;
  /// When false, a failed (not accepted) attempt returns its
  /// best iterate with fellback = true INSTEAD of finishing with the slow
  /// relaxation. For orchestrators that would rather retry from another
  /// start: check result.residual against tol before trusting the state.
  bool relax_fallback = true;
  SteadyStateOptions relax{};
  /// Anderson warmup target of the Krylov path: acceleration stops at
  /// max(tol, this) and the caller's Newton finishes the remaining digits.
  /// The warmup only has to reach the Newton basin — pushing AA deeper
  /// wastes its worst (stall-prone) regime, stopping far earlier hands
  /// Newton an iterate its line search cannot yet work with.
  double krylov_warmup_tol = 1e-6;
  /// Continuation safeguard. When s0 is a warm start carried over from a
  /// neighbouring solve (a λ-sweep threading the previous fixed point
  /// forward), set cold_start to the canonical cold start for this system
  /// (typically the empty state). Two behaviours change: a failed attempt
  /// re-runs the whole cold path from cold_start instead of relaxing
  /// from the possibly-wrong-basin warm s0, and a converged warm answer
  /// that moved further than basin_check_dist from s0 must pass a
  /// forward-integration probe (the real flow from s0 has to approach it)
  /// before being accepted — otherwise it is discarded as a basin escape
  /// and the cold path runs. Truncated systems can be bistable (see the
  /// dispatch notes above), so a warm solve is never allowed to return an
  /// answer the cold safeguard would reject. Leave empty for cold solves.
  State cold_start{};
  /// Inf-norm movement of the warm solve below which the basin probe is
  /// skipped: a solution that stayed this local cannot have crossed into
  /// another basin of these smooth mean-field systems.
  double basin_check_dist = 0.05;
  /// Virtual-time horizon of the basin probe integration.
  double basin_probe_time = 2.0;
  /// Optional budgets across all phases (0 = unlimited). The remaining
  /// budget is threaded into each phase (acceleration iteration cap,
  /// fallback relaxation, cold re-runs); exhaustion fails the solve with
  /// SolveStatus::BudgetExhausted. Budgets are approximate at phase
  /// boundaries (acceleration is capped by iterations ≈ evaluations).
  std::size_t max_rhs_evals = 0;
  double max_wall_seconds = 0.0;
  /// Failures throw util::FailureError by default; set false to get a
  /// best-effort result with status/failure filled in instead.
  bool throw_on_failure = true;
};

struct FixedPointSolveResult {
  State state;
  double residual = 0.0;  ///< final ||f||_inf
  /// Path that produced state (Krylov: the warmup, still to be finished).
  FixedPointMethod method = FixedPointMethod::Relax;
  std::size_t rhs_evals = 0;   ///< derivative evaluations, all phases
  std::size_t iterations = 0;  ///< AA iterations (0 for relax)
  double relax_time = 0.0;     ///< virtual time, when relaxation ran
  bool fellback = false;  ///< the attempt failed; relaxation re-ran from s0
  /// The warm start was rejected (divergence or basin escape) and the
  /// returned answer was produced by the cold path from opts.cold_start.
  bool warm_rejected = false;
  /// Converged unless a path hard-failed (diverged / budget exhausted).
  /// Note the relax_fallback=false escape hatch returns fellback=true
  /// with status Converged — those callers orchestrate their own retry
  /// and check result.residual, per the option's contract.
  SolveStatus status = SolveStatus::Converged;
  std::string failure;  ///< human-readable reason when status != Converged
};

/// Finds s with ||f(s)||_inf < opts.tol starting from s0 by Anderson or
/// relaxation, as opts.method names. Auto and Krylov are a precondition
/// failure (util::LogicError): that route needs a Newton finish. When every
/// applicable path fails (relaxation exhausts its horizon or a budget),
/// throws util::FailureError — or, with opts.throw_on_failure=false,
/// returns the best iterate with status/failure describing the problem.
[[nodiscard]] FixedPointSolveResult solve_fixed_point(
    const OdeSystem& sys, State s0, const FixedPointSolveOptions& opts = {});

/// The Krylov route's ode half: Anderson from s0 to
/// max(opts.tol, opts.krylov_warmup_tol), its eval budget capping the
/// iterations. Returns the best iterate (method Krylov) whether or not it
/// got there, always with status Converged: the caller's Newton finish
/// decides whether the route succeeded.
[[nodiscard]] FixedPointSolveResult krylov_warmup(
    const OdeSystem& sys, State s0, const FixedPointSolveOptions& opts);

/// Writes what is left of `from`'s budget (max_rhs_evals, max_wall_seconds)
/// after `spent` evaluations and `elapsed` seconds into `to`'s budget
/// fields, for a nested phase. A limited budget never becomes 0 (the
/// unlimited sentinel): a fully spent one maps to the smallest value the
/// nested phase fails fast on. Unlimited budgets leave `to` untouched.
template <class From, class To>
void carry_budget(const From& from, std::size_t spent, double elapsed,
                  To& to) {
  if (from.max_rhs_evals != 0) {
    to.max_rhs_evals =
        from.max_rhs_evals > spent ? from.max_rhs_evals - spent : 1;
  }
  if (from.max_wall_seconds > 0.0) {
    to.max_wall_seconds = std::max(from.max_wall_seconds - elapsed, 1e-9);
  }
}

/// One run of a path's main phase from a start.
struct Attempt {
  FixedPointSolveResult result;
  bool accepted = false;  ///< converged, or close enough to keep
};
using AttemptFn =
    std::function<Attempt(State, const FixedPointSolveOptions&)>;

/// Runs `attempt` from s0 under the dispatcher's contract, Anderson's and
/// the caller-finished Krylov route's alike. An accepted warm answer must
/// pass the basin probe. A budget spent on a failed attempt fails the
/// solve (SolveStatus::BudgetExhausted). A failed or basin-escaped warm
/// attempt re-runs the whole contract cold from opts.cold_start
/// (warm_rejected). A failed cold one relaxes from s0 (fellback), or,
/// without relax_fallback, returns its best iterate marked fellback.
[[nodiscard]] FixedPointSolveResult solve_with_fallbacks(
    const OdeSystem& sys, State s0, const FixedPointSolveOptions& opts,
    const AttemptFn& attempt);

}  // namespace lsm::ode
