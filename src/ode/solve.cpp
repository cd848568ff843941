#include "ode/solve.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "ode/integrator.hpp"
#include "util/error.hpp"
#include "util/failure.hpp"

namespace lsm::ode {

namespace {

/// Tracks the dispatcher-level eval/wall budget across phases so nested
/// calls (fallback relaxation, cold re-runs) only get what is left.
struct Budget {
  std::size_t max_evals;
  double max_seconds;
  std::chrono::steady_clock::time_point start;

  explicit Budget(const FixedPointSolveOptions& opts)
      : max_evals(opts.max_rhs_evals),
        max_seconds(opts.max_wall_seconds),
        start(std::chrono::steady_clock::now()) {}

  [[nodiscard]] double elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }

  [[nodiscard]] bool exhausted(std::size_t spent_evals) const {
    if (max_evals != 0 && spent_evals >= max_evals) return true;
    if (max_seconds > 0.0 && elapsed() >= max_seconds) return true;
    return false;
  }

  /// Shrinks the budget fields of nested options to the remainder. A
  /// limited budget never becomes 0 (the "unlimited" sentinel): fully
  /// spent maps to the smallest value the nested solver fails fast on.
  void carry_into(FixedPointSolveOptions& opts, std::size_t spent_evals) const {
    if (max_evals != 0) {
      opts.max_rhs_evals = max_evals > spent_evals ? max_evals - spent_evals : 1;
    }
    if (max_seconds > 0.0) {
      opts.max_wall_seconds = std::max(max_seconds - elapsed(), 1e-9);
    }
  }
};

double distance_linf(const State& a, const State& b) {
  double d = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    d = std::max(d, std::abs(a[i] - b[i]));
  }
  return d;
}

/// Basin-escape probe for warm starts: integrate the REAL dynamics a short
/// horizon from the warm start and check the flow is approaching the
/// candidate fixed point. The physical equilibrium is by definition the
/// attractor of forward integration from the start, so a candidate the
/// flow moves away from sits in the wrong basin (the truncated
/// StagedTransferWS bistability is the concrete failure this guards).
/// Returns true when the candidate must be rejected; adds the probe's
/// evaluations to `evals`.
bool basin_escaped(const OdeSystem& sys, const State& start,
                   const State& candidate, const FixedPointSolveOptions& opts,
                   std::size_t& evals) {
  const double moved = distance_linf(start, candidate);
  if (moved <= opts.basin_check_dist) return false;
  CountingSystem counted(sys);
  State probe = start;
  AdaptiveOptions aopts;
  aopts.rtol = 1e-6;  // the probe only needs the sign of the distance change
  aopts.atol = 1e-9;
  integrate_adaptive(counted, probe, 0.0, opts.basin_probe_time, aopts);
  evals += counted.evals();
  // Near-critical points contract slowly, so require approach rather than
  // arrival; ties (flow not approaching at all) count as escapes.
  return distance_linf(probe, candidate) >= moved;
}

FixedPointSolveResult run_relax(const OdeSystem& sys, State s0,
                                const FixedPointSolveOptions& opts) {
  SteadyStateOptions ropts = opts.relax;
  // The explicit safety net may run to a looser target than the main tol
  // (callers polish afterwards); take whichever of the two is looser.
  ropts.deriv_tol = std::max(opts.tol, opts.relax.deriv_tol);
  if (ropts.label.empty()) ropts.label = opts.label;
  if (opts.max_rhs_evals != 0) ropts.max_rhs_evals = opts.max_rhs_evals;
  if (opts.max_wall_seconds > 0.0) {
    ropts.max_wall_seconds = opts.max_wall_seconds;
  }
  ropts.throw_on_failure = opts.throw_on_failure;
  SteadyStateResult relaxed = relax_to_fixed_point(sys, std::move(s0), ropts);
  FixedPointSolveResult out;
  out.state = std::move(relaxed.state);
  out.residual = relaxed.deriv_norm;
  out.method = FixedPointMethod::Relax;
  out.rhs_evals = relaxed.rhs_evals;
  out.relax_time = relaxed.time;
  out.status = relaxed.status;
  out.failure = std::move(relaxed.failure);
  return out;
}

FixedPointSolveResult run_anderson(const OdeSystem& sys, State s0,
                                   const FixedPointSolveOptions& opts);
FixedPointSolveResult run_krylov(const OdeSystem& sys, State s0,
                                 const FixedPointSolveOptions& opts);

/// Discards a warm attempt and re-runs the calling path cold from
/// opts.cold_start (the Krylov runner must come back as Krylov: its cold
/// behaviour, not Anderson's, is the contract warm rejection restores).
/// Recursion is bounded: the nested options clear cold_start, so the
/// re-run is an ordinary cold solve.
FixedPointSolveResult rerun_cold(const OdeSystem& sys,
                                 const FixedPointSolveOptions& opts,
                                 bool krylov) {
  FixedPointSolveOptions copts = opts;
  State cold = std::move(copts.cold_start);
  copts.cold_start = State{};
  return krylov ? run_krylov(sys, std::move(cold), copts)
                : run_anderson(sys, std::move(cold), copts);
}

/// Shared out-of-budget exit: hand back the best iterate marked
/// BudgetExhausted, or throw the SolverBudget failure.
FixedPointSolveResult budget_exhausted_result(
    const FixedPointSolveOptions& opts, State state, double residual,
    FixedPointMethod method, std::size_t rhs_evals, std::size_t iterations,
    bool warm_rejected) {
  FixedPointSolveResult out;
  out.state = std::move(state);
  out.residual = residual;
  out.method = method;
  out.rhs_evals = rhs_evals;
  out.iterations = iterations;
  out.fellback = true;
  out.warm_rejected = warm_rejected;
  out.status = SolveStatus::BudgetExhausted;
  out.failure =
      "solve_fixed_point: budget exhausted before convergence" +
      (opts.label.empty() ? std::string() : " [" + opts.label + "]") +
      ": residual=" + std::to_string(out.residual) +
      " rhs_evals=" + std::to_string(out.rhs_evals);
  if (opts.throw_on_failure) {
    util::Failure f;
    f.kind = util::FailureKind::SolverBudget;
    f.message = out.failure;
    f.context = opts.label;
    throw util::FailureError(std::move(f));
  }
  return out;
}

FixedPointSolveResult run_anderson(const OdeSystem& sys, State s0,
                                   const FixedPointSolveOptions& opts) {
  const Budget budget(opts);
  const bool warm = !opts.cold_start.empty();
  AndersonOptions aopts = opts.anderson;
  aopts.tol = opts.tol;
  if (opts.max_rhs_evals != 0) {
    // Acceleration costs ~1 eval per iteration, so the eval budget caps
    // the iteration count (floor 2 keeps the result well-formed).
    aopts.max_iter =
        std::min(aopts.max_iter, std::max<std::size_t>(opts.max_rhs_evals, 2));
  }
  // Out-of-budget exit shared by every phase transition below: hand back
  // Anderson's best iterate marked BudgetExhausted (or throw).
  auto budget_failure = [&opts](AndersonResult&& aa, std::size_t extra,
                                bool warm_rejected) -> FixedPointSolveResult {
    return budget_exhausted_result(opts, std::move(aa.state),
                                   aa.residual_norm,
                                   FixedPointMethod::Anderson,
                                   aa.rhs_evals + extra, aa.iterations,
                                   warm_rejected);
  };
  // Keep the caller's start around: if acceleration fails we relax from
  // THERE, not from Anderson's best iterate. Truncated systems can be
  // bistable, and the physically meaningful equilibrium is the one that
  // forward time integration reaches from the caller's start -- a diverged
  // Anderson iterate may already sit in the wrong basin. Warm solves also
  // need the start for the basin probe.
  State start;
  if (opts.relax_fallback || warm) start = s0;
  AndersonResult aa = anderson_fixed_point(sys, std::move(s0), aopts);
  if (aa.converged ||
      aa.residual_norm <= opts.anderson_accept_factor * aopts.tol) {
    std::size_t probe_evals = 0;
    if (warm && basin_escaped(sys, start, aa.state, opts, probe_evals)) {
      if (budget.exhausted(aa.rhs_evals + probe_evals)) {
        return budget_failure(std::move(aa), probe_evals, true);
      }
      FixedPointSolveOptions copts = opts;
      budget.carry_into(copts, aa.rhs_evals + probe_evals);
      FixedPointSolveResult out = rerun_cold(sys, copts, /*krylov=*/false);
      out.rhs_evals += aa.rhs_evals + probe_evals;
      out.warm_rejected = true;
      return out;
    }
    FixedPointSolveResult out;
    out.state = std::move(aa.state);
    out.residual = aa.residual_norm;
    out.method = FixedPointMethod::Anderson;
    out.rhs_evals = aa.rhs_evals + probe_evals;
    out.iterations = aa.iterations;
    return out;
  }
  if (warm) {
    // Warm acceleration stalled or diverged: never fall back from the warm
    // iterate. Re-run the whole cold path (including its own fallback
    // semantics) so the answer is exactly what a cold caller would get.
    if (budget.exhausted(aa.rhs_evals)) {
      return budget_failure(std::move(aa), 0, true);
    }
    FixedPointSolveOptions copts = opts;
    budget.carry_into(copts, aa.rhs_evals);
    FixedPointSolveResult out = rerun_cold(sys, copts, /*krylov=*/false);
    out.rhs_evals += aa.rhs_evals;
    out.warm_rejected = true;
    return out;
  }
  if (!opts.relax_fallback) {
    // Caller will orchestrate its own retry: hand back the best iterate.
    FixedPointSolveResult out;
    out.state = std::move(aa.state);
    out.residual = aa.residual_norm;
    out.method = FixedPointMethod::Anderson;
    out.rhs_evals = aa.rhs_evals;
    out.iterations = aa.iterations;
    out.fellback = true;
    return out;
  }
  // Acceleration stalled or diverged: relax from the original start so the
  // fallback reproduces the plain-relaxation result exactly.
  if (budget.exhausted(aa.rhs_evals)) {
    return budget_failure(std::move(aa), 0, false);
  }
  FixedPointSolveOptions fopts = opts;
  budget.carry_into(fopts, aa.rhs_evals);
  FixedPointSolveResult out = run_relax(sys, std::move(start), fopts);
  out.rhs_evals += aa.rhs_evals;
  out.iterations = aa.iterations;
  out.fellback = true;
  return out;
}

/// The large-system path: a cheap Anderson warmup into the Newton basin,
/// then matrix-free Newton-GMRES for the remaining digits. Mirrors
/// run_anderson's warm/cold/fallback/budget ladder so callers see the same
/// contract whichever path Auto picks.
FixedPointSolveResult run_krylov(const OdeSystem& sys, State s0,
                                 const FixedPointSolveOptions& opts) {
  const Budget budget(opts);
  const bool warm = !opts.cold_start.empty();
  State start;
  if (opts.relax_fallback || warm) start = s0;

  AndersonOptions aopts = opts.anderson;
  aopts.tol = std::max(opts.tol, opts.krylov_warmup_tol);
  if (opts.max_rhs_evals != 0) {
    aopts.max_iter =
        std::min(aopts.max_iter, std::max<std::size_t>(opts.max_rhs_evals, 2));
  }
  // Newton starts from the warmup's best iterate whether or not the warmup
  // "converged": its line search judges the iterate on the true residual.
  AndersonResult aa = anderson_fixed_point(sys, std::move(s0), aopts);

  NewtonKrylovOptions kopts = opts.krylov;
  kopts.tol = opts.tol;
  if (opts.jacobian_bandwidth > 0) {
    kopts.banded_precond_bandwidth = opts.jacobian_bandwidth;
  }
  if (budget.max_evals != 0) {
    kopts.max_rhs_evals =
        budget.max_evals > aa.rhs_evals ? budget.max_evals - aa.rhs_evals : 1;
  }
  if (budget.max_seconds > 0.0) {
    kopts.max_wall_seconds = std::max(budget.max_seconds - budget.elapsed(),
                                      1e-9);
  }
  NewtonKrylovResult nk =
      newton_krylov_fixed_point(sys, std::move(aa.state), kopts);
  const std::size_t spent = aa.rhs_evals + nk.rhs_evals;
  const std::size_t iters = aa.iterations + nk.iterations;

  if (nk.converged) {
    std::size_t probe_evals = 0;
    if (warm && basin_escaped(sys, start, nk.state, opts, probe_evals)) {
      if (budget.exhausted(spent + probe_evals)) {
        return budget_exhausted_result(opts, std::move(nk.state),
                                       nk.residual_norm,
                                       FixedPointMethod::Krylov,
                                       spent + probe_evals, iters, true);
      }
      FixedPointSolveOptions copts = opts;
      budget.carry_into(copts, spent + probe_evals);
      FixedPointSolveResult out = rerun_cold(sys, copts, /*krylov=*/true);
      out.rhs_evals += spent + probe_evals;
      out.warm_rejected = true;
      return out;
    }
    FixedPointSolveResult out;
    out.state = std::move(nk.state);
    out.residual = nk.residual_norm;
    out.method = FixedPointMethod::Krylov;
    out.rhs_evals = spent + probe_evals;
    out.iterations = iters;
    return out;
  }
  if (nk.budget_exhausted || budget.exhausted(spent)) {
    return budget_exhausted_result(opts, std::move(nk.state),
                                   nk.residual_norm, FixedPointMethod::Krylov,
                                   spent, iters, false);
  }
  if (warm) {
    FixedPointSolveOptions copts = opts;
    budget.carry_into(copts, spent);
    FixedPointSolveResult out = rerun_cold(sys, copts, /*krylov=*/true);
    out.rhs_evals += spent;
    out.warm_rejected = true;
    return out;
  }
  if (!opts.relax_fallback) {
    FixedPointSolveResult out;
    out.state = std::move(nk.state);
    out.residual = nk.residual_norm;
    out.method = FixedPointMethod::Krylov;
    out.rhs_evals = spent;
    out.iterations = iters;
    out.fellback = true;
    return out;
  }
  FixedPointSolveOptions fopts = opts;
  budget.carry_into(fopts, spent);
  FixedPointSolveResult out = run_relax(sys, std::move(start), fopts);
  out.rhs_evals += spent;
  out.iterations = iters;
  out.fellback = true;
  return out;
}

}  // namespace

const char* to_string(SolveStatus status) noexcept {
  switch (status) {
    case SolveStatus::Converged: return "converged";
    case SolveStatus::Diverged: return "diverged";
    case SolveStatus::BudgetExhausted: return "budget-exhausted";
  }
  return "?";
}

const std::vector<std::string>& fixed_point_method_names() {
  // Declaration order of FixedPointMethod; parse/to_string/CLI listings all
  // index this one list.
  static const std::vector<std::string> names = {"auto", "relax", "anderson",
                                                 "krylov"};
  return names;
}

const char* to_string(FixedPointMethod method) noexcept {
  switch (method) {
    case FixedPointMethod::Auto: return "auto";
    case FixedPointMethod::Relax: return "relax";
    case FixedPointMethod::Anderson: return "anderson";
    case FixedPointMethod::Krylov: return "krylov";
  }
  return "?";
}

FixedPointMethod parse_fixed_point_method(const std::string& name) {
  const auto& names = fixed_point_method_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (name == names[i]) return static_cast<FixedPointMethod>(i);
  }
  std::string expected;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i != 0) expected += '|';
    expected += names[i];
  }
  throw util::Error("unknown fixed-point method '" + name + "' (expected " +
                    expected + ")");
}

FixedPointSolveResult solve_fixed_point(const OdeSystem& sys, State s0,
                                        const FixedPointSolveOptions& opts) {
  LSM_EXPECT(s0.size() == sys.dimension(),
             "solve_fixed_point: state dimension mismatch");
  switch (opts.method) {
    case FixedPointMethod::Relax:
      return run_relax(sys, std::move(s0), opts);
    case FixedPointMethod::Anderson:
      return run_anderson(sys, std::move(s0), opts);
    case FixedPointMethod::Krylov:
      return run_krylov(sys, std::move(s0), opts);
    case FixedPointMethod::Auto:
      break;
  }
  if (opts.jacobian_bandwidth > 0 ||
      (opts.krylov_auto_dim != 0 && sys.dimension() >= opts.krylov_auto_dim)) {
    return run_krylov(sys, std::move(s0), opts);
  }
  return run_anderson(sys, std::move(s0), opts);
}

}  // namespace lsm::ode
