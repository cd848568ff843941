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
  std::size_t max_rhs_evals;
  double max_wall_seconds;
  std::chrono::steady_clock::time_point start;

  explicit Budget(const FixedPointSolveOptions& opts)
      : max_rhs_evals(opts.max_rhs_evals),
        max_wall_seconds(opts.max_wall_seconds),
        start(std::chrono::steady_clock::now()) {}

  [[nodiscard]] double elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }

  [[nodiscard]] bool exhausted(std::size_t spent_evals) const {
    if (max_rhs_evals != 0 && spent_evals >= max_rhs_evals) return true;
    if (max_wall_seconds > 0.0 && elapsed() >= max_wall_seconds) return true;
    return false;
  }

  /// Shrinks the budget fields of nested options to the remainder.
  void carry_into(FixedPointSolveOptions& opts, std::size_t spent_evals) const {
    carry_budget(*this, spent_evals, elapsed(), opts);
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

/// Anderson from s0 to `tol`: its best iterate, whether or not it got there.
FixedPointSolveResult accelerate(const OdeSystem& sys, State s0,
                                 const FixedPointSolveOptions& opts,
                                 double tol, FixedPointMethod method) {
  AndersonOptions aopts = opts.anderson;
  aopts.tol = tol;
  if (opts.max_rhs_evals != 0) {
    // Acceleration costs ~1 eval per iteration, so the eval budget caps
    // the iteration count (floor 2 keeps the result well-formed).
    aopts.max_iter =
        std::min(aopts.max_iter, std::max<std::size_t>(opts.max_rhs_evals, 2));
  }
  AndersonResult aa = anderson_fixed_point(sys, std::move(s0), aopts);
  FixedPointSolveResult out;
  out.state = std::move(aa.state);
  out.residual = aa.residual_norm;
  out.method = method;
  out.rhs_evals = aa.rhs_evals;
  out.iterations = aa.iterations;
  return out;
}

/// Shared out-of-budget exit: hand back the best iterate marked
/// BudgetExhausted, or throw the SolverBudget failure.
FixedPointSolveResult budget_exhausted_result(
    const FixedPointSolveOptions& opts, FixedPointSolveResult out,
    bool warm_rejected) {
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

}  // namespace

FixedPointSolveResult solve_with_fallbacks(const OdeSystem& sys, State s0,
                                           const FixedPointSolveOptions& opts,
                                           const AttemptFn& attempt) {
  const Budget budget(opts);
  const bool warm = !opts.cold_start.empty();
  // Keep the caller's start around: if the attempt fails we relax from
  // THERE, not from its best iterate. Truncated systems can be bistable,
  // and the physically meaningful equilibrium is the one that forward time
  // integration reaches from the caller's start -- a diverged iterate may
  // already sit in the wrong basin. Warm solves also need the start for
  // the basin probe.
  State start;
  if (opts.relax_fallback || warm) start = s0;
  Attempt tried = attempt(std::move(s0), opts);
  FixedPointSolveResult& out = tried.result;
  if (tried.accepted) {
    if (!warm || !basin_escaped(sys, start, out.state, opts, out.rhs_evals)) {
      return std::move(out);
    }
  } else if (budget.exhausted(out.rhs_evals)) {
    return budget_exhausted_result(opts, std::move(out), false);
  }
  if (warm) {
    // A warm attempt that failed or escaped its basin: never fall back from
    // the warm iterate. Re-run the whole cold path (including its own
    // fallback semantics) so the answer is exactly what a cold caller would
    // get. The nested options clear cold_start, so the re-run is an
    // ordinary cold solve.
    if (budget.exhausted(out.rhs_evals)) {
      return budget_exhausted_result(opts, std::move(out), true);
    }
    FixedPointSolveOptions copts = opts;
    State cold = std::move(copts.cold_start);
    copts.cold_start = State{};
    budget.carry_into(copts, out.rhs_evals);
    FixedPointSolveResult redo =
        solve_with_fallbacks(sys, std::move(cold), copts, attempt);
    redo.rhs_evals += out.rhs_evals;
    redo.warm_rejected = true;
    return redo;
  }
  if (!opts.relax_fallback) {
    // Caller will orchestrate its own retry: hand back the best iterate.
    out.fellback = true;
    return std::move(out);
  }
  // Relax from the original start so the fallback reproduces the
  // plain-relaxation result exactly.
  FixedPointSolveOptions fopts = opts;
  budget.carry_into(fopts, out.rhs_evals);
  FixedPointSolveResult relaxed = run_relax(sys, std::move(start), fopts);
  relaxed.rhs_evals += out.rhs_evals;
  relaxed.iterations = out.iterations;
  relaxed.fellback = true;
  return relaxed;
}

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

FixedPointSolveResult krylov_warmup(const OdeSystem& sys, State s0,
                                    const FixedPointSolveOptions& opts) {
  LSM_EXPECT(s0.size() == sys.dimension(),
             "krylov_warmup: state dimension mismatch");
  // The warmup only has to reach the caller's Newton basin.
  return accelerate(sys, std::move(s0), opts,
                    std::max(opts.tol, opts.krylov_warmup_tol),
                    FixedPointMethod::Krylov);
}

FixedPointSolveResult solve_fixed_point(const OdeSystem& sys, State s0,
                                        const FixedPointSolveOptions& opts) {
  LSM_EXPECT(s0.size() == sys.dimension(),
             "solve_fixed_point: state dimension mismatch");
  LSM_EXPECT(opts.method == FixedPointMethod::Anderson ||
                 opts.method == FixedPointMethod::Relax,
             "solve_fixed_point: the Krylov route (auto, krylov) needs a "
             "Newton finish (krylov_warmup, then Newton)");
  if (opts.method == FixedPointMethod::Relax) {
    return run_relax(sys, std::move(s0), opts);
  }
  const auto anderson = [&sys](State s, const FixedPointSolveOptions& o) {
    Attempt out{
        accelerate(sys, std::move(s), o, o.tol, FixedPointMethod::Anderson)};
    // Anderson converged exactly when its residual is below tol.
    const double r = out.result.residual;
    out.accepted = r < o.tol || r <= o.anderson_accept_factor * o.tol;
    return out;
  };
  return solve_with_fallbacks(sys, std::move(s0), opts, anderson);
}

}  // namespace lsm::ode
