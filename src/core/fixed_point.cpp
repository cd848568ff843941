#include "core/fixed_point.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "ode/krylov.hpp"
#include "util/error.hpp"
#include "util/failure.hpp"
#include "util/fault_injection.hpp"
#include "util/json.hpp"

namespace lsm::core {

namespace {

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Restores the model's truncation on scope exit; keeps the Auto mode
/// exception-safe (set_truncation is const but sticky).
class TruncationGuard {
 public:
  explicit TruncationGuard(const MeanFieldModel& model)
      : model_(model), original_(model.truncation()) {}
  TruncationGuard(const TruncationGuard&) = delete;
  TruncationGuard& operator=(const TruncationGuard&) = delete;
  ~TruncationGuard() { model_.set_truncation(original_); }
  [[nodiscard]] std::size_t original() const noexcept { return original_; }

 private:
  const MeanFieldModel& model_;
  std::size_t original_;
};

/// Auto mode re-discretizes every auto-sized model; an explicit truncation
/// is a caller contract.
bool ladders(const MeanFieldModel& model, const FixedPointOptions& opts) {
  return opts.truncation == TruncationMode::Auto &&
         !model.truncation_explicit();
}

std::string solve_label(const MeanFieldModel& model) {
  return "model=" + model.name() +
         " lambda=" + util::Json::number_to_string(model.lambda()) +
         " L=" + std::to_string(model.truncation());
}

/// One iterative solve at the model's current truncation. Intermediate
/// ladder rungs pass loose = true: they only exist to produce warm starts
/// and tail-mass estimates, so relax_tol accuracy is plenty.
ode::FixedPointSolveResult iterate(const MeanFieldModel& model, ode::State s0,
                                   const FixedPointOptions& opts,
                                   std::size_t spent_evals, double elapsed,
                                   bool loose = false,
                                   bool relax_fallback = true,
                                   bool warm = false) {
  ode::FixedPointSolveOptions sopts;
  sopts.method = opts.method;
  sopts.throw_on_failure = opts.throw_on_failure;
  // Hand each rung only what is left of the ladder-wide budget.
  ode::carry_budget(opts, spent_evals, elapsed, sopts);
  sopts.tol = loose ? opts.relax_tol : std::min(opts.relax_tol, 1e-10);
  // Warm continuation solves with a Newton polish downstream stop the
  // accelerator at relax_tol: near-critical AA spends hundreds of weakly
  // contracting iterations on the last two decades, which the (chord)
  // polish closes in a handful of evaluations instead.
  if (warm && opts.polish) sopts.tol = opts.relax_tol;
  sopts.label = solve_label(model);
  sopts.anderson = opts.anderson;
  sopts.relax_fallback = relax_fallback;
  // With a Newton polish downstream a stalled-but-close Anderson run is
  // worth accepting over a relaxation fallback (see solve.hpp).
  if (opts.polish) sopts.anderson_accept_factor = 1e3;
  sopts.relax.deriv_tol = opts.relax_tol;
  sopts.relax.t_max = opts.t_max;
  sopts.relax.check_interval = opts.check_interval;
  sopts.relax.adaptive.rtol = 1e-9;   // keep the integrator's noise floor
  sopts.relax.adaptive.atol = 1e-12;  // below deriv_tol so relaxation ends
  // s0 is a continuation warm start: arm the ode-level safeguard so a
  // diverged or basin-escaped warm attempt is redone cold from the empty
  // state rather than trusted.
  if (warm) sopts.cold_start = model.empty_state();
  return solve_rung(model, std::move(s0), sopts, opts.krylov);
}

void accumulate(FixedPointResult& result,
                ode::FixedPointSolveResult&& rung) {
  result.state = std::move(rung.state);
  result.residual = rung.residual;
  result.method = rung.method;
  result.rhs_evals += rung.rhs_evals;
  result.iterations += rung.iterations;
  result.relax_time += rung.relax_time;
  result.fellback = result.fellback || rung.fellback;
  result.status = rung.status;
  result.failure = std::move(rung.failure);
}

/// Finalizes an early (non-Converged) return: the state fields describe
/// the best iterate at the rung where the ladder stopped. Any armed
/// TruncationGuard still restores the model itself on unwind.
FixedPointResult finish_failed(FixedPointResult&& result, std::size_t rung) {
  result.final_truncation = rung;
  result.state_truncation = rung;
  result.compact_state = result.state;
  return std::move(result);
}

/// The Newton finish to polish_tol. Its line search never ends above its
/// start, so the result is kept outright: `residual` is then the root
/// residual, and `polished` means the root system is solved. Inexact
/// Newton may stop shy of polish_tol on a hard system. `reuse` carries a
/// continuation chain's chord; without one the chord lives for this polish
/// only.
void polish(const MeanFieldModel& model, FixedPointResult& result,
            const FixedPointOptions& opts,
            ode::NewtonWorkspace* reuse = nullptr) {
  if (!opts.polish) return;
  ode::NewtonKrylovOptions kopts = opts.krylov;
  kopts.tol = opts.polish_tol;
  auto nk = newton_finish(model, std::move(result.state), kopts, reuse);
  result.state = std::move(nk.state);
  result.residual = nk.residual_norm;
  result.rhs_evals += nk.rhs_evals;
  result.iterations += nk.iterations;
  result.polished = result.residual <= opts.polish_tol;
}

/// Auto mode: re-extends the solution at the ladder's final rung back to
/// the constructed truncation. The grafted entries continue tails already
/// below tail_tol, so the observables move by less than the golden
/// tolerances, but the residual at the returned discretization can still
/// exceed polish_tol; a polished answer is then polished again there, so
/// that `polished` keeps meaning residual <= polish_tol.
void restore_truncation(const MeanFieldModel& model, FixedPointResult& result,
                        const FixedPointOptions& opts, std::size_t rung,
                        std::size_t original) {
  model.set_truncation(original);
  result.state = model.resized_tail_state(result.state, rung);
  ode::State f(model.dimension());
  model.root_residual(result.state, f);
  result.residual = ode::norm_linf(f);
  result.rhs_evals += 1;
  const bool was_polished = result.polished;
  result.polished = opts.polish && result.residual <= opts.polish_tol;
  if (was_polished && !result.polished) polish(model, result, opts);
}

/// Continuation warm solve: the warm state replaces the truncation ladder.
/// The state is geometrically re-discretized to a tail-mass-compatible L
/// (the previous λ's tail may be too short for this one — growing BEFORE
/// the solve avoids an Anderson failure at a starved truncation), solved
/// tightly once under the ode cold-start safeguard, tail-rechecked, and
/// polished (with the chain's Newton chord when supplied).
FixedPointResult solve_warm(const MeanFieldModel& model,
                            const FixedPointOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  TruncationGuard guard(model);
  const std::size_t cap = std::max(guard.original(), model.min_truncation());
  const bool ladder = ladders(model, opts);

  FixedPointResult result;
  std::size_t rung;
  ode::State start;
  if (!ladder) {
    // Explicit-truncation / Fixed-mode models solve at the constructed
    // truncation; the warm state is just re-discretized to it.
    rung = guard.original();
    model.set_truncation(rung);
    start = model.resized_tail_state(opts.warm_state, opts.warm_truncation);
  } else {
    // Snap the inherited truncation UP onto this model's ladder rung
    // sequence (max(min,24), doubling, capped): matching the cold
    // ladder's quantized rungs keeps warm and cold solves on the same
    // discretization, whose solutions agree to ~1e-12. An off-grid L
    // (the previous λ's cap, say) can sit just below the rung the cold
    // ladder would pick, and the two truncated systems then differ by
    // the boundary-suppression error — ~1e-9 at marginal λ.
    rung = std::min(cap, std::max<std::size_t>(model.min_truncation(), 24));
    while (rung < cap && rung < opts.warm_truncation) {
      rung = std::min(cap, 2 * rung);
    }
    model.set_truncation(rung);
    start = model.resized_tail_state(opts.warm_state, opts.warm_truncation);
    // Tail-mass-aware pre-growth of the inherited discretization: the
    // previous λ's tail may be too short for this one.
    while (rung < cap && model.tail_mass(start) > opts.tail_tol) {
      const std::size_t next = std::min(cap, 2 * rung);
      model.set_truncation(next);
      start = model.resized_tail_state(start, rung);
      rung = next;
    }
  }
  model.project(start);  // clean up the grafted extension

  auto first = iterate(model, std::move(start), opts, 0, since(t0),
                       /*loose=*/false, /*relax_fallback=*/true,
                       /*warm=*/true);
  result.warm = !first.warm_rejected;
  accumulate(result, std::move(first));
  if (result.status != ode::SolveStatus::Converged) {
    return finish_failed(std::move(result), rung);
  }

  // The tight solve can reveal tail mass the inherited profile had not
  // built up: grow and re-solve (still warm, still safeguarded).
  while (ladder && rung < cap &&
         model.tail_mass(result.state) > opts.tail_tol) {
    const std::size_t next = std::min(cap, 2 * rung);
    model.set_truncation(next);
    ode::State s = model.resized_tail_state(result.state, rung);
    rung = next;
    accumulate(result,
               iterate(model, std::move(s), opts, result.rhs_evals, since(t0),
                       /*loose=*/false, /*relax_fallback=*/true,
                       /*warm=*/true));
    if (result.status != ode::SolveStatus::Converged) {
      return finish_failed(std::move(result), rung);
    }
  }

  result.truncation_capped =
      ladder && model.tail_mass(result.state) > opts.tail_tol;
  // The chord workspace only serves genuinely warm chains: a rejected warm
  // attempt was answered by the cold path, which polishes with its own.
  polish(model, result, opts, result.warm ? opts.newton_reuse : nullptr);
  result.final_truncation = rung;
  result.compact_state = result.state;
  if (rung != guard.original()) {
    restore_truncation(model, result, opts, rung, guard.original());
  }
  result.state_truncation = guard.original();
  return result;
}

}  // namespace

ode::NewtonKrylovResult newton_finish(const MeanFieldModel& model,
                                      ode::State s,
                                      ode::NewtonKrylovOptions kopts,
                                      ode::NewtonWorkspace* reuse) {
  if (model.jacobian_bandwidth() > 0) {
    kopts.banded_precond_bandwidth = model.jacobian_bandwidth();
  }
  return ode::newton_krylov_fixed_point(RootSystem(model), std::move(s),
                                        kopts, reuse);
}

ode::FixedPointSolveResult solve_rung(const MeanFieldModel& model,
                                      ode::State s0,
                                      const ode::FixedPointSolveOptions& sopts,
                                      const ode::NewtonKrylovOptions& krylov) {
  if (sopts.method == ode::FixedPointMethod::Anderson ||
      sopts.method == ode::FixedPointMethod::Relax) {
    return ode::solve_fixed_point(model, std::move(s0), sopts);
  }
  return ode::solve_with_fallbacks(
      model, std::move(s0), sopts,
      [&](ode::State s, const ode::FixedPointSolveOptions& o) {
        const auto t0 = std::chrono::steady_clock::now();
        ode::Attempt out{ode::krylov_warmup(model, std::move(s), o)};
        ode::NewtonKrylovOptions kopts = krylov;
        kopts.tol = o.tol;
        ode::carry_budget(o, out.result.rhs_evals, since(t0), kopts);
        auto nk = newton_finish(model, std::move(out.result.state), kopts);
        out.result.state = std::move(nk.state);
        out.result.residual = nk.residual_norm;
        out.result.rhs_evals += nk.rhs_evals;
        out.result.iterations += nk.iterations;
        out.accepted = nk.converged;
        return out;
      });
}

FixedPointResult solve_fixed_point(const MeanFieldModel& model,
                                   const FixedPointOptions& opts) {
  if (const auto& injector = util::FaultInjector::instance();
      injector.armed()) {
    // One decision per solve, taken before any work so injected failures
    // leave no half-updated model/continuation state behind. The context
    // is truncation-independent so tests can predict it cheaply.
    const std::string context =
        "model=" + model.name() +
        " lambda=" + util::Json::number_to_string(model.lambda());
    if (injector.should_fail(util::FaultSite::SolverDiverge, context)) {
      util::Failure f;
      f.kind = util::FailureKind::SolverDiverged;
      f.message = "injected solver divergence";
      f.context = context;
      if (opts.throw_on_failure) throw util::FailureError(std::move(f));
      FixedPointResult failed;
      failed.status = ode::SolveStatus::Diverged;
      failed.failure = f.describe();
      return failed;
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  if (!opts.warm_state.empty()) {
    LSM_EXPECT(opts.warm_truncation > 0,
               "warm_state supplied without warm_truncation");
    return solve_warm(model, opts);
  }

  FixedPointResult result;
  if (!ladders(model, opts)) {
    accumulate(result, iterate(model, model.empty_state(), opts, 0, since(t0)));
    if (result.status != ode::SolveStatus::Converged) {
      return finish_failed(std::move(result), model.truncation());
    }
    polish(model, result, opts);
    result.final_truncation = model.truncation();
    result.state_truncation = model.truncation();
    result.compact_state = result.state;
    return result;
  }

  TruncationGuard guard(model);
  // The constructed truncation is the known-safe ceiling: the ladder never
  // grows past it, so an Auto solve can only match or shrink the work.
  const std::size_t cap = std::max(guard.original(), model.min_truncation());
  std::size_t rung =
      std::min(cap, std::max<std::size_t>(model.min_truncation(), 24));
  model.set_truncation(rung);
  ode::State start = model.empty_state();
  bool cold = true;  // start is the empty state, not a grafted warm start
  while (true) {
    // Loose rung solve, suppressing the relaxation fallback: a grafted
    // warm start occasionally misleads Anderson (the optimal profile at
    // the previous truncation can be structurally far from this rung's),
    // and a cold restart is orders of magnitude cheaper than relaxation.
    auto rung_result =
        iterate(model, std::move(start), opts, result.rhs_evals, since(t0),
                /*loose=*/true, /*relax_fallback=*/cold);
    if (rung_result.status == ode::SolveStatus::Converged &&
        rung_result.fellback && rung_result.residual > opts.relax_tol) {
      result.rhs_evals += rung_result.rhs_evals;
      result.iterations += rung_result.iterations;
      rung_result = iterate(model, model.empty_state(), opts,
                            result.rhs_evals, since(t0), /*loose=*/true);
    }
    accumulate(result, std::move(rung_result));
    if (result.status != ode::SolveStatus::Converged) {
      return finish_failed(std::move(result), rung);
    }
    const bool resolved =
        model.tail_mass(result.state) <= opts.tail_tol || rung >= cap;
    if (resolved) {
      // Tighten at this rung: warm-started, this costs a handful of
      // iterations on top of the loose solve. The tight solve can reveal
      // tail mass the loose one had not yet built up, so re-check before
      // accepting the rung as final.
      accumulate(result, iterate(model, std::move(result.state), opts,
                                 result.rhs_evals, since(t0)));
      if (result.status != ode::SolveStatus::Converged) {
        return finish_failed(std::move(result), rung);
      }
      const bool tail_resolved =
          model.tail_mass(result.state) <= opts.tail_tol;
      if (tail_resolved || rung >= cap) {
        result.truncation_capped = !tail_resolved;
        break;
      }
    }
    const std::size_t next = std::min(cap, 2 * rung);
    model.set_truncation(next);
    start = model.resized_tail_state(result.state, rung);
    cold = false;
    rung = next;
  }
  polish(model, result, opts);
  result.final_truncation = rung;
  result.compact_state = result.state;

  // Make the re-discretization invisible. The guard restores the
  // constructed truncation; extend the state back to match.
  if (rung != guard.original()) {
    restore_truncation(model, result, opts, rung, guard.original());
  }
  result.state_truncation = guard.original();
  return result;
}

FixedPointResult FixedPointContinuation::solve(const MeanFieldModel& model,
                                               FixedPointOptions opts) {
  if (state_.empty()) {
    opts.warm_state = ode::State{};
    opts.warm_truncation = 0;
    opts.newton_reuse = nullptr;
  } else {
    opts.warm_state = state_;
    opts.warm_truncation = truncation_;
    opts.newton_reuse = &newton_;
  }
  FixedPointResult result;
  try {
    result = core::solve_fixed_point(model, opts);
  } catch (...) {
    reset();  // carried state is suspect after any failure
    throw;
  }
  if (result.status != ode::SolveStatus::Converged) {
    reset();
    return result;
  }
  state_ = result.compact_state;
  truncation_ = result.final_truncation;
  return result;
}

void FixedPointContinuation::seed(ode::State state, std::size_t truncation) {
  state_ = std::move(state);
  truncation_ = truncation;
  newton_.reset();
}

void FixedPointContinuation::reset() {
  state_.clear();
  truncation_ = 0;
  newton_.reset();
}

double fixed_point_sojourn(const MeanFieldModel& model,
                           const FixedPointOptions& opts) {
  return model.mean_sojourn(solve_fixed_point(model, opts).state);
}

}  // namespace lsm::core
