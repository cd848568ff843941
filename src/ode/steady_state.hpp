// Steady-state (fixed point) location by relaxation: integrate the ODE
// until ||f(s)||_inf falls below tolerance. Robust for the mean-field
// systems in this library because their trajectories converge to the fixed
// point from reasonable starting states (paper, Section 4). Slow — it pays
// O(10^5) RHS evaluations at high load — so solve.hpp's dispatcher only
// uses it as the safety net behind Anderson acceleration.
#pragma once

#include <string>

#include "ode/integrator.hpp"
#include "ode/status.hpp"
#include "ode/system.hpp"

namespace lsm::ode {

struct SteadyStateOptions {
  double deriv_tol = 1e-11;   ///< stop when ||f(s)||_inf < deriv_tol
  double t_max = 1e6;         ///< give up beyond this horizon
  double check_interval = 1.0;  ///< how often to test the derivative norm
  AdaptiveOptions adaptive{};
  /// Caller context (e.g. "model=threshold-ws(T=4) lambda=0.95 L=78")
  /// prepended to the non-convergence error so sweep failures are
  /// triageable without a debugger.
  std::string label;
  /// Optional budgets (0 = unlimited). Exhausting either one fails the
  /// solve with SolveStatus::BudgetExhausted; they exist so a runaway
  /// near-critical solve costs a bounded slice of a sweep, not the run.
  std::size_t max_rhs_evals = 0;
  double max_wall_seconds = 0.0;
  /// Failures throw util::FailureError by default; set false to get a
  /// result whose status/failure fields describe the problem instead.
  bool throw_on_failure = true;
};

struct SteadyStateResult {
  State state;
  double time = 0.0;        ///< integration time consumed
  double deriv_norm = 0.0;  ///< final ||f(s)||_inf
  std::size_t rhs_evals = 0;  ///< derivative evaluations consumed
  SolveStatus status = SolveStatus::Converged;
  std::string failure{};  ///< human-readable reason when status != Converged
};

/// Relaxes `s0` to a fixed point of `sys`. Non-convergence (horizon or
/// budget exhausted, non-finite derivative norm) throws
/// util::FailureError — a util::Error subclass carrying opts.label, the
/// final derivative norm and the evaluation count — or, with
/// opts.throw_on_failure=false, returns the best-effort state with
/// status/failure set.
SteadyStateResult relax_to_fixed_point(const OdeSystem& sys, State s0,
                                       const SteadyStateOptions& opts = {});

}  // namespace lsm::ode
