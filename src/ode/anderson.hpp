// Anderson acceleration AA(m) for the fixed points of autonomous systems
// ds/dt = f(s): accelerate the damped Picard map g(s) = s + gamma * f(s)
// by extrapolating over the last m residuals (Walker & Ni, SINUM 2011).
//
// Each iteration costs ONE derivative evaluation plus O(n m) of
// least-squares work: the residual-difference history keeps a QR
// factorization that is updated as columns enter and leave the window
// (ode/history_qr.hpp) instead of being refactored, so the solver
// reaches ||f||_inf ~ 1e-10 in tens of evaluations where time relaxation
// (steady_state.hpp) spends hundreds of thousands. Safeguards make it
// droppable wherever relaxation is used today:
//   * plain damped Picard warmup with automatic gamma backoff while the
//     map is locally expansive;
//   * restarts (history reset from the best iterate) after a run of
//     non-monotone residuals or when a new difference column is
//     numerically dependent on the kept ones;
//   * a divergence bail-out returning the best iterate with
//     converged = false so callers can fall back to relaxation.
//
// All workspace (iterates, the m-deep difference history, the QR factors)
// is allocated once at entry; iterations are heap-allocation-free
// (tests/hot_loop_alloc_test.cpp enforces this).
#pragma once

#include "ode/state.hpp"
#include "ode/system.hpp"

namespace lsm::ode {

struct AndersonOptions {
  std::size_t depth = 5;       ///< m, the residual history window
  double gamma = 0.5;          ///< Picard damping: g(s) = s + gamma f(s)
  double tol = 1e-10;          ///< stop when ||f(s)||_inf < tol
  std::size_t max_iter = 600;  ///< iteration cap (1 RHS evaluation each)
  std::size_t warmup = 2;      ///< plain damped Picard steps before AA
  /// Consecutive residual increases tolerated before the history is
  /// dropped and iteration restarts from the best iterate.
  std::size_t restart_patience = 3;
  /// Give up (converged = false) when the residual exceeds the best seen
  /// by this factor; callers fall back to relaxation from best_state.
  double divergence_factor = 1e3;
  /// Give up early (converged = false, best iterate returned) when the
  /// best residual has not improved for this many iterations: near the
  /// tolerance the least-squares history can go ill-conditioned and the
  /// iteration orbits its floor instead of crossing it. Callers with a
  /// Newton polish downstream accept such near-misses cheaply.
  std::size_t stall_patience = 200;
};

struct AndersonResult {
  State state;                ///< best iterate found (lowest residual)
  double residual_norm = 0.0; ///< ||f||_inf at state
  std::size_t iterations = 0;
  std::size_t rhs_evals = 0;
  std::size_t restarts = 0;
  bool converged = false;
};

/// Runs AA(m) from s0. Never throws on non-convergence: inspect
/// result.converged and fall back to relaxation from result.state.
[[nodiscard]] AndersonResult anderson_fixed_point(
    const OdeSystem& sys, State s0, const AndersonOptions& opts = {});

}  // namespace lsm::ode
