// Multi-start convergence checks (Section 4's practical recommendation:
// "one can check for convergence to the fixed point numerically using
// various starting points").
#pragma once

#include <vector>

#include "core/model.hpp"
#include "ode/solve.hpp"
#include "ode/state.hpp"

namespace lsm::analysis {

struct ConvergenceReport {
  std::size_t starts = 0;
  std::size_t converged = 0;  ///< reached the fixed point within tolerance
  double worst_final_distance = 0.0;
  std::size_t rhs_evals = 0;  ///< derivative evaluations across all starts
  [[nodiscard]] bool all_converged() const { return converged == starts; }
};

struct MultiStartOptions {
  /// How each start is driven toward the fixed point. Trajectory integrates
  /// the ODE forward in time -- the paper's literal experiment, probing the
  /// basin of attraction of the dynamics. Solver instead runs the
  /// fixed-point engine (core::solve_rung: Anderson, or the Krylov route's
  /// warmup and Newton finish) from each start: orders of
  /// magnitude cheaper, and it additionally checks that the accelerated
  /// solver is basin-robust, i.e. does not get captured by a spurious
  /// equilibrium of the truncated system when started far from s*.
  enum class Drive { Trajectory, Solver };
  Drive drive = Drive::Trajectory;
  /// Fixed-point method for Drive::Solver (ignored by Trajectory).
  ode::FixedPointMethod method = ode::FixedPointMethod::Auto;
  double t_max = 400.0;  ///< virtual-time horizon for Drive::Trajectory
  double tol = 1e-6;     ///< L1 acceptance distance from fixed_point
};

/// Generates `count` feasible random starting states for `model`
/// (monotone tails with geometric-ish decay of random rate and head mass).
[[nodiscard]] std::vector<ode::State> random_starts(
    const core::MeanFieldModel& model, std::size_t count, std::uint64_t seed);

/// Drives each start toward `fixed_point` per `opts` and reports how many
/// end within opts.tol (L1) of it.
[[nodiscard]] ConvergenceReport check_convergence(
    const core::MeanFieldModel& model, const std::vector<ode::State>& starts,
    const ode::State& fixed_point, const MultiStartOptions& opts = {});

}  // namespace lsm::analysis
