// Solver outcome status shared by every fixed-point path (relaxation,
// Anderson, Newton-Krylov, dispatch, core engine). Kept in its
// own header so the low-level solvers can report it without pulling in
// the dispatcher.
#pragma once

namespace lsm::ode {

enum class SolveStatus {
  Converged,        ///< residual/derivative norm reached tolerance
  Diverged,         ///< non-finite derivative norm
  BudgetExhausted,  ///< eval / wall / horizon budget ran out first
};

[[nodiscard]] const char* to_string(SolveStatus status) noexcept;

}  // namespace lsm::ode
