// Implicit machinery for stiff mean-field systems (the Erlang stage models
// have eigenvalues ~ -2c, forcing explicit steps of O(1/c)):
//
//  * banded_fd_jacobian - the Jacobian band of f = sys.deriv by forward
//    differences. Two modes: per-column (exact band entries of any
//    Jacobian, n evaluations) and grouped Curtis-Powell-Reid (kl + ku + 1
//    evaluations, exact ONLY when the true Jacobian is banded -- the
//    mean-field models are band + low-rank, so they use per-column).
//  * ImplicitEulerBanded - backward Euler with an inexact (chord) Newton
//    whose linear solves use the banded Jacobian; the Jacobian is cached
//    across steps and refreshed lazily. Its Jacobian, I - hJ factors and
//    Newton vectors live in buffers sized by the first step, so later
//    steps do not touch the heap.
//  * stiff_relax_to_fixed_point - pseudo-transient continuation: backward
//    Euler with a step that doubles on success, converging to ds/dt = 0
//    in tens of cheap banded steps where the explicit relaxation needs
//    hundreds of thousands of evaluations.
#pragma once

#include <optional>
#include <string>

#include "ode/banded.hpp"
#include "ode/status.hpp"
#include "ode/system.hpp"

namespace lsm::ode {

enum class FdMode {
  PerColumn,  ///< exact band of any Jacobian; n derivative evaluations
  Grouped,    ///< Curtis-Powell-Reid; only for truly banded Jacobians
};

/// Default relative step of the banded FD Jacobians.
inline constexpr double kBandedFdEps = 1e-7;

/// Approximates the (kl, ku) band of the Jacobian of sys.deriv(t, .) at s.
BandedMatrix banded_fd_jacobian(const OdeSystem& sys, double t,
                                const State& s, std::size_t kl,
                                std::size_t ku,
                                FdMode mode = FdMode::PerColumn,
                                double eps = kBandedFdEps);

namespace detail {
/// Scratch states of a banded FD Jacobian build, sized on first use.
struct BandedFdScratch {
  State f0, f1, pert, h;
};
}  // namespace detail

struct ImplicitOptions {
  std::size_t kl = 1;
  std::size_t ku = 1;
  FdMode fd_mode = FdMode::PerColumn;
  double newton_tol = 1e-12;     ///< on ||s_{m+1} - s_m||_inf
  std::size_t max_newton = 50;   ///< inexact-Newton iteration cap
  std::size_t refresh_every = 5; ///< steps between Jacobian rebuilds
};

/// Backward Euler with a cached banded chord Jacobian.
class ImplicitEulerBanded {
 public:
  explicit ImplicitEulerBanded(ImplicitOptions options) : opts_(options) {}

  /// Attempts one step; returns false (leaving s untouched) when the
  /// Newton iteration fails to contract even with a fresh Jacobian, in
  /// which case the caller should retry with a smaller h.
  bool step(const OdeSystem& sys, double t, State& s, double h);

  /// Drops the cached Jacobian (e.g. after an external state change).
  void invalidate() noexcept { have_jac_ = false; }

 private:
  void refresh_jacobian(const OdeSystem& sys, double t, const State& s);
  bool newton_solve(const OdeSystem& sys, double t, const State& s, double h,
                    State& out);

  ImplicitOptions opts_;
  std::optional<BandedMatrix> jac_;  ///< cached df/ds band
  bool have_jac_ = false;            ///< jac_ holds the current chord
  std::size_t steps_since_jac_ = 0;
  std::optional<BandedLuSolver> lu_;  ///< I - h J, refactored per step
  detail::BandedFdScratch fd_;
  State f_, trial_, residual_, delta_;
};

struct StiffRelaxOptions {
  ImplicitOptions implicit{};
  double deriv_tol = 1e-10;  ///< fixed point criterion ||f||_inf
  double h0 = 0.1;
  double h_max = 1e7;
  std::size_t max_steps = 4000;
  std::string label;  ///< caller context prepended to failure errors
  /// Optional budgets (0 = unlimited); exhaustion fails the solve with
  /// SolveStatus::BudgetExhausted.
  std::size_t max_rhs_evals = 0;
  double max_wall_seconds = 0.0;
  /// Failures throw util::FailureError by default; set false to get a
  /// best-effort result with status/failure filled in instead.
  bool throw_on_failure = true;
};

struct StiffRelaxResult {
  State state;
  double deriv_norm = 0.0;
  std::size_t steps = 0;
  std::size_t rhs_evals = 0;  ///< derivative evaluations consumed
  SolveStatus status = SolveStatus::Converged;
  std::string failure;  ///< human-readable reason when status != Converged
};

/// Pseudo-transient continuation to the fixed point of `sys`. Step-size
/// underflow reports SolveStatus::Diverged; exhausting max_steps or a
/// budget reports BudgetExhausted — thrown as util::FailureError (a
/// util::Error subclass) unless opts.throw_on_failure is false.
StiffRelaxResult stiff_relax_to_fixed_point(const OdeSystem& sys, State s0,
                                            const StiffRelaxOptions& opts);

}  // namespace lsm::ode
