// Batched lambda-sweep driver: solves a whole grid of arrival rates for
// one model family by iterating all lanes of a block TOGETHER through the
// models' SIMD-friendly batched kernels (MeanFieldModel::rhs_batch), with
// per-lane Newton polish and a scalar full-solve fallback for lanes the
// batched phases cannot finish. The point is throughput: one
// component-major pass evaluates eight lambdas' right-hand sides with
// stride-1 inner loops, where the scalar sweep walks the same memory eight
// times.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/model.hpp"
#include "ode/krylov.hpp"

namespace lsm::core {

/// Evaluates a block of states through the model's batched kernel when it
/// has one, or lane-by-lane scalar deriv() otherwise. Either way lane l
/// equals models[l]->deriv() bit for bit: a model with a kernel has no
/// other recurrence, its deriv() is the kernel's one-lane call.
/// Component-major layout throughout: x[i * nb + l] is component i of
/// lane l. The scalar fallback evaluates lane l with models[l] (so
/// per-lane arrival rates work without a lambdas array), and all scratch
/// is owned and reused — steady-state eval() calls are allocation-free
/// (hot_loop_alloc_test).
class RhsBatchEvaluator {
 public:
  /// `models` must all share the model type, truncation and dimension;
  /// lane l is evaluated at models[l]'s arrival rate.
  explicit RhsBatchEvaluator(
      std::vector<const MeanFieldModel*> models);

  /// Writes f into dx for all lanes (root = false: plain rhs; true: the
  /// root_residual map used by Newton).
  void eval(const double* x, double* dx, bool root = false);

  [[nodiscard]] std::size_t lanes() const noexcept { return models_.size(); }
  [[nodiscard]] std::size_t dimension() const noexcept { return dim_; }
  /// Scalar-equivalent derivative evaluations so far (a batched pass over
  /// nb lanes counts nb, matching ode::CountingSystem's cost model).
  [[nodiscard]] std::size_t rhs_evals() const noexcept { return evals_; }
  /// Passes served by the batched kernel (0 means every call fell back).
  [[nodiscard]] std::size_t batch_passes() const noexcept { return passes_; }

 private:
  std::vector<const MeanFieldModel*> models_;
  std::size_t dim_;
  std::vector<double> lambdas_;
  ode::State lane_x_, lane_f_;  // scalar-fallback scratch
  std::size_t evals_ = 0;
  std::size_t passes_ = 0;
};

struct BatchSweepOptions {
  std::size_t lanes = 8;  ///< lambdas solved per batched block
  /// Damped-Picard smoothing passes per block (s += gamma * f(s), batched
  /// across lanes) before the per-lane polish. Smoothing only has to drag
  /// the extrapolated seeds into the Newton basin.
  std::size_t smoothing_passes = 8;
  double smoothing_gamma = 0.5;
  /// Extrapolation-factor clamp for seeding a lane from the two previous
  /// solved lambdas: near-critical curves bend hard, so seeds more than a
  /// few grid steps of linear continuation out are worse than closer ones.
  double extrapolation_max = 3.0;
  double tol = 1e-10;         ///< ||f||_inf a lane must reach, else fallback
  double polish_tol = 1e-13;  ///< per-lane Newton target
  /// Dense-chord polish bound: above it lanes polish matrix-free
  /// (Newton-Krylov). Much lower than FixedPointOptions::newton_max_dim
  /// because batch lanes start from smoothed continuation seeds already in
  /// the quadratic basin, where a Krylov finish costs a handful of O(n)
  /// evaluations — far cheaper than an O(n^3) dense factorization.
  std::size_t newton_max_dim = 600;
  ode::NewtonKrylovOptions krylov{};
};

struct BatchSweepPoint {
  double lambda = 0.0;
  double sojourn = 0.0;
  double residual = 0.0;  ///< final ||root_residual||_inf of the lane
  /// The batched phases could not finish this lane; a standalone scalar
  /// core::solve_fixed_point produced the reported values.
  bool fallback = false;
};

struct BatchSweepResult {
  std::vector<BatchSweepPoint> points;  ///< one per lambda, input order
  std::size_t rhs_evals = 0;      ///< scalar-equivalent evals, all phases
  std::size_t batch_passes = 0;   ///< batched kernel invocations
  std::size_t jacobian_builds = 0;
  std::size_t fallback_solves = 0;
};

/// Solves the fixed point at every lambda in `lambdas` (ascending) for the
/// family `factory(lambda)`. Blocks of opts.lanes lambdas run together:
/// seeds come from linear extrapolation of the two previous solved points
/// (the first block grows from one cold solve), batched damped Picard
/// smoothing pulls every lane into the Newton basin at once, and each lane
/// is finished by a chord/Krylov Newton polish. Lanes that miss opts.tol
/// fall back to a scalar solve, so the result is always trustworthy — the
/// batching is a throughput optimization, never an accuracy compromise.
[[nodiscard]] BatchSweepResult batched_lambda_sweep(
    const std::function<std::unique_ptr<MeanFieldModel>(double)>& factory,
    const std::vector<double>& lambdas, const BatchSweepOptions& opts = {});

}  // namespace lsm::core
