// Threshold work stealing (paper, Section 2.3; the simplest WS model of
// Section 2.2 is the special case T = 2, and T = 0 turns stealing off:
// the no-stealing baseline of equation (1)).
//
// A processor that completes its final task probes one uniformly random
// victim and steals the tail task iff the victim holds at least T tasks.
// Mean-field equations (4)-(6):
//
//   ds_1/dt = l(s_0 - s_1) - (s_1 - s_2)(1 - s_T)
//   ds_i/dt = l(s_{i-1} - s_i) - (s_i - s_{i+1})                2 <= i < T
//   ds_i/dt = l(s_{i-1} - s_i) - (s_i - s_{i+1})(1 + s_1 - s_2)     i >= T
//
// Closed-form fixed point (Section 2.3):
//   pi_T = ((1+l) - sqrt((1+l)^2 - 4 l^T)) / 2
//   pi_i = A + B l^i for 1 <= i <= T with B = 1/(1-pi_T), A = -l pi_T/(1-pi_T)
//   pi_i = pi_T * rho^{i-T} for i >= T with rho = l / (1 + l - pi_2).
//
// The service may be any phase-type distribution (per-phase occupancy
// state, core/phase_type_ws.hpp); the equations above are its unit
// exponential case, which the kernel evaluates bit for bit in their
// operation order. The closed forms hold at unit exponential service.
#pragma once

#include <utility>

#include "core/phase_type_ws.hpp"

namespace lsm::core {

class ThresholdWS : public PhaseTypeModelBase {
 public:
  /// Unit exponential service. `threshold` T >= 2, or 0 for no stealing;
  /// truncation = 0 picks an automatic L.
  ThresholdWS(double lambda, std::size_t threshold, std::size_t truncation = 0);
  /// Phase-type service of mean E[S], lambda E[S] < 1.
  ThresholdWS(double lambda, PhaseType service, std::size_t threshold,
              std::size_t truncation = 0);

  [[nodiscard]] bool rhs_batch(std::size_t nb, const double* x,
                               double* dx) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::size_t threshold() const noexcept { return threshold_; }

  /// The closed forms below hold for T >= 2 under unit exponential
  /// service and throw otherwise.
  /// pi_T from the quadratic ((1+l) - sqrt((1+l)^2 - 4 l^T)) / 2.
  [[nodiscard]] double analytic_pi_threshold() const;
  /// pi_2 = l (l - pi_T) / (1 - pi_T).
  [[nodiscard]] double analytic_pi2() const;
  /// Geometric tail ratio beyond T: l / (1 + l - pi_2).
  [[nodiscard]] double analytic_tail_ratio() const;
  /// Full closed-form fixed point, truncated to this model's dimension.
  [[nodiscard]] ode::State analytic_fixed_point() const;
  /// Closed-form E[T] via Little's law on the analytic fixed point.
  [[nodiscard]] double analytic_sojourn() const;
};

/// The paper's initial "simple WS" model (Section 2.2): ThresholdWS with
/// T = 2, i.e. steal whenever the victim has a spare task.
class SimpleWS final : public ThresholdWS {
 public:
  explicit SimpleWS(double lambda, std::size_t truncation = 0)
      : ThresholdWS(lambda, 2, truncation) {}
  SimpleWS(double lambda, PhaseType service, std::size_t truncation = 0)
      : ThresholdWS(lambda, std::move(service), 2, truncation) {}
  [[nodiscard]] std::string name() const override {
    return unit_ ? "simple-ws" : ThresholdWS::name();
  }
};

/// n independent M/PH/1 queues (paper, equation (1) at unit exponential
/// service): ThresholdWS with T = 0. The baseline every stealing variant
/// is compared against.
class NoStealing final : public ThresholdWS {
 public:
  /// truncation = 0 picks an automatic L sized to lambda's tail decay.
  explicit NoStealing(double lambda, std::size_t truncation = 0)
      : ThresholdWS(lambda, 0, truncation) {}
  NoStealing(double lambda, PhaseType service, std::size_t truncation = 0)
      : ThresholdWS(lambda, std::move(service), 0, truncation) {}

  /// The M/M/1 stationary tails pi_i = lambda^i (truncated), under unit
  /// exponential service.
  [[nodiscard]] ode::State analytic_fixed_point() const;

  /// Pollaczek-Khinchine mean sojourn, E[S] + lambda E[S^2] /
  /// (2 (1 - lambda E[S])): 1 / (1 - lambda) at unit exponential service.
  [[nodiscard]] double analytic_sojourn() const;
};

}  // namespace lsm::core
