// Threshold work stealing (paper, Section 2.3; the simplest WS model of
// Section 2.2 is the special case T = 2).
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
#pragma once

#include "core/model.hpp"

namespace lsm::core {

class ThresholdWS : public MeanFieldModel {
 public:
  /// `threshold` T >= 2; truncation = 0 picks an automatic L.
  ThresholdWS(double lambda, std::size_t threshold, std::size_t truncation = 0);

  [[nodiscard]] bool rhs_batch(std::size_t nb, const double* x,
                               double* dx) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::size_t threshold() const noexcept { return threshold_; }

  [[nodiscard]] std::size_t min_truncation() const override {
    return threshold_ + 3;
  }

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

 private:
  std::size_t threshold_;
};

/// The paper's initial "simple WS" model (Section 2.2): ThresholdWS with
/// T = 2, i.e. steal whenever the victim has a spare task.
class SimpleWS final : public ThresholdWS {
 public:
  explicit SimpleWS(double lambda, std::size_t truncation = 0)
      : ThresholdWS(lambda, 2, truncation) {}
  [[nodiscard]] std::string name() const override { return "simple-ws"; }
};

}  // namespace lsm::core
