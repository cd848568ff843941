// Mean-field model of n independent M/M/1 queues (paper, equation (1)):
//
//   ds_i/dt = lambda (s_{i-1} - s_i) - (s_i - s_{i+1})
//
// The baseline every stealing variant is compared against: its fixed point
// is the M/M/1 stationary tail pi_i = lambda^i, giving mean sojourn time
// 1 / (1 - lambda).
#pragma once

#include "core/model.hpp"

namespace lsm::core {

class NoStealing final : public MeanFieldModel {
 public:
  /// truncation = 0 picks an automatic L sized to lambda's tail decay.
  explicit NoStealing(double lambda, std::size_t truncation = 0);

  [[nodiscard]] bool rhs_batch(std::size_t nb, const double* x,
                               double* dx) const override;
  [[nodiscard]] std::string name() const override { return "no-stealing"; }

  /// Closed-form stationary tails pi_i = lambda^i (truncated).
  [[nodiscard]] ode::State analytic_fixed_point() const;

  /// Closed-form mean sojourn time 1 / (1 - lambda).
  [[nodiscard]] double analytic_sojourn() const;
};

}  // namespace lsm::core
