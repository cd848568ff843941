// Multiple-choice stealing (paper, Section 3.3).
//
// A thief probes d uniformly random potential victims simultaneously and
// steals from the most loaded one, provided its load reaches the threshold
// T. A steal fails with probability (1 - s_T)^d; the chosen victim has
// exactly load i with probability (1 - s_{i+1})^d - (1 - s_i)^d:
//
//   ds_1/dt = l(s_0 - s_1) - (s_1 - s_2)(1 - s_T)^d
//   ds_i/dt = l(s_{i-1} - s_i) - (s_i - s_{i+1})          2 <= i < T
//   ds_i/dt = l(s_{i-1} - s_i) - (s_i - s_{i+1})
//             - [(1 - s_{i+1})^d - (1 - s_i)^d](s_1 - s_2)    i >= T
#pragma once

#include "core/model.hpp"

namespace lsm::core {

class MultiChoiceWS final : public MeanFieldModel {
 public:
  /// `choices` = d >= 1 (d = 1 reduces to ThresholdWS); threshold T >= 2.
  MultiChoiceWS(double lambda, std::size_t choices, std::size_t threshold,
                std::size_t truncation = 0);

  [[nodiscard]] bool rhs_batch(std::size_t nb, const double* x,
                               double* dx) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::size_t choices() const noexcept { return choices_; }
  [[nodiscard]] std::size_t threshold() const noexcept { return threshold_; }

  [[nodiscard]] std::size_t min_truncation() const override {
    return threshold_ + 3;
  }

  /// Optimistic tail-ratio bound from Section 3.3: l / (1 + d(l - pi_2)).
  [[nodiscard]] double tail_ratio_bound(const ode::State& pi) const;

 private:
  std::size_t choices_;
  std::size_t threshold_;
};

}  // namespace lsm::core
