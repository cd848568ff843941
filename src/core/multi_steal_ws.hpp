// Multiple-task stealing (paper, Section 3.4, first family).
//
// When a steal succeeds the thief takes k <= T/2 tasks from the victim's
// tail at once. A successful steal lifts the thief across levels 2..k and
// drops the victim across levels in [max(i,T), i+k):
//
//   ds_1/dt = l(s_0 - s_1) - (s_1 - s_2)(1 - s_T)
//   ds_i/dt = l(s_{i-1} - s_i) - (s_i - s_{i+1}) + (s_1 - s_2) s_T,
//                                                       2 <= i <= k
//   ds_i/dt = l(s_{i-1} - s_i) - (s_i - s_{i+1}),   k+1 <= i <= T-k
//   ds_i/dt = l(s_{i-1} - s_i) - (s_i - s_{i+1})
//             - (s_1 - s_2)(s_{max(i,T)} - s_{i+k}),      i >= T-k+1
#pragma once

#include "core/model.hpp"

namespace lsm::core {

class MultiStealWS final : public MeanFieldModel {
 public:
  /// `steal_count` = k >= 1 with 2k <= T (k = 1 reduces to ThresholdWS).
  MultiStealWS(double lambda, std::size_t steal_count, std::size_t threshold,
               std::size_t truncation = 0);

  [[nodiscard]] bool rhs_batch(std::size_t nb, const double* x,
                               double* dx) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::size_t steal_count() const noexcept { return k_; }
  [[nodiscard]] std::size_t threshold() const noexcept { return threshold_; }

  [[nodiscard]] std::size_t min_truncation() const override {
    return threshold_ + k_ + 3;
  }

 private:
  std::size_t k_;
  std::size_t threshold_;
};

}  // namespace lsm::core
