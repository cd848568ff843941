// Stealing with non-zero transfer time (paper, Section 3.2).
//
// Moving a stolen task takes an Exp(1/r) transfer; a thief awaiting a
// stolen task will not steal again. State is two tail vectors:
//   s_i : fraction of processors NOT awaiting a stolen task, with >= i tasks
//   w_i : fraction of processors awaiting a stolen task, with >= i tasks
// (s_0 + w_0 = 1 is conserved; the in-transit task itself is counted by
// w_0 when computing E[N]).
//
//   ds_0/dt = r w_0 - (s_1 - s_2)(s_T + w_T)
//   ds_i/dt = l(s_{i-1} - s_i) + r w_{i-1} - (s_i - s_{i+1}),   1 <= i < T
//   ds_i/dt = ... - (s_i - s_{i+1})(s_1 - s_2),                     i >= T
//   dw_0/dt = -r w_0 + (s_1 - s_2)(s_T + w_T)
//   dw_i/dt = l(w_{i-1} - w_i) - r w_i - (w_i - w_{i+1}),       1 <= i < T
//   dw_i/dt = ... - (w_i - w_{i+1})(s_1 - s_2),                     i >= T
//
// Victims may be stolen from while awaiting a task themselves (the
// (s_T + w_T) success probability).
#pragma once

#include "core/model.hpp"

namespace lsm::core {

class TransferTimeWS final : public MeanFieldModel {
 public:
  /// transfer_rate = r > 0 (mean transfer time 1/r); threshold T >= 2.
  /// truncation = 0 picks an automatic per-vector L.
  TransferTimeWS(double lambda, double transfer_rate, std::size_t threshold,
                 std::size_t truncation = 0);

  /// Packed state: [s_0..s_L, w_0..w_L] -> dimension 2L + 2.
  [[nodiscard]] std::size_t dimension() const override {
    return 2 * (trunc_ + 1);
  }

  [[nodiscard]] bool rhs_batch(std::size_t nb, const double* x,
                               double* dx) const override;
  [[nodiscard]] std::string name() const override;
  void project(ode::State& s) const override;
  [[nodiscard]] bool root_residual_batch(std::size_t nb, const double* x,
                                         double* f) const override;

  [[nodiscard]] double transfer_rate() const noexcept { return rate_; }
  [[nodiscard]] std::size_t threshold() const noexcept { return threshold_; }

  [[nodiscard]] std::size_t tail_segments() const override { return 2; }

  [[nodiscard]] std::size_t min_truncation() const override {
    return threshold_ + 3;
  }

  /// E[N] = sum_{i>=1} s_i + sum_{i>=0} w_i (counts tasks in transit).
  [[nodiscard]] double mean_tasks(const ode::State& s) const override;

  /// Index of w_i in the packed state.
  [[nodiscard]] std::size_t w_index(std::size_t i) const noexcept {
    return trunc_ + 1 + i;
  }

 private:
  double rate_;
  std::size_t threshold_;
};

}  // namespace lsm::core
