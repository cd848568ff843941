// Stealing with non-zero transfer time (paper, Section 3.2), with the
// transfer latency through Erlang stages (the section's final remark: the
// transfer time "can also be modeled as a fixed constant, or some other
// distribution, using the technique of Section 3.1").
//
// A thief awaiting a stolen task will not steal again. A transfer consists
// of c stages, each exponential with rate c*r, so the total has mean 1/r
// and variance 1/(c r^2): c = 1 is the paper's Exp(1/r) transfer (the
// registry's `transfer`), and the transfer time tends to a constant as c
// grows. State: the non-waiting tail vector s_i plus one waiting tail
// vector w^{(m)}_i per remaining-stage count m = 1..c (s_0 + sum_m
// w^{(m)}_0 = 1 is conserved; the in-transit task itself is counted by
// the w^{(m)}_0 when computing E[N]).
//
//   steal start   : s -> w^{(c)} at rate (s_1 - s_2)(s_T + sum_m w^{(m)}_T)
//   stage progress: w^{(m)} -> w^{(m-1)} at rate c r   (m >= 2)
//   delivery      : w^{(1)} -> s gaining one task at rate c r
//
// At c = 1 that is
//   ds_0/dt = r w_0 - (s_1 - s_2)(s_T + w_T)
//   ds_i/dt = l(s_{i-1} - s_i) + r w_{i-1} - (s_i - s_{i+1}),   1 <= i < T
//   ds_i/dt = ... - (s_i - s_{i+1})(s_1 - s_2),                     i >= T
//   dw_0/dt = -r w_0 + (s_1 - s_2)(s_T + w_T)
//   dw_i/dt = l(w_{i-1} - w_i) - r w_i - (w_i - w_{i+1}),       1 <= i < T
//   dw_i/dt = ... - (w_i - w_{i+1})(s_1 - s_2),                     i >= T
//
// Victims may be stolen from while awaiting a task themselves (the
// sum_m w^{(m)}_T in the success probability).
#pragma once

#include "core/model.hpp"

namespace lsm::core {

class StagedTransferWS final : public MeanFieldModel {
 public:
  /// transfer_rate = r (mean transfer 1/r), `stages` = c >= 1,
  /// threshold T >= 2. truncation = 0 picks an automatic per-vector L.
  StagedTransferWS(double lambda, double transfer_rate, std::size_t stages,
                   std::size_t threshold, std::size_t truncation = 0);

  /// Packed state: [s | w^(1) | ... | w^(c)], each of length L + 1.
  [[nodiscard]] std::size_t dimension() const override {
    return (stages_ + 1) * (trunc_ + 1);
  }

  [[nodiscard]] bool rhs_batch(std::size_t nb, const double* x,
                               double* dx) const override;
  /// The kernel with the redundant w^{(1)}_0 row replaced by the total
  /// class mass constraint.
  [[nodiscard]] bool root_residual_batch(std::size_t nb, const double* x,
                                         double* f) const override;
  [[nodiscard]] std::string name() const override;
  void project(ode::State& s) const override;

  [[nodiscard]] double transfer_rate() const noexcept { return rate_; }
  [[nodiscard]] std::size_t stages() const noexcept { return stages_; }
  [[nodiscard]] std::size_t threshold() const noexcept { return threshold_; }

  [[nodiscard]] std::size_t tail_segments() const override {
    return stages_ + 1;
  }

  [[nodiscard]] std::size_t min_truncation() const override {
    return threshold_ + 3;
  }

  /// E[N]: queued tasks in all classes plus one in-transit task per
  /// waiting processor; at c = 1, sum_{i>=1} s_i + sum_{i>=0} w_i.
  [[nodiscard]] double mean_tasks(const ode::State& s) const override;

  /// Index of w^{(m)}_i in the packed state (m in 1..c).
  [[nodiscard]] std::size_t w_index(std::size_t m, std::size_t i) const {
    return m * (trunc_ + 1) + i;
  }

 private:
  double rate_;
  std::size_t stages_;
  std::size_t threshold_;
};

}  // namespace lsm::core
