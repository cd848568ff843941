// Constant service times via Erlang's method of stages (paper, Section 3.1).
//
// Each task's unit service is replaced by c exponential stages of mean 1/c
// (a gamma/Erlang-c variable: mean 1, variance 1/c -> constant as c grows).
// State: s_i = fraction of processors with at least i *stages* of work
// remaining; a queued task carries exactly c stages. Stealing is
// steal-on-empty with victim threshold T = 2 tasks (>= c+1 stages):
//
//   ds_1/dt = l(s_0 - s_1) - c(s_1 - s_2)(1 - s_{c+1})
//   ds_i/dt = l(s_0 - s_i) + c(s_1 - s_2) s_{i+c} - c(s_i - s_{i+1}),
//                                                     2 <= i <= c
//   ds_i/dt = l(s_{i-c} - s_i) - c(s_i - s_{i+1})
//             - c(s_i - s_{i+c})(s_1 - s_2),           i >= c+1
//
// E[tasks per processor] = sum_{k>=0} s_{kc+1} (ceil(stages/c) tasks).
#pragma once

#include "core/model.hpp"

namespace lsm::core {

class ErlangServiceWS final : public MeanFieldModel {
 public:
  /// `stages` = c >= 1 (c = 1 reduces to SimpleWS); truncation is in
  /// STAGES (0 picks an automatic multiple of c).
  ErlangServiceWS(double lambda, std::size_t stages,
                  std::size_t truncation = 0);

  [[nodiscard]] bool rhs_batch(std::size_t nb, const double* x,
                               double* dx) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::size_t stages() const noexcept { return stages_; }

  /// The constructor demands room for at least three whole tasks.
  [[nodiscard]] std::size_t min_truncation() const override {
    return 3 * stages_;
  }

  /// Tasks per processor: sum over k of P(stages > kc).
  [[nodiscard]] double mean_tasks(const ode::State& s) const override;

  /// Stage dynamics couple indices i-c..i+c at rate c: stiff for large c.
  [[nodiscard]] std::size_t jacobian_bandwidth() const override {
    return stages_ > 1 ? stages_ : 0;
  }

 private:
  std::size_t stages_;
};

}  // namespace lsm::core
