// Stealing with non-zero transfer time (paper, Section 3.2), with the
// transfer latency through Erlang stages and phase-type service (the
// section's final remark: the transfer time "can also be modeled as a
// fixed constant, or some other distribution, using the technique of
// Section 3.1"; phase-type service as per-phase occupancy segments after
// Van Houdt, arXiv:1810.13186).
//
// A thief awaiting a stolen task will not steal again. A transfer consists
// of c stages, each exponential with rate c*r, so the total has mean 1/r
// and variance 1/(c r^2): c = 1 is the paper's Exp(1/r) transfer (the
// registry's `transfer`), and the transfer time tends to a constant as c
// grows. Under unit exponential service the state is the non-waiting
// tail vector s_i plus one waiting tail vector w^{(m)}_i per
// remaining-stage count m = 1..c (s_0 + sum_m w^{(m)}_0 = 1 is conserved;
// the in-transit task itself is counted by the w^{(m)}_0 when computing
// E[N]).
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
//
// Phase-type service (alpha, S) on p phases, exit rates t = -S 1, splits
// each class m into p segments [g_{m,j}, v_{m,1,j} .. v_{m,L,j}]:
// v_{m,i,j} is the fraction of class-m processors with at least i tasks
// whose task in service is in phase j. The heads are
// g_{m,j} = v_{m,1,j} + alpha_j (H_m - B_m), with H_m = sum_j g_{m,j} the
// class's mass and B_m = sum_j v_{m,1,j} its busy part; at p = 1 the head
// is the mass s_0 or w^{(m)}_0. Row i of class m, phase j, replaces the
// exponential service term -(v_i - v_{i+1}) by
//   M_{m,i,j} + alpha_j A_{m,i+1},  M = sum_k S_kj v_{m,i,k},
//                                   A = sum_k t_k v_{m,i,k},
// the arrivals at row 1 by lambda alpha_j (H_m - B_m), and the thieves'
// rate s_1 - s_2 by R = sum_k t_k (v_{0,1,k} - v_{0,2,k}); a delivery to a
// class-1 processor at level i - 1 keeps the phase of its task in service
// (at i = 1, through the head g_{1,j}). At p = 1, c = 1 that is the
// equations above; at c = 1 the phase-type transfer model.
#pragma once

#include "core/model.hpp"
#include "core/phase_type.hpp"

namespace lsm::core {

class StagedTransferWS final : public MeanFieldModel {
 public:
  /// Unit exponential service. transfer_rate = r (mean transfer 1/r),
  /// `stages` = c >= 1, threshold T >= 2. truncation = 0 picks an
  /// automatic per-vector L.
  StagedTransferWS(double lambda, double transfer_rate, std::size_t stages,
                   std::size_t threshold, std::size_t truncation = 0);
  /// Phase-type service of mean E[S], lambda E[S] < 1.
  StagedTransferWS(double lambda, double transfer_rate, PhaseType service,
                   std::size_t stages, std::size_t threshold,
                   std::size_t truncation = 0);

  /// Packed state: classes s, w^(1), ..., w^(c), each p phase segments
  /// of length L + 1.
  [[nodiscard]] std::size_t dimension() const override {
    return tail_segments() * (trunc_ + 1);
  }

  [[nodiscard]] bool rhs_batch(std::size_t nb, const double* x,
                               double* dx) const override;
  /// The kernel with the dependent head rows replaced: the w^{(1)} class's
  /// first by the total mass constraint and, for p > 1, each class's first
  /// by the class flow sum_j dg_{m,j} and the others by the head slaving
  /// g_{m,j} = v_{m,1,j} + alpha_j (H_m - B_m). At p = 1 only the mass
  /// row is replaced.
  [[nodiscard]] bool root_residual_batch(std::size_t nb, const double* x,
                                         double* f) const override;
  [[nodiscard]] std::string name() const override;
  void project(ode::State& s) const override;

  /// Class 0 holds every processor, each idle one starting in phase
  /// alpha_j: g_{0,j} = alpha_j.
  [[nodiscard]] ode::State empty_state() const override;

  [[nodiscard]] const PhaseType& service() const noexcept { return service_; }
  [[nodiscard]] double transfer_rate() const noexcept { return rate_; }
  [[nodiscard]] std::size_t stages() const noexcept { return stages_; }
  [[nodiscard]] std::size_t threshold() const noexcept { return threshold_; }

  [[nodiscard]] std::size_t tail_segments() const override {
    return (stages_ + 1) * service_.phases();
  }

  [[nodiscard]] std::size_t min_truncation() const override {
    return threshold_ + 3;
  }

  /// E[N]: queued tasks in all classes plus one in-transit task per
  /// waiting processor; at p = 1, c = 1, sum_{i>=1} s_i + sum_{i>=0} w_i.
  [[nodiscard]] double mean_tasks(const ode::State& s) const override;

  /// Index of v_{m,i,j} in the packed state (class m in 0..c, m = 0 the
  /// non-waiting class; phase j); at p = 1, w^{(m)}_i.
  [[nodiscard]] std::size_t w_index(std::size_t m, std::size_t i,
                                    std::size_t j = 0) const {
    return ((m * service_.phases() + j) * (trunc_ + 1)) + i;
  }

 private:
  PhaseType service_;
  double rate_;
  std::size_t stages_;
  std::size_t threshold_;
  /// Unit exponential service: the kernel runs with its coefficients as
  /// compile-time constants.
  bool unit_;
};

}  // namespace lsm::core
