// K processor classes (paper, Section 3.5: "we can model different
// processor types by keeping a separate state vector for each type").
// Class c has population fraction f_c and service rate mu_c; every class
// receives Poisson(lambda) arrivals and participates in threshold stealing
// with a victim pool spanning the whole machine. The registry's
// "heterogeneous" model is the K = 2 case {{f, mu_f}, {1 - f, mu_s}}.
//
//   du^c_1/dt = l(u^c_0 - u^c_1) - mu_c (u^c_1 - u^c_2)(1 - H_T)
//   du^c_i/dt = l(u^c_{i-1} - u^c_i) - mu_c (u^c_i - u^c_{i+1})   2 <= i < T
//   du^c_i/dt = ... - R (u^c_i - u^c_{i+1})                           i >= T
//
// with H_T = sum_c u^c_T (any heavy processor) and steal-attempt rate
// R = sum_c mu_c (u^c_1 - u^c_2). Fixed-point balance:
// sum_c mu_c u^c_1 = lambda.
#pragma once

#include <vector>

#include "core/model.hpp"

namespace lsm::core {

struct ProcessorClass {
  double fraction = 0.0;  ///< population share, must sum to 1 across classes
  double rate = 1.0;      ///< service rate mu_c
};

class MultiClassWS final : public MeanFieldModel {
 public:
  MultiClassWS(double lambda, std::vector<ProcessorClass> classes,
               std::size_t threshold, std::size_t truncation = 0);

  /// Packed state: one tail vector of length L + 1 per class.
  [[nodiscard]] std::size_t dimension() const override {
    return classes_.size() * (trunc_ + 1);
  }

  [[nodiscard]] bool rhs_batch(std::size_t nb, const double* x,
                               double* dx) const override;
  /// The kernel with each class's conserved row 0 replaced by its
  /// population constraint f_c - u^c_0.
  [[nodiscard]] bool root_residual_batch(std::size_t nb, const double* x,
                                         double* f) const override;
  [[nodiscard]] std::string name() const override;
  void project(ode::State& s) const override;
  [[nodiscard]] ode::State empty_state() const override;

  [[nodiscard]] const std::vector<ProcessorClass>& classes() const noexcept {
    return classes_;
  }
  [[nodiscard]] std::size_t threshold() const noexcept { return threshold_; }

  [[nodiscard]] std::size_t tail_segments() const override {
    return classes_.size();
  }

  [[nodiscard]] std::size_t min_truncation() const override {
    return threshold_ + 3;
  }

  [[nodiscard]] double mean_tasks(const ode::State& s) const override;

  /// Mean load conditioned on membership in class c.
  [[nodiscard]] double mean_tasks_in_class(const ode::State& s,
                                           std::size_t c) const;

  [[nodiscard]] std::size_t index(std::size_t c, std::size_t i) const {
    return c * (trunc_ + 1) + i;
  }

 private:
  std::vector<ProcessorClass> classes_;
  std::size_t threshold_;
};

}  // namespace lsm::core
