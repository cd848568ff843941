#include "core/multi_class_ws.hpp"

#include <cmath>

#include "util/error.hpp"

namespace lsm::core {

MultiClassWS::MultiClassWS(double lambda,
                           std::vector<ProcessorClass> classes,
                           std::size_t threshold, std::size_t truncation)
    : MeanFieldModel(lambda, truncation != 0
                                 ? truncation
                                 : default_truncation(lambda) + threshold),
      classes_(std::move(classes)),
      threshold_(threshold) {
  trunc_explicit_ = truncation != 0;
  LSM_EXPECT(!classes_.empty(), "need at least one processor class");
  LSM_EXPECT(threshold >= 2, "steal threshold must be at least 2");
  LSM_EXPECT(trunc_ > threshold + 2, "truncation too small for threshold");
  double total_fraction = 0.0;
  double capacity = 0.0;
  for (const auto& c : classes_) {
    LSM_EXPECT(c.fraction > 0.0, "class fractions must be positive");
    LSM_EXPECT(c.rate > 0.0, "class service rates must be positive");
    total_fraction += c.fraction;
    capacity += c.fraction * c.rate;
  }
  LSM_EXPECT(std::abs(total_fraction - 1.0) < 1e-9,
             "class fractions must sum to 1");
  LSM_EXPECT(lambda < capacity, "offered load exceeds aggregate capacity");
}

std::string MultiClassWS::name() const {
  return "multi-class-ws(K=" + std::to_string(classes_.size()) +
         ",T=" + std::to_string(threshold_) + ")";
}

ode::State MultiClassWS::empty_state() const {
  ode::State s(dimension(), 0.0);
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    s[index(c, 0)] = classes_[c].fraction;
  }
  return s;
}

bool MultiClassWS::rhs_batch(std::size_t lanes, const double* x,
                             double* dx) const {
  return for_lanes(lanes, [&](auto nb) {
    const std::size_t L = trunc_;
    const std::size_t T = threshold_;
    const std::size_t K = classes_.size();
    const std::size_t W = L + 1;
    const double lam = lambda_;  // a local cannot alias dx
    // Class 0's row 0 holds the steal-attempt rate R (completions of last
    // tasks across all classes) until the conserved rows are zeroed last.
    double* R = dx;
    for (std::size_t l = 0; l < nb; ++l) R[l] = 0.0;
    for (std::size_t c = 0; c < K; ++c) {
      const double mu = classes_[c].rate;
      const double* u1 = x + (c * W + 1) * nb;
      const double* u2 = x + (c * W + 2) * nb;
      for (std::size_t l = 0; l < nb; ++l) R[l] += mu * (u1[l] - u2[l]);
    }
    // Row 1, lane by lane: fail = 1 - H_T, taken as 1 minus each class's
    // u^c_T in class order (not 1 minus their sum): the rounding is part
    // of the answer.
    for (std::size_t l = 0; l < nb; ++l) {
      double fail = 1.0;  // fraction of processors with < T tasks
      for (std::size_t c = 0; c < K; ++c) fail -= x[(c * W + T) * nb + l];
      for (std::size_t c = 0; c < K; ++c) {
        const double mu = classes_[c].rate;
        const auto u = [&](std::size_t i) { return x[(c * W + i) * nb + l]; };
        dx[(c * W + 1) * nb + l] =
            lam * (u(0) - u(1)) - mu * (u(1) - u(2)) * fail;
      }
    }
    // Levels >= T also lose tasks to thieves (T + 3 <= L); row L's
    // successor u^c_{L+1} is the truncation's zero.
    for (std::size_t c = 0; c < K; ++c) {
      const double mu = classes_[c].rate;
      for (std::size_t i = 2; i < T; ++i) {
        const double* up = x + (c * W + i - 1) * nb;
        const double* ui = x + (c * W + i) * nb;
        const double* un = ui + nb;
        double* out = dx + (c * W + i) * nb;
        for (std::size_t l = 0; l < nb; ++l) {
          out[l] = lam * (up[l] - ui[l]) - mu * (ui[l] - un[l]);
        }
      }
      for (std::size_t i = T; i < L; ++i) {
        const double* up = x + (c * W + i - 1) * nb;
        const double* ui = x + (c * W + i) * nb;
        const double* un = ui + nb;
        double* out = dx + (c * W + i) * nb;
        for (std::size_t l = 0; l < nb; ++l) {
          out[l] = lam * (up[l] - ui[l]) - mu * (ui[l] - un[l]) -
                   R[l] * (ui[l] - un[l]);
        }
      }
      const double* up = x + (c * W + L - 1) * nb;
      const double* ui = x + (c * W + L) * nb;
      double* out = dx + (c * W + L) * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = lam * (up[l] - ui[l]) - mu * (ui[l] - 0.0) -
                 R[l] * (ui[l] - 0.0);
      }
    }
    for (std::size_t c = 0; c < K; ++c) {
      double* out = dx + c * W * nb;
      for (std::size_t l = 0; l < nb; ++l) out[l] = 0.0;
    }
  });
}

void MultiClassWS::project(ode::State& x) const {
  const std::size_t W = trunc_ + 1;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    project_segment(x, c * W, (c + 1) * W, classes_[c].fraction);
  }
}

bool MultiClassWS::root_residual_batch(std::size_t nb, const double* x,
                                       double* f) const {
  (void)rhs_batch(nb, x, f);
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const double frac = classes_[c].fraction;
    const double* u0 = x + index(c, 0) * nb;
    double* out = f + index(c, 0) * nb;
    for (std::size_t l = 0; l < nb; ++l) out[l] = frac - u0[l];
  }
  return true;
}

double MultiClassWS::mean_tasks(const ode::State& x) const {
  // Level by level from the tail up, the classes summed within a level:
  // like fail in the kernel, the summation order is part of the answer.
  double acc = 0.0;
  for (std::size_t i = trunc_; i >= 1; --i) {
    double level = 0.0;
    for (std::size_t c = 0; c < classes_.size(); ++c) level += x[index(c, i)];
    acc += level;
  }
  return acc;
}

double MultiClassWS::mean_tasks_in_class(const ode::State& x,
                                         std::size_t c) const {
  LSM_EXPECT(c < classes_.size(), "class index out of range");
  double acc = 0.0;
  for (std::size_t i = trunc_; i >= 1; --i) acc += x[index(c, i)];
  return acc / classes_[c].fraction;
}

}  // namespace lsm::core
