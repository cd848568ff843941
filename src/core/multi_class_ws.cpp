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

void MultiClassWS::deriv(double /*t*/, const ode::State& x,
                         ode::State& dx) const {
  const std::size_t L = trunc_;
  const std::size_t T = threshold_;
  const std::size_t K = classes_.size();
  const std::size_t W = L + 1;
  const double lambda = lambda_;  // a local: stores through du can't alias it
  LSM_ASSERT(x.size() == K * W && dx.size() == K * W);

  // fail = 1 - H_T, taken as 1 minus each class's u^c_T in class order
  // (not 1 minus their sum): the rounding is part of the answer.
  double steal_rate = 0.0;  // completions of last tasks across all classes
  double fail = 1.0;        // fraction of processors with < T tasks
  for (std::size_t c = 0; c < K; ++c) {
    const double* u = x.data() + c * W;
    steal_rate += classes_[c].rate * (u[1] - u[2]);
    fail -= u[T];
  }

  for (std::size_t c = 0; c < K; ++c) {
    const double mu = classes_[c].rate;
    const double* u = x.data() + c * W;
    double* du = dx.data() + c * W;
    du[0] = 0.0;
    du[1] = lambda * (u[0] - u[1]) - mu * (u[1] - u[2]) * fail;
    // Levels >= T also lose tasks to thieves (T + 3 <= L); row L's
    // successor u^c_{L+1} is the truncation's zero.
    for (std::size_t i = 2; i < T; ++i) {
      du[i] = lambda * (u[i - 1] - u[i]) - mu * (u[i] - u[i + 1]);
    }
    for (std::size_t i = T; i < L; ++i) {
      du[i] = lambda * (u[i - 1] - u[i]) - mu * (u[i] - u[i + 1]) -
              steal_rate * (u[i] - u[i + 1]);
    }
    du[L] = lambda * (u[L - 1] - u[L]) - mu * (u[L] - 0.0) -
            steal_rate * (u[L] - 0.0);
  }
}

void MultiClassWS::project(ode::State& x) const {
  const std::size_t W = trunc_ + 1;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    project_segment(x, c * W, (c + 1) * W, classes_[c].fraction);
  }
}

void MultiClassWS::root_residual(const ode::State& x, ode::State& f) const {
  deriv(0.0, x, f);
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    f[index(c, 0)] = classes_[c].fraction - x[index(c, 0)];
  }
}

double MultiClassWS::mean_tasks(const ode::State& x) const {
  // Level by level from the tail up, the classes summed within a level:
  // like fail in deriv, the summation order is part of the answer.
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
