#include "core/phase_type_ws.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace lsm::core {

std::size_t phase_type_truncation(double lambda, double scv) {
  // Near saturation the per-task decay ratio of an M/PH/1-like tail is
  // about 1 - 2 (1 - rho) / (1 + scv) (Pollaczek-Khinchine heavy-traffic
  // scaling); at light load the M/M/1 ratio lambda dominates.
  const double spread = std::max(scv, 1.0);
  const double eta = std::clamp(
      std::max(lambda, 1.0 - 2.0 * (1.0 - lambda) / (1.0 + spread)), 0.05,
      0.9995);
  const double needed = std::log(1e-13) / std::log(eta);
  return static_cast<std::size_t>(std::clamp(needed + 8.0, 48.0, 3072.0));
}

PhaseTypeModelBase::PhaseTypeModelBase(double lambda, PhaseType service,
                                       std::size_t threshold,
                                       std::size_t truncation,
                                       std::size_t unit_truncation)
    : MeanFieldModel(lambda,
                     truncation != 0 ? truncation
                     : service == PhaseType::exponential()
                         ? unit_truncation
                         : phase_type_truncation(lambda, service.scv()) +
                               threshold),
      service_(std::move(service)),
      threshold_(threshold),
      unit_(service_ == PhaseType::exponential()) {
  trunc_explicit_ = truncation != 0;
  LSM_EXPECT(lambda * service_.mean() < 1.0,
             "model is unstable for lambda * E[service] >= 1");
  LSM_EXPECT(trunc_ > threshold_ + 2, "truncation too small for threshold");
}

ode::State PhaseTypeModelBase::empty_state() const {
  const std::size_t W = trunc_ + 1;
  ode::State s(dimension(), 0.0);
  for (std::size_t j = 0; j < service_.phases(); ++j) {
    s[j * W] = service_.alpha()[j];
  }
  return s;
}

ode::State PhaseTypeModelBase::mm1_state() const {
  if (unit_) return MeanFieldModel::mm1_state();
  const std::size_t W = trunc_ + 1;
  const double rho = std::min(lambda_ * service_.mean(), 0.999);
  ode::State s(dimension(), 0.0);
  for (std::size_t j = 0; j < service_.phases(); ++j) {
    const double aj = service_.alpha()[j];
    s[j * W] = aj;
    double tail = aj;
    for (std::size_t i = 1; i <= trunc_; ++i) {
      tail *= rho;
      s[j * W + i] = tail;
    }
  }
  return s;
}

void PhaseTypeModelBase::project(ode::State& s) const {
  if (unit_) {
    MeanFieldModel::project(s);
    return;
  }
  const std::size_t W = trunc_ + 1;
  const std::size_t p = service_.phases();
  for (std::size_t j = 0; j < p; ++j) {
    project_segment(s, j * W, (j + 1) * W, -1.0);
  }
  const double idle = std::max(0.0, 1.0 - busy_fraction(s));
  for (std::size_t j = 0; j < p; ++j) {
    s[j * W] = s[j * W + 1] + service_.alpha()[j] * idle;
  }
}

bool PhaseTypeModelBase::root_residual_batch(std::size_t nb, const double* x,
                                             double* f) const {
  if (unit_) return MeanFieldModel::root_residual_batch(nb, x, f);
  (void)rhs_batch(nb, x, f);
  // The head rows are slaved to the tails; replace them with the slaving
  // constraints themselves (identity Jacobian block in the heads).
  const std::size_t W = trunc_ + 1;
  const std::size_t p = service_.phases();
  const double* alpha = service_.alpha().data();
  for (std::size_t l = 0; l < nb; ++l) {
    double busy = 0.0;
    for (std::size_t k = 0; k < p; ++k) busy += x[(k * W + 1) * nb + l];
    const double idle = 1.0 - busy;
    for (std::size_t j = 0; j < p; ++j) {
      f[j * W * nb + l] =
          x[j * W * nb + l] - x[(j * W + 1) * nb + l] - alpha[j] * idle;
    }
  }
  return true;
}

double PhaseTypeModelBase::mean_tasks(const ode::State& s) const {
  const std::size_t W = trunc_ + 1;
  double acc = 0.0;
  for (std::size_t j = 0; j < service_.phases(); ++j) {
    for (std::size_t i = trunc_; i >= 1; --i) acc += s[j * W + i];
  }
  return acc;
}

}  // namespace lsm::core
