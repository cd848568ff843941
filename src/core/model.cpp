#include "core/model.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace lsm::core {

MeanFieldModel::MeanFieldModel(double lambda, std::size_t truncation)
    : lambda_(lambda), trunc_(truncation) {
  LSM_EXPECT(lambda >= 0.0, "arrival rate must be non-negative");
  LSM_EXPECT(truncation >= 4, "truncation too small to be meaningful");
}

ode::State MeanFieldModel::empty_state() const {
  ode::State s(dimension(), 0.0);
  s[0] = 1.0;
  return s;
}

ode::State MeanFieldModel::mm1_state() const {
  ode::State s(dimension(), 0.0);
  double v = 1.0;
  for (std::size_t i = 0; i <= trunc_; ++i) {
    s[i] = v;
    v *= lambda_;
  }
  return s;
}

double MeanFieldModel::mean_tasks(const ode::State& s) const {
  LSM_ASSERT(s.size() >= trunc_ + 1);
  double acc = 0.0;
  for (std::size_t i = trunc_; i >= 1; --i) acc += s[i];  // small-to-large sum
  return acc;
}

double MeanFieldModel::busy_fraction(const ode::State& s) const {
  const std::size_t len = trunc_ + 1;
  LSM_ASSERT(s.size() == tail_segments() * len);
  double busy = 0.0;
  for (std::size_t seg = 0; seg < tail_segments(); ++seg) {
    busy += s[seg * len + 1];
  }
  return busy;
}

double MeanFieldModel::mean_sojourn(const ode::State& s) const {
  LSM_EXPECT(lambda_ > 0.0, "mean sojourn undefined for lambda = 0");
  return mean_tasks(s) / lambda_;
}

void MeanFieldModel::set_truncation(std::size_t new_trunc) const {
  LSM_EXPECT(new_trunc >= min_truncation(),
             "set_truncation: below the model's minimum truncation");
  trunc_ = new_trunc;
}

double MeanFieldModel::tail_mass(const ode::State& s) const {
  const std::size_t segs = tail_segments();
  const std::size_t len = trunc_ + 1;
  LSM_ASSERT(s.size() == segs * len);
  double mass = 0.0;
  for (std::size_t seg = 0; seg < segs; ++seg) {
    mass = std::max(mass, std::abs(s[seg * len + trunc_]));
  }
  return mass;
}

ode::State MeanFieldModel::resized_tail_state(const ode::State& s,
                                              std::size_t from_trunc) const {
  const std::size_t segs = tail_segments();
  const std::size_t old_len = from_trunc + 1;
  const std::size_t new_len = trunc_ + 1;
  LSM_EXPECT(s.size() == segs * old_len,
             "resized_tail_state: state does not match from_trunc");
  ode::State out(segs * new_len, 0.0);
  for (std::size_t seg = 0; seg < segs; ++seg) {
    const std::size_t src = seg * old_len;
    const std::size_t dst = seg * new_len;
    const std::size_t common = std::min(old_len, new_len);
    for (std::size_t i = 0; i < common; ++i) out[dst + i] = s[src + i];
    if (new_len > old_len) {
      const double a = s[src + old_len - 2];
      const double b = s[src + old_len - 1];
      const double ratio = (a > 0.0 && b > 0.0 && b < a) ? b / a : 0.0;
      double v = b;
      for (std::size_t i = old_len; i < new_len; ++i) {
        v *= ratio;
        out[dst + i] = v;
      }
    }
  }
  return out;
}

void MeanFieldModel::project_segment(ode::State& s, std::size_t begin,
                                     std::size_t end, double head) {
  if (begin >= end) return;
  if (head >= 0.0) s[begin] = head;
  s[begin] = std::clamp(s[begin], 0.0, 1.0);
  for (std::size_t i = begin + 1; i < end; ++i) {
    s[i] = std::clamp(s[i], 0.0, s[i - 1]);
  }
}

void MeanFieldModel::project(ode::State& s) const {
  project_segment(s, 0, dimension(), 1.0);
}

void MeanFieldModel::deriv(double /*t*/, const ode::State& s,
                           ode::State& ds) const {
  const std::size_t n = dimension();
  LSM_ASSERT(s.size() == n && ds.size() == n);
  (void)rhs_batch(1, s.data(), ds.data());
}

void MeanFieldModel::root_residual(const ode::State& s, ode::State& f) const {
  const std::size_t n = dimension();
  LSM_ASSERT(s.size() == n && f.size() == n);
  (void)root_residual_batch(1, s.data(), f.data());
}

bool MeanFieldModel::root_residual_batch(std::size_t nb, const double* x,
                                         double* f) const {
  (void)rhs_batch(nb, x, f);
  for (std::size_t l = 0; l < nb; ++l) f[l] = 1.0 - x[l];
  return true;
}

double simple_ws_pi2(double lambda) {
  LSM_EXPECT(lambda >= 0.0 && lambda < 1.0, "requires 0 <= lambda < 1");
  const double b = 1.0 + lambda;
  return (b - std::sqrt(b * b - 4.0 * lambda * lambda)) / 2.0;
}

std::size_t default_truncation(double lambda) {
  if (lambda <= 0.0) return 48;
  const double pi2 = simple_ws_pi2(std::min(lambda, 0.999));
  const double rho = lambda / (1.0 + lambda - pi2);
  const double needed = std::log(1e-13) / std::log(rho);
  const double clamped = std::clamp(needed + 8.0, 48.0, 512.0);
  return static_cast<std::size_t>(clamped);
}

}  // namespace lsm::core
