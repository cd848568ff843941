// Abstract right-hand side f(t, s) of an autonomous-or-not ODE system
// ds/dt = f(t, s). Mean-field models in src/core implement this interface.
#pragma once

#include <cstddef>

#include "ode/state.hpp"

namespace lsm::ode {

class OdeSystem {
 public:
  virtual ~OdeSystem() = default;

  /// Writes f(t, s) into ds; ds is pre-sized to dimension().
  virtual void deriv(double t, const State& s, State& ds) const = 0;

  /// Batched evaluation of `nb` states in component-major (structure-of-
  /// arrays) layout: x[i * nb + l] holds component i of lane l, dx likewise.
  /// Lane l must equal deriv() at lane l's state bit for bit, so
  /// finite-difference Jacobians and golden artifacts built on top do not
  /// depend on the path taken; the mean-field models get this by
  /// construction, since their deriv() is the one-lane call of the same
  /// kernel. Returns false when no batched kernel exists — x/dx untouched,
  /// callers fall back to per-lane deriv().
  [[nodiscard]] virtual bool deriv_batch(double t, std::size_t nb,
                                         const double* x, double* dx) const {
    (void)t;
    (void)nb;
    (void)x;
    (void)dx;
    return false;
  }

  [[nodiscard]] virtual std::size_t dimension() const = 0;

  /// Projects s back onto the feasible set (e.g. clamp to [0,1], restore
  /// monotone tails). Called by integrators after every accepted step;
  /// default is a no-op.
  virtual void project(State& s) const { (void)s; }
};

/// Transparent adapter counting right-hand-side evaluations. The fixed
/// point solvers wrap their system in one of these so iteration cost is
/// observable (perf_ode tracks aggregate RHS evaluations as its primary
/// metric, and non-convergence errors report evaluations consumed).
class CountingSystem final : public OdeSystem {
 public:
  explicit CountingSystem(const OdeSystem& inner) : inner_(inner) {}

  void deriv(double t, const State& s, State& ds) const override {
    ++count_;
    inner_.deriv(t, s, ds);
  }
  [[nodiscard]] bool deriv_batch(double t, std::size_t nb, const double* x,
                                 double* dx) const override {
    // One batched pass does the work of nb scalar evaluations, and the
    // counter is the cost model perf_ode tracks — count it as such.
    if (!inner_.deriv_batch(t, nb, x, dx)) return false;
    count_ += nb;
    return true;
  }
  [[nodiscard]] std::size_t dimension() const override {
    return inner_.dimension();
  }
  void project(State& s) const override { inner_.project(s); }

  [[nodiscard]] std::size_t evals() const noexcept { return count_; }
  void reset() noexcept { count_ = 0; }

 private:
  const OdeSystem& inner_;
  mutable std::size_t count_ = 0;
};

}  // namespace lsm::ode
