// Base class for the paper's mean-field (density-dependent jump Markov
// process limit) work stealing models.
//
// State convention (paper, Section 2.1): s_i(t) is the fraction of
// processors with at least i tasks; s_0 = 1; the s_i are non-increasing in
// i and -> 0 as i -> infinity. We truncate the infinite family at index L
// (s_{L+1} treated as 0), choosing L so the neglected tail mass is below
// 1e-13 (tails decay geometrically, Sections 2.2-2.5).
#pragma once

#include <cstddef>
#include <string>
#include <type_traits>

#include "ode/state.hpp"
#include "ode/system.hpp"

namespace lsm::core {

class MeanFieldModel : public ode::OdeSystem {
 public:
  /// `lambda` is the per-processor Poisson arrival rate (< 1 for stability
  /// against the unit service rate); `truncation` is L, the largest tracked
  /// tail index.
  MeanFieldModel(double lambda, std::size_t truncation);

  [[nodiscard]] double lambda() const noexcept { return lambda_; }
  [[nodiscard]] std::size_t truncation() const noexcept { return trunc_; }

  [[nodiscard]] std::size_t dimension() const override { return trunc_ + 1; }

  /// Number of packed tail vectors of length truncation() + 1 making up
  /// the state: 1 for the plain models, K for MultiClassWS, p for the
  /// phase-type models, (c + 1) p for StagedTransferWS (2 for the
  /// exponential transfer, c = 1).
  /// Models with a multi-segment layout MUST override this alongside
  /// dimension() so the generic truncation machinery (tail_mass,
  /// resized_tail_state) can find each segment's tail.
  [[nodiscard]] virtual std::size_t tail_segments() const { return 1; }

  /// Smallest truncation the derivative supports; mirrors the
  /// constructor's validity asserts (e.g. threshold models need
  /// L > T + 2). set_truncation rejects anything smaller.
  [[nodiscard]] virtual std::size_t min_truncation() const { return 4; }

  /// True when the constructor received an explicit truncation request;
  /// false when the model auto-sized L from lambda's tail decay. The
  /// adaptive fixed-point solver only re-discretizes auto-sized models.
  [[nodiscard]] bool truncation_explicit() const noexcept {
    return trunc_explicit_;
  }

  /// Re-points the truncation used by deriv/project/dimension. The
  /// truncation is a solver discretization knob, not part of the model's
  /// identity, so this is const (trunc_ is mutable). States sized for the
  /// previous truncation become invalid; convert them with
  /// resized_tail_state. Throws when new_trunc < min_truncation().
  void set_truncation(std::size_t new_trunc) const;

  /// Largest last-tracked tail entry across segments: the mass the
  /// current truncation is about to neglect. Below ~1e-13 the truncation
  /// no longer affects fixed-point observables at double precision.
  [[nodiscard]] double tail_mass(const ode::State& s) const;

  /// Re-packs a state laid out for truncation `from_trunc` into the
  /// CURRENT truncation, segment by segment. Shrinking drops the tail;
  /// growing continues each tail geometrically from its last two tracked
  /// values (the mean-field tails decay geometrically, Sections 2.2-2.5),
  /// which makes grown states excellent warm starts.
  [[nodiscard]] ode::State resized_tail_state(const ode::State& s,
                                              std::size_t from_trunc) const;

  /// Empty system: s = (1, 0, 0, ...). The paper's simulations start empty.
  [[nodiscard]] virtual ode::State empty_state() const;

  /// The M/M/1 stationary tail s_i = lambda^i; a useful alternative start
  /// for convergence experiments (Section 4).
  [[nodiscard]] virtual ode::State mm1_state() const;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Expected number of tasks per processor, E[N] = sum_{i>=1} s_i
  /// (models with richer state override this; e.g. tasks in transit).
  [[nodiscard]] virtual double mean_tasks(const ode::State& s) const;

  /// Expected time a task spends in the system via Little's law,
  /// E[T] = E[N] / lambda. The quantity reported in the paper's tables.
  [[nodiscard]] virtual double mean_sojourn(const ode::State& s) const;

  /// Fraction of busy (load >= 1) processors: row 1 summed over the
  /// tail_segments() segments (s_1 for the plain tail layout; every
  /// class's and phase's occupancy for the segmented models).
  [[nodiscard]] double busy_fraction(const ode::State& s) const;

  /// Clamp to [0,1], pin s_0 = 1, restore the non-increasing tail property.
  /// Overridden by models whose state is not a single monotone tail vector.
  void project(ode::State& s) const override;

  /// Jacobian half-bandwidth hint: 0 means none declared. Models whose
  /// service happens in c fast stages return c, which sizes the Newton
  /// finish's banded chord Jacobian.
  [[nodiscard]] virtual std::size_t jacobian_bandwidth() const { return 0; }

  /// The model's right-hand side at its own lambda: lane 0 of a one-lane
  /// rhs_batch call. Every model writes its recurrence only there.
  void deriv(double t, const ode::State& s, ode::State& ds) const final;

  /// Residual map used by the Newton fixed-point polisher: identical to
  /// deriv(0, s) except that identically-conserved rows are replaced by
  /// constraint residuals (default: row 0 becomes 1 - s_0), keeping the
  /// Jacobian nonsingular at the fixed point. Lane 0 of a one-lane
  /// root_residual_batch call.
  void root_residual(const ode::State& s, ode::State& f) const;

  /// Batched right-hand side over `nb` states in component-major
  /// (structure-of-arrays) layout: x[i * nb + l] holds component i of lane
  /// l, dx likewise (x and dx must not overlap: kernels may stage values
  /// in dx rows). Every lane runs at lambda(). Each lane's arithmetic
  /// depends only on that lane's state, so a lane of an nb-lane pass
  /// equals the one-lane pass that is deriv() — finite-difference
  /// Jacobians and golden artifacts do not depend on which path ran.
  /// Always returns true; the flag bridges OdeSystem::deriv_batch.
  [[nodiscard]] virtual bool rhs_batch(std::size_t nb, const double* x,
                                       double* dx) const = 0;

  /// Batched root_residual with the same layout/contract as rhs_batch.
  /// The default composes rhs_batch with the default row-0 constraint
  /// (f_0 = 1 - s_0); models whose conserved rows lie elsewhere override
  /// this with their own constraint rows.
  [[nodiscard]] virtual bool root_residual_batch(std::size_t nb,
                                                 const double* x,
                                                 double* f) const;

  /// Bridges the generic OdeSystem batch hook to rhs_batch, so ode-layer
  /// machinery (batched Jacobian assembly) picks up the SIMD kernels.
  [[nodiscard]] bool deriv_batch(double t, std::size_t nb, const double* x,
                                 double* dx) const override {
    (void)t;
    return rhs_batch(nb, x, dx);
  }

 protected:
  /// Runs a lane kernel's body with `nb` a compile-time 1 for the one-lane
  /// call that is deriv(), else with the runtime lane count. The one body
  /// then compiles to straight-line code along the state for deriv() and
  /// to vector loops across lanes for batches. Returns true.
  template <class Body>
  static bool for_lanes(std::size_t nb, Body&& body) {
    if (nb == 1) {
      body(std::integral_constant<std::size_t, 1>{});
    } else {
      body(nb);
    }
    return true;
  }

  /// Clamp + monotone projection over s[begin..end) treating s[begin] as
  /// the segment head pinned to `head` (pass a negative head to leave the
  /// head dynamic).
  static void project_segment(ode::State& s, std::size_t begin,
                              std::size_t end, double head);

  double lambda_;
  /// Mutable because set_truncation is const: see its comment.
  mutable std::size_t trunc_;
  /// Derived constructors set this to false when they auto-sized trunc_
  /// (caller passed truncation = 0).
  bool trunc_explicit_ = true;
};

/// Truncation index adequate for steal-on-empty style models: the fixed
/// point tail decays at ratio lambda / (1 + lambda - pi_2) (Section 2.2),
/// so we size L for a neglected mass below ~1e-13 (clamped to [48, 512]).
[[nodiscard]] std::size_t default_truncation(double lambda);

/// pi_2 of the simplest work stealing model, from the closed form in
/// Section 2.2: ((1+l) - sqrt((1+l)^2 - 4 l^2)) / 2.
[[nodiscard]] double simple_ws_pi2(double lambda);

}  // namespace lsm::core
