// Sender-initiated work sharing -- the foil the paper's introduction
// contrasts work stealing against (cf. Eager, Lazowska & Zahorjan): when a
// task arrives at a processor already holding at least S tasks, it is
// forwarded once to a uniformly random processor, where it queues
// unconditionally.
//
// Mean-field family (a forwarded task lands uniformly, so each processor
// receives a forwarded stream of rate lambda * s_S on top of the direct
// arrivals it accepts):
//
//   ds_i/dt = lambda ([i-1 < S] + s_S)(s_{i-1} - s_i) - (s_i - s_{i+1})
//
// At the fixed point the tails beyond S decay geometrically at ratio
// lambda * pi_S -- vanishingly small at light load, but the *message*
// rate lambda * pi_S per processor GROWS with load, the mirror image of
// stealing whose attempt rate lambda - pi_2 vanishes as lambda -> 1.
//
// Under phase-type service (per-phase occupancy state,
// core/phase_type_ws.hpp) row i of phase j takes arrivals at the same
// rates, lambda ([i-1 < S] + sum_k u_{S,k}), and the phase-type service
// term; the equation above is the unit exponential case, which the kernel
// evaluates bit for bit in its operation order.
#pragma once

#include "core/phase_type_ws.hpp"

namespace lsm::core {

class WorkSharingWS final : public PhaseTypeModelBase {
 public:
  /// Unit exponential service. `share_threshold` = S >= 1: forward
  /// arrivals hitting a processor with load >= S.
  WorkSharingWS(double lambda, std::size_t share_threshold,
                std::size_t truncation = 0);
  /// Phase-type service of mean E[S], lambda E[S] < 1.
  WorkSharingWS(double lambda, PhaseType service, std::size_t share_threshold,
                std::size_t truncation = 0);

  [[nodiscard]] bool rhs_batch(std::size_t nb, const double* x,
                               double* dx) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::size_t share_threshold() const noexcept {
    return threshold_;
  }

  /// Control messages (forwards) per processor per unit time at state s:
  /// lambda * s_S (lambda sum_k u_{S,k} under phase-type service).
  [[nodiscard]] double message_rate(const ode::State& s) const;
};

/// Steal-attempt messages per processor per unit time for the on-empty
/// stealing family at state s: completions that empty a processor,
/// (s_1 - s_2), plus `retry_rate` * (s_0 - s_1) retry probes.
[[nodiscard]] double stealing_message_rate(const ode::State& s,
                                           double retry_rate = 0.0);

}  // namespace lsm::core
