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
#pragma once

#include "core/model.hpp"

namespace lsm::core {

class WorkSharingWS final : public MeanFieldModel {
 public:
  /// `share_threshold` = S >= 1: forward arrivals hitting a processor
  /// with load >= S.
  WorkSharingWS(double lambda, std::size_t share_threshold,
                std::size_t truncation = 0);

  [[nodiscard]] bool rhs_batch(std::size_t nb, const double* x,
                               double* dx) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::size_t share_threshold() const noexcept {
    return threshold_;
  }

  [[nodiscard]] std::size_t min_truncation() const override {
    return threshold_ + 3;
  }

  /// Control messages (forwards) per processor per unit time at state s:
  /// lambda * s_S.
  [[nodiscard]] double message_rate(const ode::State& s) const;

 private:
  std::size_t threshold_;
};

/// Steal-attempt messages per processor per unit time for the on-empty
/// stealing family at state s: completions that empty a processor,
/// (s_1 - s_2), plus `retry_rate` * (s_0 - s_1) retry probes.
[[nodiscard]] double stealing_message_rate(const ode::State& s,
                                           double retry_rate = 0.0);

}  // namespace lsm::core
