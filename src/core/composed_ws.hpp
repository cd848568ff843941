// Composed work stealing model: every Section 2-3 policy dimension in one
// family, as the paper suggests ("the extensions can be combined as
// desired"). Parameters:
//
//   T  victim threshold, relative to the thief's load (absolute when the
//      thief is empty): a thief at load j steals from victims >= j + T
//   d  victims probed per attempt; steal from the most loaded
//   k  tasks taken per successful steal (2k <= T)
//   B  preemptive trigger: attempts fire on completions landing at j <= B
//   r  retry rate for idle (empty, load-0) processors
//
// Derivation sketch (p_j = s_j - s_{j+1}, succ_j = 1 - (1-s_{j+T})^d,
// R_j = thief-attempt rate at load j):
//
//   R_j = [j <= B] (s_{j+1} - s_{j+2}) + [j == 0] r (s_0 - s_1)
//
//   ds_i/dt = l(s_{i-1} - s_i)
//     - (s_i - s_{i+1}) (1 - [i-1 <= B] succ_{i-1})          completions
//     + sum_{j = max(0,i-k)}^{min(B, i-2)} (s_{j+1}-s_{j+2}) succ_j
//     + [1 <= i <= k] r (s_0 - s_1) succ_0                   thief jumps
//     - sum_j R_j [(1 - s_{i+k})^d - (1 - s_{max(i, j+T)})^d]  victims
//       (terms with i + k <= j + T vanish)
//
// Setting (d,k,B,r) = (1,1,0,0) recovers ThresholdWS. Varying one
// dimension gives the paper's single-extension families, which the
// registry serves as presets of this class:
//
//   preemptive    B  (Section 2.4): attempts start at load <= B
//   repeated      r  (Section 2.5): idle processors retry at rate r
//   multi-choice  d  (Section 3.3): steal from the most loaded of d probes
//   multi-steal   k  (Section 3.4): take k tasks per successful steal
//
// The lane kernel evaluates each single-dimension preset in the operation
// order of the family's own recurrence (tests/reference_rhs.hpp), so a
// preset's solver trajectory does not depend on its being composed.
#pragma once

#include "core/model.hpp"

namespace lsm::core {

struct ComposedPolicy {
  std::size_t threshold = 2;    ///< T >= 2
  std::size_t choices = 1;      ///< d >= 1
  std::size_t steal_count = 1;  ///< k >= 1, 2k <= T
  std::size_t begin_steal = 0;  ///< B >= 0
  double retry_rate = 0.0;      ///< r >= 0
};

class ComposedWS final : public MeanFieldModel {
 public:
  /// truncation = 0 picks default_truncation(lambda) + T + B.
  ComposedWS(double lambda, ComposedPolicy policy, std::size_t truncation = 0);

  [[nodiscard]] bool rhs_batch(std::size_t nb, const double* x,
                               double* dx) const override;
  /// Lists T and every dimension that differs from the threshold model.
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const ComposedPolicy& policy() const noexcept {
    return policy_;
  }

  [[nodiscard]] std::size_t min_truncation() const override {
    return policy_.threshold + policy_.begin_steal + policy_.steal_count + 2;
  }

  /// Geometric tail ratio past the threshold, evaluated on a fixed point,
  /// for a policy that varies at most one of B, r and d (k = 1):
  ///   B: l / (1 + l - pi_{B+2})          (Section 2.4)
  ///   r: l / (1 + r(1 - l) + l - pi_2)   (Section 2.5)
  ///   d: l / (1 + d(l - pi_2)), the optimistic bound of Section 3.3.
  /// The threshold model (all neutral) gives l / (1 + l - pi_2).
  [[nodiscard]] double predicted_tail_ratio(const ode::State& pi) const;

 private:
  ComposedPolicy policy_;
};

}  // namespace lsm::core
