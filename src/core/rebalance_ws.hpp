// Pairwise load re-balancing (paper, Section 3.4, second family), modeling
// the scheme of Rudolph, Slivkin-Allalouf and Upfal: a processor with load
// j triggers re-balance events at exponential rate r(j); on an event it
// picks a uniformly random partner and the two processors split their
// combined load as evenly as possible (ceil to the initially larger one).
//
// Mean-field interaction term, for an ordered pair (initiator load j at
// rate r(j), partner load k with probability p_k):
//
//   ds_i/dt = l(s_{i-1} - s_i) - (s_i - s_{i+1})
//             + sum_{j,k} r(j) p_j p_k * Delta_i(j,k)
//   Delta_i(j,k) = [floor((j+k)/2) >= i] + [ceil((j+k)/2) >= i]
//                  - [j >= i] - [k >= i]
//
// With a_j = r(j) p_j, A_{>=m} = sum_{j>=m} a_j and the correlation
// C_{>=m} = sum_{j+k>=m} a_j p_k, the double sum is
//
//   interaction_i = C_{>=2i} + C_{>=2i-1} - A_{>=i} s_0 - A_{>=0} s_i,
//
// evaluated in O(L^2) per derivative call without branches or scratch.
#pragma once

#include <functional>
#include <vector>

#include "core/model.hpp"

namespace lsm::core {

class RebalanceWS final : public MeanFieldModel {
 public:
  using RateFn = std::function<double(std::size_t load)>;

  /// `rate(j)` is the re-balance trigger rate of a processor with j tasks.
  RebalanceWS(double lambda, RateFn rate, std::size_t truncation = 0);

  /// Convenience: constant trigger rate for loaded processors,
  /// r(j) = rate for j >= 1 and r(0) = 0.
  RebalanceWS(double lambda, double rate, std::size_t truncation = 0);

  [[nodiscard]] bool rhs_batch(std::size_t nb, const double* x,
                               double* dx) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double rate(std::size_t load) const {
    return load < rates_.size() ? rates_[load] : rate_(load);
  }

 private:
  RateFn rate_;
  /// rate_ tabulated at loads 0 .. L of the constructed truncation, which
  /// bounds every rung of the Auto ladder: the kernel reads rates without
  /// a call per load.
  std::vector<double> rates_;
};

}  // namespace lsm::core
