// Load-dependent arrivals (paper, Section 3.5): the arrival rate at a
// processor with load j is lambda(j) = lambda_ext + lambda_int(j), where
// lambda_ext is new outside work and lambda_int models tasks spawned by
// tasks already present. Setting lambda_ext = 0 and lambda_int(0) = 0
// yields a *static* system that starts from an initial load profile and
// drains; relax/integrate gives the completion-time profile.
//
//   ds_i/dt = lambda(i-1)(s_{i-1} - s_i) - (s_i - s_{i+1})(1 + [i>=T] (s_1-s_2))
//             - [i == 1] corrections for steal-on-empty retention
//
// Stealing is the threshold policy of Section 2.3.
#pragma once

#include <functional>
#include <vector>

#include "core/model.hpp"

namespace lsm::core {

class GeneralArrivalWS final : public MeanFieldModel {
 public:
  using ArrivalFn = std::function<double(std::size_t load)>;

  /// `arrival(j)` is the total arrival rate at a processor with j tasks.
  /// `mean_rate` is the long-run per-processor arrival rate used for
  /// Little's-law sojourn conversion (pass 0 for static/drain systems,
  /// where mean_sojourn() is then unavailable).
  GeneralArrivalWS(ArrivalFn arrival, double mean_rate, std::size_t threshold,
                   std::size_t truncation);

  /// Dynamic system with external plus load-proportional internal work:
  /// lambda(j) = ext + (j > 0 ? internal : 0).
  static GeneralArrivalWS spawning(double ext, double internal,
                                   std::size_t threshold,
                                   std::size_t truncation = 0);

  /// Static system: no arrivals at all; pair with an initial profile and
  /// integrate to watch the drain (Section 3.5, last paragraph).
  static GeneralArrivalWS static_system(std::size_t threshold,
                                        std::size_t truncation);

  [[nodiscard]] bool rhs_batch(std::size_t nb, const double* x,
                               double* dx) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::size_t threshold() const noexcept { return threshold_; }

  [[nodiscard]] std::size_t min_truncation() const override {
    return threshold_ + 3;
  }
  [[nodiscard]] double arrival_rate(std::size_t load) const {
    return load < rates_.size() ? rates_[load] : arrival_(load);
  }

  /// Initial profile for drain experiments: fraction `fraction_loaded` of
  /// processors hold exactly `tasks` tasks, the rest are empty.
  [[nodiscard]] ode::State loaded_state(double fraction_loaded,
                                        std::size_t tasks) const;

 private:
  ArrivalFn arrival_;
  /// arrival_ tabulated at loads 0 .. L-1 of the constructed truncation,
  /// which bounds every rung of the Auto ladder: the kernel reads rates
  /// without a call per row.
  std::vector<double> rates_;
  std::size_t threshold_;
};

}  // namespace lsm::core
