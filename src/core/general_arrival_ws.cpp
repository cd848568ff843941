#include "core/general_arrival_ws.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace lsm::core {

GeneralArrivalWS::GeneralArrivalWS(ArrivalFn arrival, double mean_rate,
                                   std::size_t threshold,
                                   std::size_t truncation)
    : MeanFieldModel(mean_rate, truncation),
      arrival_(std::move(arrival)),
      threshold_(threshold) {
  LSM_EXPECT(static_cast<bool>(arrival_), "arrival function must be callable");
  LSM_EXPECT(threshold >= 2, "steal threshold must be at least 2");
  LSM_EXPECT(trunc_ >= min_truncation(), "truncation too small for threshold");
}

GeneralArrivalWS GeneralArrivalWS::spawning(double ext, double internal,
                                            std::size_t threshold,
                                            std::size_t truncation) {
  LSM_EXPECT(ext >= 0.0 && internal >= 0.0, "rates must be non-negative");
  LSM_EXPECT(ext + internal < 1.0,
             "total offered load must stay below capacity");
  const std::size_t L =
      truncation != 0 ? truncation : default_truncation(ext + internal) + threshold;
  GeneralArrivalWS model(
      [ext, internal](std::size_t load) {
        return ext + (load > 0 ? internal : 0.0);
      },
      ext, threshold, L);
  model.trunc_explicit_ = truncation != 0;
  return model;
}

GeneralArrivalWS GeneralArrivalWS::static_system(std::size_t threshold,
                                                 std::size_t truncation) {
  return GeneralArrivalWS([](std::size_t) { return 0.0; }, 0.0, threshold,
                          truncation);
}

std::string GeneralArrivalWS::name() const { return "general-arrival-ws"; }

void GeneralArrivalWS::deriv(double /*t*/, const ode::State& s,
                             ode::State& ds) const {
  const std::size_t L = trunc_;
  const std::size_t T = threshold_;
  LSM_ASSERT(s.size() == L + 1 && ds.size() == L + 1);
  const double s_T = s[T];
  const double steal_rate = s[1] - s[2];
  ds[0] = 0.0;
  ds[1] = arrival_(0) * (s[0] - s[1]) - (s[1] - s[2]) * (1.0 - s_T);
  for (std::size_t i = 2; i <= L; ++i) {
    const double s_next = (i < L) ? s[i + 1] : 0.0;
    double d = arrival_(i - 1) * (s[i - 1] - s[i]) - (s[i] - s_next);
    if (i >= T) d -= (s[i] - s_next) * steal_rate;
    ds[i] = d;
  }
}

ode::State GeneralArrivalWS::loaded_state(double fraction_loaded,
                                          std::size_t tasks) const {
  LSM_EXPECT(fraction_loaded >= 0.0 && fraction_loaded <= 1.0,
             "fraction must lie in [0,1]");
  LSM_EXPECT(tasks <= trunc_, "initial load exceeds truncation");
  ode::State s(dimension(), 0.0);
  s[0] = 1.0;
  for (std::size_t i = 1; i <= tasks; ++i) s[i] = fraction_loaded;
  return s;
}

}  // namespace lsm::core
