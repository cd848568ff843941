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
  rates_.reserve(trunc_);
  for (std::size_t j = 0; j < trunc_; ++j) rates_.push_back(arrival_(j));
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

bool GeneralArrivalWS::rhs_batch(std::size_t lanes, const double* x,
                                 double* dx) const {
  return for_lanes(lanes, [&](auto nb) {
    const std::size_t L = trunc_;
    const std::size_t T = threshold_;
    // Threshold stealing (equations (4)-(6)) with the arrival rate of the
    // row's lower level; the i >= T steal term is a range split at T.
    const double* s0 = x;
    const double* s1 = x + nb;
    const double* s2 = x + 2 * nb;
    const double* sT = x + T * nb;
    for (std::size_t l = 0; l < nb; ++l) dx[l] = 0.0;
    {
      const double a = arrival_rate(0);
      for (std::size_t l = 0; l < nb; ++l) {
        dx[nb + l] = a * (s0[l] - s1[l]) - (s1[l] - s2[l]) * (1.0 - sT[l]);
      }
    }
    for (std::size_t i = 2; i < T; ++i) {
      const double a = arrival_rate(i - 1);
      const double* sp = x + (i - 1) * nb;
      const double* si = x + i * nb;
      const double* sn = x + (i + 1) * nb;  // i < T < L, tracked
      double* out = dx + i * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = a * (sp[l] - si[l]) - (si[l] - sn[l]);
      }
    }
    for (std::size_t i = T; i < L; ++i) {
      const double a = arrival_rate(i - 1);
      const double* sp = x + (i - 1) * nb;
      const double* si = x + i * nb;
      const double* sn = x + (i + 1) * nb;
      double* out = dx + i * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = a * (sp[l] - si[l]) - (si[l] - sn[l]) -
                 (si[l] - sn[l]) * (s1[l] - s2[l]);
      }
    }
    {
      const double a = arrival_rate(L - 1);
      const double* sp = x + (L - 1) * nb;
      const double* si = x + L * nb;
      double* out = dx + L * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = a * (sp[l] - si[l]) - (si[l] - 0.0) -
                 (si[l] - 0.0) * (s1[l] - s2[l]);
      }
    }
  });
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
