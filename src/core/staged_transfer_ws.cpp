#include "core/staged_transfer_ws.hpp"

#include "util/error.hpp"
#include "util/json.hpp"

namespace lsm::core {

StagedTransferWS::StagedTransferWS(double lambda, double transfer_rate,
                                   std::size_t stages, std::size_t threshold,
                                   std::size_t truncation)
    // Transfer latency throttles the steal rate, so the tails decay
    // noticeably slower than in the instant-steal models; inflate the
    // automatic truncation accordingly (verified against L-doubling).
    : MeanFieldModel(lambda,
                     truncation != 0
                         ? truncation
                         : 5 * default_truncation(lambda) / 2 + threshold),
      rate_(transfer_rate),
      stages_(stages),
      threshold_(threshold) {
  trunc_explicit_ = truncation != 0;
  LSM_EXPECT(transfer_rate > 0.0, "transfer rate must be positive");
  LSM_EXPECT(stages >= 1, "need at least one transfer stage");
  LSM_EXPECT(threshold >= 2, "steal threshold must be at least 2");
  LSM_EXPECT(lambda < 1.0, "model is unstable for lambda >= 1");
  LSM_EXPECT(trunc_ > threshold + 2, "truncation too small for threshold");
}

std::string StagedTransferWS::name() const {
  return "staged-transfer-ws(r=" + util::Json::number_to_string(rate_) +
         ",c=" + std::to_string(stages_) +
         ",T=" + std::to_string(threshold_) + ")";
}

bool StagedTransferWS::rhs_batch(std::size_t lanes, const double* x,
                                 double* dx) const {
  return for_lanes(lanes, [&](auto nb) {
    const std::size_t L = trunc_;
    const std::size_t T = threshold_;
    const std::size_t c = stages_;
    const std::size_t W = L + 1;
    const double lam = lambda_;  // a local cannot alias dx
    const double stage_rate = static_cast<double>(c) * rate_;
    const double* s1 = x + nb;
    const double* s2 = x + 2 * nb;
    const auto row = [&](std::size_t m, std::size_t i) {
      return x + (m * W + i) * nb;
    };

    // Steal starts (s_1 - s_2)(s_T + sum_m w^(m)_T), staged in w^(c)'s
    // head row, which is finished last.
    double* start_wait = dx + c * W * nb;
    for (std::size_t l = 0; l < nb; ++l) start_wait[l] = row(0, T)[l];
    for (std::size_t m = 1; m <= c; ++m) {
      const double* wT = row(m, T);
      for (std::size_t l = 0; l < nb; ++l) start_wait[l] += wT[l];
    }
    for (std::size_t l = 0; l < nb; ++l) {
      start_wait[l] = (s1[l] - s2[l]) * start_wait[l];
    }
    for (std::size_t l = 0; l < nb; ++l) {
      dx[l] = stage_rate * row(1, 0)[l] - start_wait[l];
    }
    for (std::size_t m = 1; m < c; ++m) {
      const double* in = row(m + 1, 0);
      const double* w0 = row(m, 0);
      double* out = dx + m * W * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = stage_rate * in[l] - stage_rate * w0[l];
      }
    }
    for (std::size_t l = 0; l < nb; ++l) {
      start_wait[l] = start_wait[l] - stage_rate * row(c, 0)[l];
    }

    // Rows 1..L of block m: arrivals, the block's gain and loss, service,
    // and for i >= T steal victims (a range split at T); row L's successor
    // is the truncation's zero. The s block (kind 0) gains deliveries from
    // w^(1) one level down and loses nothing; w^(m) gains stage progress
    // from w^(m+1) (kind 1; w^(c), kind 2, gains nothing: + 0.0) and
    // loses its own.
    const auto rows = [&](std::size_t m, auto kind, std::size_t i0,
                          std::size_t i1, auto steal, auto last) {
      for (std::size_t i = i0; i < i1; ++i) {
        const double* vi = row(m, i);
        const double* vp = vi - nb;
        const double* vn = vi + nb;  // read only below row L
        const double* gain = kind == 0 ? row(1, i - 1) : row(m + kind % 2, i);
        double* out = dx + (m * W + i) * nb;
        for (std::size_t l = 0; l < nb; ++l) {
          double next = 0.0;
          if constexpr (!last) next = vn[l];
          double d;
          if constexpr (kind == 0) {
            d = lam * (vp[l] - vi[l]) + stage_rate * gain[l] - (vi[l] - next);
          } else if constexpr (kind == 1) {
            d = lam * (vp[l] - vi[l]) + stage_rate * gain[l] -
                stage_rate * vi[l] - (vi[l] - next);
          } else {
            d = lam * (vp[l] - vi[l]) + 0.0 - stage_rate * vi[l] -
                (vi[l] - next);
          }
          if constexpr (steal) d -= (vi[l] - next) * (s1[l] - s2[l]);
          out[l] = d;
        }
      }
    };
    const auto block = [&](std::size_t m, auto kind) {
      rows(m, kind, 1, T, std::false_type{}, std::false_type{});
      rows(m, kind, T, L, std::true_type{}, std::false_type{});
      rows(m, kind, L, L + 1, std::true_type{}, std::true_type{});
    };
    block(0, std::integral_constant<std::size_t, 0>{});
    for (std::size_t m = 1; m < c; ++m) {
      block(m, std::integral_constant<std::size_t, 1>{});
    }
    block(c, std::integral_constant<std::size_t, 2>{});
  });
}

void StagedTransferWS::project(ode::State& x) const {
  const std::size_t W = trunc_ + 1;
  for (std::size_t m = 0; m <= stages_; ++m) {
    project_segment(x, m * W, (m + 1) * W, -1.0);
  }
}

bool StagedTransferWS::root_residual_batch(std::size_t nb, const double* x,
                                           double* f) const {
  (void)rhs_batch(nb, x, f);
  // Total class mass s_0 + sum_m w^{(m)}_0 = 1 is conserved; replace the
  // redundant w^{(1)}_0 row with the constraint.
  for (std::size_t l = 0; l < nb; ++l) {
    double mass = x[l];
    for (std::size_t m = 1; m <= stages_; ++m) {
      mass += x[w_index(m, 0) * nb + l];
    }
    f[w_index(1, 0) * nb + l] = 1.0 - mass;
  }
  return true;
}

double StagedTransferWS::mean_tasks(const ode::State& x) const {
  const std::size_t W = trunc_ + 1;
  LSM_ASSERT(x.size() == (stages_ + 1) * W);
  double acc = 0.0;
  for (std::size_t m = 1; m <= stages_; ++m) {
    acc += x[m * W];  // one in-transit task per waiting processor
  }
  for (std::size_t i = trunc_; i >= 1; --i) {
    acc += x[i];
    for (std::size_t m = 1; m <= stages_; ++m) acc += x[m * W + i];
  }
  return acc;
}

}  // namespace lsm::core
