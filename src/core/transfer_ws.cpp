#include "core/transfer_ws.hpp"

#include "util/error.hpp"

namespace lsm::core {

TransferTimeWS::TransferTimeWS(double lambda, double transfer_rate,
                               std::size_t threshold, std::size_t truncation)
    // Transfer latency throttles the steal rate, so the tails decay
    // noticeably slower than in the instant-steal models; inflate the
    // automatic truncation accordingly (verified against L-doubling).
    : MeanFieldModel(lambda,
                     truncation != 0
                         ? truncation
                         : 5 * default_truncation(lambda) / 2 + threshold),
      rate_(transfer_rate),
      threshold_(threshold) {
  trunc_explicit_ = truncation != 0;
  LSM_EXPECT(transfer_rate > 0.0, "transfer rate must be positive");
  LSM_EXPECT(threshold >= 2, "steal threshold must be at least 2");
  LSM_EXPECT(lambda < 1.0, "model is unstable for lambda >= 1");
  LSM_EXPECT(trunc_ > threshold + 2, "truncation too small for threshold");
}

std::string TransferTimeWS::name() const {
  return "transfer-ws(r=" + std::to_string(rate_) +
         ",T=" + std::to_string(threshold_) + ")";
}

bool TransferTimeWS::rhs_batch(std::size_t lanes, const double* x,
                               double* dx) const {
  return for_lanes(lanes, [&](auto nb) {
    const std::size_t L = trunc_;
    const double lam = lambda_;  // locals cannot alias dx
    const double rate = rate_;
    const std::size_t T = threshold_;
    const std::size_t W = L + 1;  // offset of the w block (in components)
    // Component-major lanes over the packed [s | w] state; the i >= T thief
    // term becomes a range split as in the single-segment models.
    const double* s1 = x + nb;
    const double* s2 = x + 2 * nb;
    const double* sT = x + T * nb;
    const double* wT = x + (W + T) * nb;
    const double* w0 = x + W * nb;
    for (std::size_t l = 0; l < nb; ++l) {
      const double start_wait = (s1[l] - s2[l]) * (sT[l] + wT[l]);
      dx[l] = rate * w0[l] - start_wait;
      dx[W * nb + l] = -rate * w0[l] + start_wait;
    }
    for (std::size_t i = 1; i < T; ++i) {
      const double* sp = x + (i - 1) * nb;
      const double* si = x + i * nb;
      const double* sn = x + (i + 1) * nb;  // i < T <= L, tracked
      const double* wp = x + (W + i - 1) * nb;
      const double* wi = x + (W + i) * nb;
      const double* wn = x + (W + i + 1) * nb;
      double* outs = dx + i * nb;
      double* outw = dx + (W + i) * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        outs[l] = lam * (sp[l] - si[l]) + rate * wp[l] - (si[l] - sn[l]);
        outw[l] = lam * (wp[l] - wi[l]) - rate * wi[l] - (wi[l] - wn[l]);
      }
    }
    for (std::size_t i = T; i < L; ++i) {
      const double* sp = x + (i - 1) * nb;
      const double* si = x + i * nb;
      const double* sn = x + (i + 1) * nb;
      const double* wp = x + (W + i - 1) * nb;
      const double* wi = x + (W + i) * nb;
      const double* wn = x + (W + i + 1) * nb;
      double* outs = dx + i * nb;
      double* outw = dx + (W + i) * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        const double thief = s1[l] - s2[l];
        outs[l] = lam * (sp[l] - si[l]) + rate * wp[l] - (si[l] - sn[l]) -
                  (si[l] - sn[l]) * thief;
        outw[l] = lam * (wp[l] - wi[l]) - rate * wi[l] - (wi[l] - wn[l]) -
                  (wi[l] - wn[l]) * thief;
      }
    }
    {
      const double* sp = x + (L - 1) * nb;
      const double* si = x + L * nb;
      const double* wp = x + (W + L - 1) * nb;
      const double* wi = x + (W + L) * nb;
      double* outs = dx + L * nb;
      double* outw = dx + (W + L) * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        const double thief = s1[l] - s2[l];
        outs[l] = lam * (sp[l] - si[l]) + rate * wp[l] - (si[l] - 0.0) -
                  (si[l] - 0.0) * thief;
        outw[l] = lam * (wp[l] - wi[l]) - rate * wi[l] - (wi[l] - 0.0) -
                  (wi[l] - 0.0) * thief;
      }
    }
  });
}

void TransferTimeWS::project(ode::State& x) const {
  const std::size_t W = trunc_ + 1;
  // Both blocks are monotone tails with dynamic heads in [0,1].
  project_segment(x, 0, W, -1.0);
  project_segment(x, W, 2 * W, -1.0);
}

bool TransferTimeWS::root_residual_batch(std::size_t nb, const double* x,
                                         double* f) const {
  (void)rhs_batch(nb, x, f);
  const std::size_t W = trunc_ + 1;
  // d(s_0 + w_0)/dt == 0 identically makes the Jacobian singular; replace
  // the redundant w_0 row with the conservation constraint itself.
  for (std::size_t l = 0; l < nb; ++l) {
    f[W * nb + l] = 1.0 - x[l] - x[W * nb + l];
  }
  return true;
}

double TransferTimeWS::mean_tasks(const ode::State& x) const {
  const std::size_t W = trunc_ + 1;
  LSM_ASSERT(x.size() == 2 * W);
  double acc = x[W];  // w_0: one in-transit task per waiting processor
  for (std::size_t i = trunc_; i >= 1; --i) acc += x[i] + x[W + i];
  return acc;
}

}  // namespace lsm::core
