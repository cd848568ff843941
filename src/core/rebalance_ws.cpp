#include "core/rebalance_ws.hpp"

#include <utility>

#include "util/error.hpp"

namespace lsm::core {

RebalanceWS::RebalanceWS(double lambda, RateFn rate, std::size_t truncation)
    : MeanFieldModel(
          lambda, truncation != 0 ? truncation : default_truncation(lambda)),
      rate_(std::move(rate)) {
  trunc_explicit_ = truncation != 0;
  LSM_EXPECT(static_cast<bool>(rate_), "rate function must be callable");
  LSM_EXPECT(lambda < 1.0, "model is unstable for lambda >= 1");
  rates_.reserve(trunc_ + 1);
  for (std::size_t j = 0; j <= trunc_; ++j) rates_.push_back(rate_(j));
}

RebalanceWS::RebalanceWS(double lambda, double rate, std::size_t truncation)
    : RebalanceWS(
          lambda,
          [rate](std::size_t load) { return load >= 1 ? rate : 0.0; },
          truncation) {
  LSM_EXPECT(rate >= 0.0, "re-balance rate must be non-negative");
}

std::string RebalanceWS::name() const { return "rebalance-ws"; }

bool RebalanceWS::rhs_batch(std::size_t lanes, const double* x,
                            double* dx) const {
  return for_lanes(lanes, [&](auto nb) {
    const std::size_t L = trunc_;
    const double lam = lambda_;  // a local cannot alias dx
    const double* s0 = x;
    // Summing p_k over k >= q in closed form (s_q; s_0 for q <= 0; zero
    // past L), a_j meets v_q = s_q + s_{q-1} in C_{>=2i} + C_{>=2i-1} at
    // q = 2i - j in 1 .. L+1 (v_{L+1} = s_L), and 2 s_0 for j >= 2i. Rows
    // 1..L accumulate the interaction as j falls from L to 0, in an order
    // fixed by (i, L); row 0 carries the running A_{>=j} until it is
    // zeroed last.
    for (std::size_t i = 0; i <= L; ++i) {
      double* out = dx + i * nb;
      for (std::size_t l = 0; l < nb; ++l) out[l] = 0.0;
    }
    double* A = dx;
    const auto step = [&](std::size_t j, auto p) {  // p(l) = p_j of lane l
      const double r = rate(j);
      for (std::size_t l = 0; l < nb; ++l) A[l] += r * p(l);
      const std::size_t i_lo = (j + 2) / 2;  // q = 2i - j >= 1
      const std::size_t i_hi = (j + L) / 2;  // q <= L
      for (std::size_t i = i_lo; i <= i_hi; ++i) {
        const double* sq = x + (2 * i - j) * nb;
        const double* sq1 = sq - nb;
        double* out = dx + i * nb;
        for (std::size_t l = 0; l < nb; ++l) {
          out[l] += r * p(l) * (sq[l] + sq1[l]);
        }
      }
      if (j < L && (j + L + 1) % 2 == 0) {  // q = L + 1
        const double* sL = x + L * nb;
        double* out = dx + (j + L + 1) / 2 * nb;
        for (std::size_t l = 0; l < nb; ++l) out[l] += r * p(l) * sL[l];
      }
      if (j >= 1) {
        double* out = dx + j * nb;
        for (std::size_t l = 0; l < nb; ++l) out[l] -= s0[l] * A[l];
      }
      if (j >= 2 && j % 2 == 0) {
        double* out = dx + j / 2 * nb;
        for (std::size_t l = 0; l < nb; ++l) out[l] += 2.0 * s0[l] * A[l];
      }
    };
    {
      const double* sL = x + L * nb;
      step(L, [&](std::size_t l) { return sL[l]; });
    }
    for (std::size_t j = L; j-- > 0;) {
      const double* sj = x + j * nb;
      const double* sn = sj + nb;
      step(j, [&](std::size_t l) { return sj[l] - sn[l]; });
    }
    for (std::size_t i = 1; i < L; ++i) {
      const double* sp = x + (i - 1) * nb;
      const double* si = x + i * nb;
      const double* sn = si + nb;
      double* out = dx + i * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = lam * (sp[l] - si[l]) - (si[l] - sn[l]) +
                 (out[l] - si[l] * A[l]);
      }
    }
    {
      const double* sp = x + (L - 1) * nb;
      const double* si = x + L * nb;
      double* out = dx + L * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        out[l] = lam * (sp[l] - si[l]) - (si[l] - 0.0) +
                 (out[l] - si[l] * A[l]);
      }
    }
    for (std::size_t l = 0; l < nb; ++l) A[l] = 0.0;
  });
}

}  // namespace lsm::core
