#include "core/composed_ws.hpp"

#include "util/error.hpp"
#include "util/json.hpp"

namespace lsm::core {

namespace {
double int_pow(double x, std::size_t d) {
  double acc = 1.0;
  for (std::size_t i = 0; i < d; ++i) acc *= x;
  return acc;
}
}  // namespace

ComposedWS::ComposedWS(double lambda, ComposedPolicy policy,
                       std::size_t truncation)
    : MeanFieldModel(lambda, truncation != 0
                                 ? truncation
                                 : default_truncation(lambda) +
                                       policy.threshold + policy.begin_steal),
      policy_(policy) {
  trunc_explicit_ = truncation != 0;
  LSM_EXPECT(policy.threshold >= 2, "threshold must be at least 2");
  LSM_EXPECT(policy.choices >= 1, "need at least one probe");
  LSM_EXPECT(policy.steal_count >= 1, "must steal at least one task");
  LSM_EXPECT(2 * policy.steal_count <= policy.threshold,
             "requires k <= T/2 so victims stay ahead of thieves");
  LSM_EXPECT(policy.retry_rate >= 0.0, "retry rate must be non-negative");
  LSM_EXPECT(lambda < 1.0, "model is unstable for lambda >= 1");
  LSM_EXPECT(trunc_ >= min_truncation(),
             "truncation too small for the policy");
}

std::string ComposedWS::name() const {
  std::string out = "composed-ws(T=" + std::to_string(policy_.threshold);
  if (policy_.choices != 1) out += ",d=" + std::to_string(policy_.choices);
  if (policy_.steal_count != 1) {
    out += ",k=" + std::to_string(policy_.steal_count);
  }
  if (policy_.begin_steal != 0) {
    out += ",B=" + std::to_string(policy_.begin_steal);
  }
  if (policy_.retry_rate != 0.0) {
    out += ",r=" + util::Json::number_to_string(policy_.retry_rate);
  }
  return out + ")";
}

bool ComposedWS::rhs_batch(std::size_t lanes, const double* x,
                           double* dx) const {
  return for_lanes(lanes, [&](auto nb) {
    const std::size_t L = trunc_;
    const double lam = lambda_;  // a local cannot alias dx
    const std::size_t T = policy_.threshold;
    const std::size_t d = policy_.choices;
    const std::size_t k = policy_.steal_count;
    const std::size_t B = policy_.begin_steal;
    const double r = policy_.retry_rate;
    const bool powers = d > 1;
    const bool retries = r > 0.0;

    // With d > 1, rows i >= T of dx first hold (1 - s_i)^d, so each d-fold
    // product is computed once; rows are finished in increasing order and
    // row i reads only its own power and later rows' before overwriting.
    if (powers) {
      for (std::size_t i = T; i <= L; ++i) {
        const double* si = x + i * nb;
        double* out = dx + i * nb;
        for (std::size_t l = 0; l < nb; ++l) out[l] = int_pow(1.0 - si[l], d);
      }
    }
    for (std::size_t l = 0; l < nb; ++l) dx[l] = 0.0;

    // Rows 1 .. B+T-1 carry the policy's boundary terms (retry jumps,
    // thief retention and gains, victims ahead of the thief's level). Per
    // lane and term by term in the recurrence's order; few rows. They
    // read levels up to B+T+k-1, which L >= min_truncation() tracks.
    const auto s = [&](std::size_t i, std::size_t l) { return x[i * nb + l]; };
    const auto pw = [&](std::size_t i, std::size_t l) {
      return dx[i * nb + l];
    };
    // A probe set finds (misses) a victim with >= j + T tasks.
    const auto succ = [&](std::size_t j, std::size_t l) {
      return powers ? 1.0 - pw(j + T, l) : s(j + T, l);
    };
    const auto fail = [&](std::size_t j, std::size_t l) {
      return powers ? pw(j + T, l) : 1.0 - s(j + T, l);
    };
    // The most loaded of d probes holds a load in [lo, hi).
    const auto band = [&](std::size_t lo, std::size_t hi, std::size_t l) {
      return powers ? pw(hi, l) - pw(lo, l) : s(lo, l) - s(hi, l);
    };
    const auto idle = [&](std::size_t l) { return s(0, l) - s(1, l); };
    for (std::size_t i = 1; i < B + T; ++i) {
      double* out = dx + i * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        const double dep = s(i, l) - s(i + 1, l);
        double v = lam * (s(i - 1, l) - s(i, l));
        // Retry thieves jump 0 -> k, crossing levels 1..k.
        if (retries && i <= k) v += r * idle(l) * succ(0, l);
        // Completions: a steal-eligible thief (i - 1 <= B) whose attempt
        // succeeds jumps to i - 1 + k >= i instead of dropping below i.
        v -= i - 1 <= B ? dep * fail(i - 1, l) : dep;
        // Thieves at load j jumping to j + k newly cross levels j+2..j+k.
        for (std::size_t j = i > k ? i - k : 0; j + 2 <= i && j <= B; ++j) {
          v += (s(j + 1, l) - s(j + 2, l)) * succ(j, l);
        }
        // Victims at load [max(i, j+T), i+k) drop below level i. Thieves
        // at j <= i - T all see the band [i, i+k): their rates telescope.
        if (i >= T) {
          double upto = s(1, l) - s(i - T + 2, l);
          if (retries) upto += r * idle(l);
          v -= band(i, i + k, l) * upto;
        }
        for (std::size_t j = i >= T ? i - T + 1 : 0; j <= B && j + T < i + k;
             ++j) {
          double rate = s(j + 1, l) - s(j + 2, l);
          if (retries && j == 0) rate += r * idle(l);
          v -= rate * band(j + T, i + k, l);
        }
        out[l] = v;
      }
    }

    // Rows B+T .. L: every thief sees the band [i, i+k), so each row is
    //   l(s_{i-1} - s_i) - (s_i - s_{i+1}) - band(i, i+k) A
    // with A = s_1 - s_{B+2} + r (s_0 - s_1) the attempt rate of all
    // steal-eligible thieves; split where the band's top leaves the
    // tracked range (s = 0 there, its power 1) and at row L, whose
    // s_{L+1} is 0.
    const double* s0 = x;
    const double* s1 = x + nb;
    const double* sB2 = x + (B + 2) * nb;
    const auto tail = [&](auto attempts) {
      const auto rows = [&](std::size_t first, std::size_t last,
                            auto band_at) {
        for (std::size_t i = first; i < last; ++i) {
          const double* sp = x + (i - 1) * nb;
          const double* si = x + i * nb;
          const double* sn = x + (i + 1) * nb;
          double* out = dx + i * nb;
          for (std::size_t l = 0; l < nb; ++l) {
            out[l] = lam * (sp[l] - si[l]) - (si[l] - sn[l]) -
                     band_at(i, l) * attempts(l);
          }
        }
      };
      if (powers) {
        rows(B + T, L - k + 1, [&](std::size_t i, std::size_t l) {
          return dx[(i + k) * nb + l] - dx[i * nb + l];
        });
        rows(L - k + 1, L, [&](std::size_t i, std::size_t l) {
          return 1.0 - dx[i * nb + l];
        });
      } else {
        rows(B + T, L - k + 1, [&](std::size_t i, std::size_t l) {
          return x[i * nb + l] - x[(i + k) * nb + l];
        });
        rows(L - k + 1, L,
             [&](std::size_t i, std::size_t l) { return x[i * nb + l]; });
      }
      const double* sp = x + (L - 1) * nb;
      const double* si = x + L * nb;
      double* out = dx + L * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        const double top = powers ? 1.0 - out[l] : si[l];
        out[l] = lam * (sp[l] - si[l]) - si[l] - top * attempts(l);
      }
    };
    if (retries) {
      tail([&](std::size_t l) {
        return (s1[l] - sB2[l]) + r * (s0[l] - s1[l]);
      });
    } else {
      tail([&](std::size_t l) { return s1[l] - sB2[l]; });
    }
  });
}

double ComposedWS::predicted_tail_ratio(const ode::State& pi) const {
  const std::size_t d = policy_.choices;
  const std::size_t B = policy_.begin_steal;
  const double r = policy_.retry_rate;
  LSM_EXPECT(policy_.steal_count == 1 && (d > 1) + (B > 0) + (r > 0.0) <= 1,
             "tail ratio is predicted for one of B, r, d only");
  LSM_ASSERT(pi.size() >= B + 3);
  if (d > 1) {
    return lambda_ / (1.0 + static_cast<double>(d) * (lambda_ - pi[2]));
  }
  return lambda_ / (1.0 + r * (1.0 - lambda_) + lambda_ - pi[B + 2]);
}

}  // namespace lsm::core
