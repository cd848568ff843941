// Test-only oracle: the paper's tail recurrences for the models with a
// lane kernel, written as scalar loops in the per-index branch form of the
// equations (§2.2–§3.4 and the work-sharing foil). The library writes each
// of these recurrences once, as a range-split lane kernel; these loops are
// the independent reference the kernels are compared against bit for bit.
// The stealing families of §2.4–§3.4 are presets of the composed model;
// each keeps its own recurrence here, next to the composed model's general
// recurrence, the oracle for policies that vary several dimensions.
// The two-class recurrence of §3.5 sits here too, as the reference for the
// K-class model at K = 2.
// Each keeps the operation order of the equations as printed, which is
// also the kernels' per-lane order (the build contracts no FMAs).
#pragma once

#include <algorithm>
#include <cstddef>

#include "core/composed_ws.hpp"
#include "core/model.hpp"
#include "core/no_stealing.hpp"
#include "core/threshold_ws.hpp"
#include "core/transfer_ws.hpp"
#include "core/work_sharing.hpp"
#include "ode/state.hpp"
#include "util/error.hpp"

namespace lsm::reference {

/// Equation (1): independent M/M/1 queues.
inline void no_stealing(double lambda, std::size_t L, const ode::State& s,
                        ode::State& ds) {
  LSM_ASSERT(s.size() == L + 1 && ds.size() == L + 1);
  ds[0] = 0.0;
  for (std::size_t i = 1; i <= L; ++i) {
    const double s_next = (i < L) ? s[i + 1] : 0.0;
    ds[i] = lambda * (s[i - 1] - s[i]) - (s[i] - s_next);
  }
}

/// Equations (4)-(6): threshold stealing (T = 2 is the simple model).
inline void threshold(double lambda, std::size_t T, std::size_t L,
                      const ode::State& s, ode::State& ds) {
  LSM_ASSERT(s.size() == L + 1 && ds.size() == L + 1);
  const double s_T = s[T];
  const double steal_rate = s[1] - s[2];  // processors emptying per unit time
  ds[0] = 0.0;
  // i = 1: the final task is effectively lost only if the steal fails.
  ds[1] = lambda * (s[0] - s[1]) - (s[1] - s[2]) * (1.0 - s_T);
  for (std::size_t i = 2; i <= L; ++i) {
    const double s_next = (i < L) ? s[i + 1] : 0.0;
    double d = lambda * (s[i - 1] - s[i]) - (s[i] - s_next);
    if (i >= T) d -= (s[i] - s_next) * steal_rate;  // victims of thieves
    ds[i] = d;
  }
}

/// Sender-initiated work sharing with forwarding threshold S.
inline void work_sharing(double lambda, std::size_t S, std::size_t L,
                         const ode::State& s, ode::State& ds) {
  LSM_ASSERT(s.size() == L + 1 && ds.size() == L + 1);
  const double forwarded = lambda * s[S];  // per-processor forwarded stream
  ds[0] = 0.0;
  for (std::size_t i = 1; i <= L; ++i) {
    const double s_next = (i < L) ? s[i + 1] : 0.0;
    const double direct = (i - 1 < S) ? lambda : 0.0;
    ds[i] = (direct + forwarded) * (s[i - 1] - s[i]) - (s[i] - s_next);
  }
}

inline double int_pow(double x, std::size_t d) {
  double acc = 1.0;
  for (std::size_t k = 0; k < d; ++k) acc *= x;
  return acc;
}

/// Section 3.3: steal from the most loaded of d probed victims.
inline void multi_choice(double lambda, std::size_t d, std::size_t T,
                         std::size_t L, const ode::State& s, ode::State& ds) {
  LSM_ASSERT(s.size() == L + 1 && ds.size() == L + 1);
  const double fail_prob = int_pow(1.0 - s[T], d);
  const double steal_rate = s[1] - s[2];
  ds[0] = 0.0;
  ds[1] = lambda * (s[0] - s[1]) - (s[1] - s[2]) * fail_prob;
  for (std::size_t i = 2; i <= L; ++i) {
    const double s_next = (i < L) ? s[i + 1] : 0.0;
    double di = lambda * (s[i - 1] - s[i]) - (s[i] - s_next);
    if (i >= T) {
      // Probability the best of d probes holds exactly i tasks.
      const double victim_prob =
          int_pow(1.0 - s_next, d) - int_pow(1.0 - s[i], d);
      di -= victim_prob * steal_rate;
    }
    ds[i] = di;
  }
}

/// Section 3.4: steal k tasks per successful attempt.
inline void multi_steal(double lambda, std::size_t k, std::size_t T,
                        std::size_t L, const ode::State& s, ode::State& ds) {
  LSM_ASSERT(s.size() == L + 1 && ds.size() == L + 1);
  auto at = [&](std::size_t i) { return i <= L ? s[i] : 0.0; };
  const double steal_rate = s[1] - s[2];
  const double s_T = s[T];
  ds[0] = 0.0;
  ds[1] = lambda * (s[0] - s[1]) - (s[1] - s[2]) * (1.0 - s_T);
  for (std::size_t i = 2; i <= L; ++i) {
    const double s_next = (i < L) ? s[i + 1] : 0.0;
    double d = lambda * (s[i - 1] - s[i]) - (s[i] - s_next);
    if (i <= k) d += steal_rate * s_T;  // successful thief jumps 0 -> k
    if (i + k > T) {
      // Victim with load in [max(i,T), i+k) drops below level i.
      const double hi = at(i + k);
      const double lo = s[std::max(i, T)];
      d -= steal_rate * (lo - hi);
    }
    ds[i] = d;
  }
}

/// Section 2.4: attempts start on completions landing at load j <= B,
/// against victims holding >= j + T tasks.
inline void preemptive(double lambda, std::size_t B, std::size_t T,
                       std::size_t L, const ode::State& s, ode::State& ds) {
  LSM_ASSERT(s.size() == L + 1 && ds.size() == L + 1);
  auto at = [&](std::size_t i) { return i <= L ? s[i] : 0.0; };
  ds[0] = 0.0;
  for (std::size_t i = 1; i <= L; ++i) {
    const double departures = s[i] - at(i + 1);
    double d = lambda * (s[i - 1] - s[i]);
    // Completions: a processor leaving load i for i-1 retains a task iff
    // it is steal-eligible (i-1 <= B) and finds a victim with >= i-1+T.
    double retain = 0.0;
    if (i - 1 <= B) retain = at(i + T - 1);
    d -= departures * (1.0 - retain);
    // Victim losses: thieves land at loads j <= min(B, i-T); their event
    // rate is s_1 - s_{min(B,i-T)+2}.
    if (i >= T) {
      const std::size_t jmax = std::min(B, i - T);
      d -= departures * (s[1] - at(jmax + 2));
    }
    ds[i] = d;
  }
}

/// Section 2.5: empty processors retry failed steals at rate r.
inline void repeated(double lambda, double r, std::size_t T, std::size_t L,
                     const ode::State& s, ode::State& ds) {
  LSM_ASSERT(s.size() == L + 1 && ds.size() == L + 1);
  const double s_T = s[T];
  const double empty = s[0] - s[1];
  // Combined rate of steal events hitting heavy victims: on-empty attempts
  // from completing processors plus retries from already-empty ones.
  const double attempt_rate = (s[1] - s[2]) + r * empty;
  ds[0] = 0.0;
  ds[1] = lambda * (s[0] - s[1]) + r * empty * s_T -
          (s[1] - s[2]) * (1.0 - s_T);
  for (std::size_t i = 2; i <= L; ++i) {
    const double s_next = (i < L) ? s[i + 1] : 0.0;
    double d = lambda * (s[i - 1] - s[i]) - (s[i] - s_next);
    if (i >= T) d -= (s[i] - s_next) * attempt_rate;
    ds[i] = d;
  }
}

/// The composed model's general recurrence (every dimension at once), as
/// a per-level sum over thief loads j; see core/composed_ws.hpp.
inline void composed(double lambda, const core::ComposedPolicy& policy,
                     std::size_t L, const ode::State& s, ode::State& ds) {
  const std::size_t T = policy.threshold;
  const std::size_t d = policy.choices;
  const std::size_t k = policy.steal_count;
  const std::size_t B = policy.begin_steal;
  const double r = policy.retry_rate;
  LSM_ASSERT(s.size() == L + 1 && ds.size() == L + 1);
  auto at = [&](std::size_t i) { return i <= L ? s[i] : 0.0; };

  // succ_j = P(a probe set finds a victim >= j + T).
  auto succ = [&](std::size_t j) { return 1.0 - int_pow(1.0 - at(j + T), d); };
  // Thief-attempt rate at load j (completions landing at j, plus retries
  // for idle processors).
  const double idle = s[0] - s[1];
  auto attempt_rate = [&](std::size_t j) {
    double rate = 0.0;
    if (j <= B) rate += at(j + 1) - at(j + 2);
    if (j == 0) rate += r * idle;
    return rate;
  };

  ds[0] = 0.0;
  for (std::size_t i = 1; i <= L; ++i) {
    double dv = lambda * (s[i - 1] - s[i]);

    // Completions: a processor at load i drops below i unless it is a
    // steal-eligible thief (i-1 <= B) whose attempt succeeds (it then
    // jumps to i-1+k >= i).
    double retain = 0.0;
    if (i - 1 <= B) retain = succ(i - 1);
    dv -= (s[i] - at(i + 1)) * (1.0 - retain);

    // Thief gains: a thief at load j jumping to j + k newly crosses
    // levels j+2 .. j+k (level j+1 is the retention above).
    if (k >= 2 && i >= 2) {
      const std::size_t j_lo = i >= k ? i - k : 0;
      const std::size_t j_hi = std::min(B, i - 2);
      for (std::size_t j = j_lo; j <= j_hi; ++j) {
        dv += (at(j + 1) - at(j + 2)) * succ(j);
      }
    }
    // Retry thieves jump 0 -> k, crossing levels 1..k.
    if (r > 0.0 && i <= k) dv += r * idle * succ(0);

    // Victim losses: a victim at load v in [max(i, j+T), i+k) drops below
    // level i when it loses k tasks. Victim-load distribution is the max
    // of d probes restricted to >= j + T.
    const double one_minus_sik = 1.0 - at(i + k);
    for (std::size_t j = 0; j <= B; ++j) {  // j = 0 covers retry thieves
      const double rate = attempt_rate(j);
      if (rate > 0.0 && i + k > j + T) {
        const std::size_t lo = std::max(i, j + T);
        dv -= rate *
              (int_pow(one_minus_sik, d) - int_pow(1.0 - at(lo), d));
      }
    }

    ds[i] = dv;
  }
}

/// True when `policy` varies at most one dimension of the threshold
/// model: the presets, whose kernels match their own recurrence bit for
/// bit. Other policies match the general recurrence to rounding.
inline bool single_dimension(const core::ComposedPolicy& policy) {
  return (policy.choices > 1) + (policy.steal_count > 1) +
             (policy.begin_steal > 0) + (policy.retry_rate > 0.0) <=
         1;
}

/// The recurrence a composed policy is checked against: its family's own
/// when it varies one dimension (threshold when it varies none), else the
/// general one.
inline void composed_family(double lambda, const core::ComposedPolicy& p,
                            std::size_t L, const ode::State& s,
                            ode::State& ds) {
  if (!single_dimension(p)) {
    composed(lambda, p, L, s, ds);
  } else if (p.choices > 1) {
    multi_choice(lambda, p.choices, p.threshold, L, s, ds);
  } else if (p.steal_count > 1) {
    multi_steal(lambda, p.steal_count, p.threshold, L, s, ds);
  } else if (p.begin_steal > 0) {
    preemptive(lambda, p.begin_steal, p.threshold, L, s, ds);
  } else if (p.retry_rate > 0.0) {
    repeated(lambda, p.retry_rate, p.threshold, L, s, ds);
  } else {
    threshold(lambda, p.threshold, L, s, ds);
  }
}

/// Section 3.2: Exp(1/r) transfer time, packed state [s_0..s_L, w_0..w_L].
inline void transfer(double lambda, double rate, std::size_t T, std::size_t L,
                     const ode::State& x, ode::State& dx) {
  const std::size_t W = L + 1;  // offset of the w block
  LSM_ASSERT(x.size() == 2 * W && dx.size() == 2 * W);
  auto s = [&](std::size_t i) { return i <= L ? x[i] : 0.0; };
  auto w = [&](std::size_t i) { return i <= L ? x[W + i] : 0.0; };

  const double thief_rate = s(1) - s(2);       // procs emptying (s-class)
  const double success = s(T) + w(T);          // victim has >= T tasks
  const double start_wait = thief_rate * success;  // s -> w transitions

  dx[0] = rate * w(0) - start_wait;
  for (std::size_t i = 1; i <= L; ++i) {
    double d = lambda * (s(i - 1) - s(i)) + rate * w(i - 1) -
               (s(i) - s(i + 1));
    if (i >= T) d -= (s(i) - s(i + 1)) * thief_rate;
    dx[i] = d;
  }

  dx[W] = -rate * w(0) + start_wait;
  for (std::size_t i = 1; i <= L; ++i) {
    double d = lambda * (w(i - 1) - w(i)) - rate * w(i) -
               (w(i) - w(i + 1));
    if (i >= T) d -= (w(i) - w(i + 1)) * thief_rate;
    dx[W + i] = d;
  }
}

/// Section 3.5: two processor classes, fraction f fast at rate mu_f and the
/// rest slow at mu_s, packed [u_0..u_L, v_0..v_L]. Written out for exactly
/// two classes, as the equations print it: the steal-failure factor is
/// 1 - u_T - v_T and the load sums u_i + v_i level by level. MultiClassWS
/// with K = 2 must reproduce it bit for bit.
inline void two_class(double lambda, double mu_f, double mu_s, std::size_t T,
                      std::size_t L, const ode::State& x, ode::State& dx) {
  const std::size_t V = L + 1;  // offset of the v block
  LSM_ASSERT(x.size() == 2 * V && dx.size() == 2 * V);
  auto u = [&](std::size_t i) { return i <= L ? x[i] : 0.0; };
  auto v = [&](std::size_t i) { return i <= L ? x[V + i] : 0.0; };

  const double steal_rate = mu_f * (u(1) - u(2)) + mu_s * (v(1) - v(2));
  const double fail = 1.0 - u(T) - v(T);

  dx[0] = 0.0;
  dx[V] = 0.0;
  for (std::size_t i = 1; i <= L; ++i) {
    double du = lambda * (u(i - 1) - u(i));
    double dv = lambda * (v(i - 1) - v(i));
    if (i == 1) {
      du -= mu_f * (u(1) - u(2)) * fail;
      dv -= mu_s * (v(1) - v(2)) * fail;
    } else {
      du -= mu_f * (u(i) - u(i + 1));
      dv -= mu_s * (v(i) - v(i + 1));
    }
    if (i >= T) {
      du -= steal_rate * (u(i) - u(i + 1));
      dv -= steal_rate * (v(i) - v(i + 1));
    }
    dx[i] = du;
    dx[V + i] = dv;
  }
}

/// Mean tasks per processor of the two-class state: u_i + v_i summed from
/// level L down to 1.
inline double two_class_mean_tasks(std::size_t L, const ode::State& x) {
  const std::size_t V = L + 1;
  LSM_ASSERT(x.size() == 2 * V);
  double acc = 0.0;
  for (std::size_t i = L; i >= 1; --i) acc += x[i] + x[V + i];
  return acc;
}

/// Dispatches to the recurrence of `model`'s type at arrival rate
/// `lambda` and the model's own parameters and truncation.
inline void deriv(const core::MeanFieldModel& model, double lambda,
                  const ode::State& s, ode::State& ds) {
  const std::size_t L = model.truncation();
  if (dynamic_cast<const core::NoStealing*>(&model) != nullptr) {
    no_stealing(lambda, L, s, ds);
  } else if (const auto* th = dynamic_cast<const core::ThresholdWS*>(&model)) {
    threshold(lambda, th->threshold(), L, s, ds);
  } else if (const auto* sh =
                 dynamic_cast<const core::WorkSharingWS*>(&model)) {
    work_sharing(lambda, sh->share_threshold(), L, s, ds);
  } else if (const auto* cw = dynamic_cast<const core::ComposedWS*>(&model)) {
    composed_family(lambda, cw->policy(), L, s, ds);
  } else if (const auto* tr =
                 dynamic_cast<const core::TransferTimeWS*>(&model)) {
    transfer(lambda, tr->transfer_rate(), tr->threshold(), L, s, ds);
  } else {
    LSM_EXPECT(false, "no reference recurrence for " + model.name());
  }
}

/// The Newton root-residual map: the recurrence with its conserved row
/// replaced by the conservation constraint (1 - s_0, or for the transfer
/// model 1 - s_0 - w_0 on the w_0 row).
inline void root_residual(const core::MeanFieldModel& model, double lambda,
                          const ode::State& s, ode::State& f) {
  deriv(model, lambda, s, f);
  if (const auto* m = dynamic_cast<const core::TransferTimeWS*>(&model)) {
    f[m->w_index(0)] = 1.0 - s[0] - s[m->w_index(0)];
  } else {
    f[0] = 1.0 - s[0];
  }
}

}  // namespace lsm::reference
