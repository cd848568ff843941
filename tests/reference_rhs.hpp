// Test-only oracle: the paper's tail recurrences for the models with a
// lane kernel, written as scalar loops in the per-index branch form of the
// equations (§2.2–§3.4 and the work-sharing foil). The library writes each
// of these recurrences once, as a range-split lane kernel; these loops are
// the independent reference the kernels are compared against bit for bit.
// The stealing families of §2.4–§3.4 are presets of the composed model;
// each keeps its own recurrence here, next to the composed model's general
// recurrence, the oracle for policies that vary several dimensions.
// The two-class recurrence of §3.5 sits here too, as the reference for the
// K-class model at K = 2, and the exponential-transfer recurrence of §3.2,
// the reference for the staged-transfer model at c = 1 stage; next to them
// are the K-class, constant-service (§3.1),
// staged-transfer (§3.2), load-dependent arrival (§3.5), re-balancing
// (§3.4, as the O(L^2) difference-array scatter over load pairs) and
// phase-type recurrences. The threshold-stealing and work-sharing classes
// take any phase-type service: deriv() picks the exponential recurrence
// (no stealing, threshold, work sharing) at unit exponential service and
// the phase-type one otherwise. The phase-type transfer recurrence (one
// exponential transfer stage, per-class order) is the reference for the
// staged-transfer model at c = 1 with p > 1 service phases, which the
// kernel evaluates in the staged order and matches to rounding.
// Each keeps the operation order of the equations as printed, which is
// also the kernels' per-lane order (the build contracts no FMAs); the
// re-balancing kernel sums its interaction in another order and matches
// to rounding.
#pragma once

#include <algorithm>
#include <cstddef>

#include <vector>

#include "core/composed_ws.hpp"
#include "core/erlang_ws.hpp"
#include "core/general_arrival_ws.hpp"
#include "core/model.hpp"
#include "core/multi_class_ws.hpp"
#include "core/phase_type_ws.hpp"
#include "core/rebalance_ws.hpp"
#include "core/staged_transfer_ws.hpp"
#include "core/threshold_ws.hpp"
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
/// The derivative of StagedTransferWS with c = 1 stage (the registry's
/// `transfer`) must reproduce it bit for bit.
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

/// Mean tasks per processor of the transfer state: w_0 (one in-transit
/// task per waiting processor) plus s_i + w_i summed from level L down
/// to 1.
inline double transfer_mean_tasks(std::size_t L, const ode::State& x) {
  const std::size_t W = L + 1;
  LSM_ASSERT(x.size() == 2 * W);
  double acc = x[W];
  for (std::size_t i = L; i >= 1; --i) acc += x[i] + x[W + i];
  return acc;
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

/// Section 3.5: K processor classes, packed one tail per class.
inline void multi_class(double lambda,
                        const std::vector<core::ProcessorClass>& classes,
                        std::size_t T, std::size_t L, const ode::State& x,
                        ode::State& dx) {
  const std::size_t K = classes.size();
  const std::size_t W = L + 1;
  LSM_ASSERT(x.size() == K * W && dx.size() == K * W);
  // fail = 1 - H_T, taken as 1 minus each class's u^c_T in class order.
  double steal_rate = 0.0;
  double fail = 1.0;
  for (std::size_t c = 0; c < K; ++c) {
    const double* u = x.data() + c * W;
    steal_rate += classes[c].rate * (u[1] - u[2]);
    fail -= u[T];
  }
  for (std::size_t c = 0; c < K; ++c) {
    const double mu = classes[c].rate;
    const double* u = x.data() + c * W;
    double* du = dx.data() + c * W;
    auto at = [&](std::size_t i) { return i <= L ? u[i] : 0.0; };
    du[0] = 0.0;
    du[1] = lambda * (u[0] - u[1]) - mu * (u[1] - u[2]) * fail;
    for (std::size_t i = 2; i <= L; ++i) {
      double d = lambda * (u[i - 1] - u[i]) - mu * (u[i] - at(i + 1));
      if (i >= T) d -= steal_rate * (u[i] - at(i + 1));
      du[i] = d;
    }
  }
}

/// Section 3.1: Erlang-c service stages, steal-on-empty with T = 2 tasks.
inline void erlang(double lambda, std::size_t c, std::size_t L,
                   const ode::State& s, ode::State& ds) {
  LSM_ASSERT(s.size() == L + 1 && ds.size() == L + 1);
  auto at = [&](std::size_t i) { return i <= L ? s[i] : 0.0; };
  const auto mu = static_cast<double>(c);  // per-stage completion rate
  const double finishers = s[1] - s[2];    // procs on their final stage
  ds[0] = 0.0;
  ds[1] = lambda * (s[0] - s[1]) - mu * finishers * (1.0 - at(c + 1));
  for (std::size_t i = 2; i <= std::min(c, L); ++i) {
    const double s_next = (i < L) ? s[i + 1] : 0.0;
    ds[i] = lambda * (s[0] - s[i]) + mu * finishers * at(i + c) -
            mu * (s[i] - s_next);
  }
  for (std::size_t i = c + 1; i <= L; ++i) {
    const double s_next = (i < L) ? s[i + 1] : 0.0;
    ds[i] = lambda * (s[i - c] - s[i]) - mu * (s[i] - s_next) -
            mu * (s[i] - at(i + c)) * finishers;
  }
}

/// Section 3.2's remark: transfer through c Erlang stages, packed
/// [s | w^(1) | ... | w^(c)].
inline void staged_transfer(double lambda, double rate, std::size_t c,
                            std::size_t T, std::size_t L,
                            const ode::State& x, ode::State& dx) {
  const std::size_t W = L + 1;
  LSM_ASSERT(x.size() == (c + 1) * W && dx.size() == (c + 1) * W);
  auto s = [&](std::size_t i) { return i <= L ? x[i] : 0.0; };
  auto w = [&](std::size_t m, std::size_t i) {
    return i <= L ? x[m * W + i] : 0.0;
  };
  const double stage_rate = static_cast<double>(c) * rate;
  const double thief_rate = s(1) - s(2);
  double heavy = s(T);  // any processor with >= T tasks may be a victim
  for (std::size_t m = 1; m <= c; ++m) heavy += w(m, T);
  const double start_wait = thief_rate * heavy;

  dx[0] = stage_rate * w(1, 0) - start_wait;
  for (std::size_t i = 1; i <= L; ++i) {
    double d = lambda * (s(i - 1) - s(i)) + stage_rate * w(1, i - 1) -
               (s(i) - s(i + 1));
    if (i >= T) d -= (s(i) - s(i + 1)) * thief_rate;
    dx[i] = d;
  }
  for (std::size_t m = 1; m <= c; ++m) {
    const double in0 = (m == c) ? start_wait : stage_rate * w(m + 1, 0);
    dx[m * W] = in0 - stage_rate * w(m, 0);
    for (std::size_t i = 1; i <= L; ++i) {
      const double inflow = (m == c) ? 0.0 : stage_rate * w(m + 1, i);
      double d = lambda * (w(m, i - 1) - w(m, i)) + inflow -
                 stage_rate * w(m, i) - (w(m, i) - w(m, i + 1));
      if (i >= T) d -= (w(m, i) - w(m, i + 1)) * thief_rate;
      dx[m * W + i] = d;
    }
  }
}

/// Section 3.5: threshold stealing with load-dependent arrival rates
/// arrival(j) at a processor with j tasks.
template <class Arrival>
void general_arrival(const Arrival& arrival, std::size_t T, std::size_t L,
                     const ode::State& s, ode::State& ds) {
  LSM_ASSERT(s.size() == L + 1 && ds.size() == L + 1);
  const double s_T = s[T];
  const double steal_rate = s[1] - s[2];
  ds[0] = 0.0;
  ds[1] = arrival(0) * (s[0] - s[1]) - (s[1] - s[2]) * (1.0 - s_T);
  for (std::size_t i = 2; i <= L; ++i) {
    const double s_next = (i < L) ? s[i + 1] : 0.0;
    double d = arrival(i - 1) * (s[i - 1] - s[i]) - (s[i] - s_next);
    if (i >= T) d -= (s[i] - s_next) * steal_rate;
    ds[i] = d;
  }
}

/// Section 3.4: pairwise re-balancing at trigger rate rate(j), the
/// interaction summed pair by pair with a difference array (each pair
/// perturbs s_i by +1 on (min, floor] and -1 on (ceil, max]).
template <class Rate>
void rebalance(double lambda, const Rate& rate, std::size_t L,
               const ode::State& s, ode::State& ds) {
  LSM_ASSERT(s.size() == L + 1 && ds.size() == L + 1);
  std::vector<double> p(L + 1), rj(L + 1);
  for (std::size_t j = 0; j <= L; ++j) {
    p[j] = s[j] - (j < L ? s[j + 1] : 0.0);
    rj[j] = rate(j);
  }
  std::vector<double> diff(L + 3, 0.0);
  for (std::size_t j = 0; j <= L; ++j) {
    if (rj[j] == 0.0 || p[j] == 0.0) continue;
    for (std::size_t k = 0; k <= L; ++k) {
      if (p[k] == 0.0) continue;
      const double wgt = rj[j] * p[j] * p[k];
      const std::size_t lo = (j + k) / 2;      // floor
      const std::size_t hi = (j + k + 1) / 2;  // ceil
      const std::size_t mn = std::min(j, k);
      const std::size_t mx = std::max(j, k);
      if (lo > mn) {
        diff[mn + 1] += wgt;
        diff[std::min(lo + 1, L + 2)] -= wgt;
      }
      if (mx > hi) {
        diff[std::min(hi + 1, L + 2)] -= wgt;
        diff[std::min(mx + 1, L + 2)] += wgt;
      }
    }
  }
  ds[0] = 0.0;
  double interaction = 0.0;
  for (std::size_t i = 1; i <= L; ++i) {
    interaction += diff[i];
    const double s_next = (i < L) ? s[i + 1] : 0.0;
    ds[i] = lambda * (s[i - 1] - s[i]) - (s[i] - s_next) + interaction;
  }
}

/// Phase-type service (Van Houdt, arXiv:1810.13186): the service terms
/// M_{i,j} + alpha_j A_{i+1} of the p segments [h_j, u_{1,j}..u_{L,j}]
/// starting at `base`, reading 0 past the truncation.
inline double phase_service_flux(const core::PhaseType& svc, std::size_t L,
                                 const ode::State& x, std::size_t base,
                                 std::size_t i, std::size_t j) {
  const std::size_t W = L + 1;
  auto u = [&](std::size_t ii, std::size_t k) {
    return ii <= L ? x[base + k * W + ii] : 0.0;
  };
  double mix = 0.0;
  double exits = 0.0;
  for (std::size_t k = 0; k < svc.phases(); ++k) {
    mix += svc.subgen(k, j) * u(i, k);
    exits += svc.exit_rates()[k] * u(i + 1, k);
  }
  return mix + svc.alpha()[j] * exits;
}

/// The slaved heads of the single-class phase-type models:
/// dh_j = du_{1,j} - alpha_j sum_k du_{1,k}.
inline void phase_heads(const core::PhaseType& svc, std::size_t L,
                        ode::State& dx) {
  const std::size_t W = L + 1;
  double db = 0.0;
  for (std::size_t k = 0; k < svc.phases(); ++k) db += dx[k * W + 1];
  for (std::size_t j = 0; j < svc.phases(); ++j) {
    dx[j * W] = dx[j * W + 1] - svc.alpha()[j] * db;
  }
}

/// Threshold stealing under phase-type service (T = 0: no stealing).
inline void phase_type_ws(double lambda, const core::PhaseType& svc,
                          std::size_t T, std::size_t L, const ode::State& x,
                          ode::State& dx) {
  const std::size_t W = L + 1;
  const std::size_t p = svc.phases();
  LSM_ASSERT(x.size() == p * W && dx.size() == p * W);
  auto u = [&](std::size_t i, std::size_t k) {
    return i <= L ? x[k * W + i] : 0.0;
  };
  double busy = 0.0;
  for (std::size_t k = 0; k < p; ++k) busy += x[k * W + 1];
  const double idle = 1.0 - busy;
  double steal_rate = 0.0;  // R: processors completing their final task
  double success = 0.0;     // s_T: victims holding >= T tasks
  if (T > 0) {
    for (std::size_t k = 0; k < p; ++k) {
      steal_rate += svc.exit_rates()[k] * (x[k * W + 1] - u(2, k));
      success += u(T, k);
    }
  }
  for (std::size_t i = 1; i <= L; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      const double a = svc.alpha()[j];
      double d = phase_service_flux(svc, L, x, 0, i, j);
      d += i == 1 ? lambda * a * idle
                  : lambda * (x[j * W + i - 1] - x[j * W + i]);
      if (T > 0) {
        if (i == 1) d += steal_rate * success * a;
        if (i >= T) d -= steal_rate * (x[j * W + i] - u(i + 1, j));
      }
      dx[j * W + i] = d;
    }
  }
  phase_heads(svc, L, dx);
}

/// Sender-initiated work sharing under phase-type service.
inline void phase_type_sharing(double lambda, const core::PhaseType& svc,
                               std::size_t S, std::size_t L,
                               const ode::State& x, ode::State& dx) {
  const std::size_t W = L + 1;
  const std::size_t p = svc.phases();
  LSM_ASSERT(x.size() == p * W && dx.size() == p * W);
  double busy = 0.0;
  for (std::size_t k = 0; k < p; ++k) busy += x[k * W + 1];
  const double idle = 1.0 - busy;
  double share_tail = 0.0;  // sum_k u_{S,k}: processors that forward
  for (std::size_t k = 0; k < p; ++k) share_tail += x[k * W + S];
  const double forwarded = lambda * share_tail;
  for (std::size_t i = 1; i <= L; ++i) {
    const double direct = (i - 1 < S) ? lambda : 0.0;
    const double arrivals = direct + forwarded;
    for (std::size_t j = 0; j < p; ++j) {
      double d = phase_service_flux(svc, L, x, 0, i, j);
      d += i == 1 ? arrivals * svc.alpha()[j] * idle
                  : arrivals * (x[j * W + i - 1] - x[j * W + i]);
      dx[j * W + i] = d;
    }
  }
  phase_heads(svc, L, dx);
}

/// Exp(1/r) transfer latency under phase-type service: p not-awaiting
/// segments u followed by p awaiting segments v. The derivative of
/// StagedTransferWS with c = 1 stage and p > 1 phases matches it to
/// rounding.
inline void phase_type_transfer(double lambda, double rate,
                                const core::PhaseType& svc, std::size_t T,
                                std::size_t L, const ode::State& x,
                                ode::State& dx) {
  const std::size_t W = L + 1;
  const std::size_t p = svc.phases();
  const std::size_t V = p * W;
  LSM_ASSERT(x.size() == 2 * V && dx.size() == 2 * V);
  const auto& alpha = svc.alpha();
  const auto& t = svc.exit_rates();
  auto uu = [&](std::size_t i, std::size_t j) {
    return i <= L ? x[j * W + i] : 0.0;
  };
  auto vv = [&](std::size_t i, std::size_t j) {
    return i <= L ? x[V + j * W + i] : 0.0;
  };
  double sum_h = 0.0;
  double sum_g = 0.0;
  double busy_u = 0.0;
  double busy_v = 0.0;
  double steal_rate = 0.0;
  double success = 0.0;
  for (std::size_t k = 0; k < p; ++k) {
    sum_h += x[k * W];
    sum_g += x[V + k * W];
    busy_u += uu(1, k);
    busy_v += vv(1, k);
    steal_rate += t[k] * (uu(1, k) - uu(2, k));
    success += uu(T, k) + vv(T, k);
  }
  const double idle_u = sum_h - busy_u;
  const double idle_w = sum_g - busy_v;
  const double start_wait = steal_rate * success;
  for (std::size_t i = 1; i <= L; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      double du = phase_service_flux(svc, L, x, 0, i, j);
      du += i == 1 ? lambda * alpha[j] * idle_u
                   : lambda * (uu(i - 1, j) - uu(i, j));
      du += i == 1 ? rate * x[V + j * W] : rate * vv(i - 1, j);
      if (i >= T) du -= steal_rate * (uu(i, j) - uu(i + 1, j));
      dx[j * W + i] = du;
      double dv = phase_service_flux(svc, L, x, V, i, j) - rate * vv(i, j);
      dv += i == 1 ? lambda * alpha[j] * idle_w
                   : lambda * (vv(i - 1, j) - vv(i, j));
      if (i >= T) dv -= steal_rate * (vv(i, j) - vv(i + 1, j));
      dx[V + j * W + i] = dv;
    }
  }
  double db_u = 0.0;
  double db_v = 0.0;
  for (std::size_t k = 0; k < p; ++k) {
    db_u += dx[k * W + 1];
    db_v += dx[V + k * W + 1];
  }
  const double d_idle_u = rate * sum_g - start_wait - db_u;
  const double d_idle_w = start_wait - rate * sum_g - db_v;
  for (std::size_t j = 0; j < p; ++j) {
    dx[j * W] = dx[j * W + 1] + alpha[j] * d_idle_u;
    dx[V + j * W] = dx[V + j * W + 1] + alpha[j] * d_idle_w;
  }
}

/// The phase-type transfer model's 2p constraint rows, over f holding
/// the derivative: each class's first head row becomes the class flow
/// sum_j dg_j, the others the head slaving g_j = v_{1,j} + alpha_j
/// (H - B), and the awaiting class's first the total mass 1 - sum_j (h_j
/// + g_j).
inline void phase_type_transfer_constraints(const core::PhaseType& svc,
                                            std::size_t L,
                                            const ode::State& x,
                                            ode::State& f) {
  const std::size_t W = L + 1;
  const std::size_t p = svc.phases();
  double mass = 0.0;
  for (std::size_t cls = 0; cls < 2; ++cls) {
    const std::size_t base = cls * p * W;
    double flow = 0.0;
    double heads = 0.0;
    double busy = 0.0;
    for (std::size_t k = 0; k < p; ++k) {
      flow += f[base + k * W];
      heads += x[base + k * W];
      busy += x[base + k * W + 1];
    }
    mass += heads;
    f[base] = flow;
    for (std::size_t j = 1; j < p; ++j) {
      f[base + j * W] = x[base + j * W] - x[base + j * W + 1] -
                        svc.alpha()[j] * (heads - busy);
    }
  }
  f[p * W] = 1.0 - mass;
}

/// The single-class models' unit exponential service, whose recurrences
/// are the paper's exponential equations.
inline bool unit_service(const core::PhaseTypeModelBase& model) {
  return model.service() == core::PhaseType::exponential();
}

/// Dispatches to the recurrence of `model`'s type and service at arrival
/// rate `lambda` and the model's own parameters and truncation.
inline void deriv(const core::MeanFieldModel& model, double lambda,
                  const ode::State& s, ode::State& ds) {
  const std::size_t L = model.truncation();
  if (const auto* th = dynamic_cast<const core::ThresholdWS*>(&model)) {
    if (!unit_service(*th)) {
      phase_type_ws(lambda, th->service(), th->threshold(), L, s, ds);
    } else if (th->threshold() == 0) {
      no_stealing(lambda, L, s, ds);
    } else {
      threshold(lambda, th->threshold(), L, s, ds);
    }
  } else if (const auto* sh =
                 dynamic_cast<const core::WorkSharingWS*>(&model)) {
    if (unit_service(*sh)) {
      work_sharing(lambda, sh->share_threshold(), L, s, ds);
    } else {
      phase_type_sharing(lambda, sh->service(), sh->share_threshold(), L, s,
                         ds);
    }
  } else if (const auto* cw = dynamic_cast<const core::ComposedWS*>(&model)) {
    composed_family(lambda, cw->policy(), L, s, ds);
  } else if (const auto* mc =
                 dynamic_cast<const core::MultiClassWS*>(&model)) {
    multi_class(lambda, mc->classes(), mc->threshold(), L, s, ds);
  } else if (const auto* er =
                 dynamic_cast<const core::ErlangServiceWS*>(&model)) {
    erlang(lambda, er->stages(), L, s, ds);
  } else if (const auto* st =
                 dynamic_cast<const core::StagedTransferWS*>(&model)) {
    if (!(st->service() == core::PhaseType::exponential())) {
      LSM_EXPECT(st->stages() == 1,
                 "no reference recurrence for " + model.name());
      phase_type_transfer(lambda, st->transfer_rate(), st->service(),
                          st->threshold(), L, s, ds);
    } else if (st->stages() == 1) {
      transfer(lambda, st->transfer_rate(), st->threshold(), L, s, ds);
    } else {
      staged_transfer(lambda, st->transfer_rate(), st->stages(),
                      st->threshold(), L, s, ds);
    }
  } else if (const auto* ga =
                 dynamic_cast<const core::GeneralArrivalWS*>(&model)) {
    general_arrival([&](std::size_t j) { return ga->arrival_rate(j); },
                    ga->threshold(), L, s, ds);
  } else if (const auto* rb = dynamic_cast<const core::RebalanceWS*>(&model)) {
    rebalance(lambda, [&](std::size_t j) { return rb->rate(j); }, L, s, ds);
  } else {
    LSM_EXPECT(false, "no reference recurrence for " + model.name());
  }
}

/// The Newton root-residual map: the recurrence with its conserved rows
/// replaced by constraints (1 - s_0 by default; see each model).
inline void root_residual(const core::MeanFieldModel& model, double lambda,
                          const ode::State& s, ode::State& f) {
  deriv(model, lambda, s, f);
  const std::size_t W = model.truncation() + 1;
  if (const auto* mc =
                 dynamic_cast<const core::MultiClassWS*>(&model)) {
    for (std::size_t c = 0; c < mc->classes().size(); ++c) {
      f[c * W] = mc->classes()[c].fraction - s[c * W];
    }
  } else if (const auto* st =
                 dynamic_cast<const core::StagedTransferWS*>(&model)) {
    if (st->service().phases() > 1) {
      phase_type_transfer_constraints(st->service(), model.truncation(), s,
                                      f);
    } else {
      // Total class mass s_0 + sum_m w^(m)_0 = 1 on the w^(1)_0 row.
      double mass = s[0];
      for (std::size_t m = 1; m <= st->stages(); ++m) mass += s[m * W];
      f[W] = 1.0 - mass;
    }
  } else if (const auto* ph =
                 dynamic_cast<const core::PhaseTypeModelBase*>(&model);
             ph != nullptr && !unit_service(*ph)) {
    // Head slaving h_j = u_{1,j} + alpha_j (1 - B).
    const auto& svc = ph->service();
    double busy = 0.0;
    for (std::size_t k = 0; k < svc.phases(); ++k) busy += s[k * W + 1];
    const double idle = 1.0 - busy;
    for (std::size_t j = 0; j < svc.phases(); ++j) {
      f[j * W] = s[j * W] - s[j * W + 1] - svc.alpha()[j] * idle;
    }
  } else {
    f[0] = 1.0 - s[0];
  }
}

}  // namespace lsm::reference
