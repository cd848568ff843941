#include "core/phase_type_ws.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/json.hpp"

namespace lsm::core {

std::size_t phase_type_truncation(double lambda, double scv) {
  // Near saturation the per-task decay ratio of an M/PH/1-like tail is
  // about 1 - 2 (1 - rho) / (1 + scv) (Pollaczek-Khinchine heavy-traffic
  // scaling); at light load the M/M/1 ratio lambda dominates.
  const double spread = std::max(scv, 1.0);
  const double eta = std::clamp(
      std::max(lambda, 1.0 - 2.0 * (1.0 - lambda) / (1.0 + spread)), 0.05,
      0.9995);
  const double needed = std::log(1e-13) / std::log(eta);
  return static_cast<std::size_t>(std::clamp(needed + 8.0, 48.0, 3072.0));
}

namespace {

/// Raw views of a service distribution for the lane kernels' inner loops:
/// locals, so stores through dx cannot force their reload. Sums run over
/// k in order from 0.0, as the recurrence writes them. `u` points at lane
/// row i of a class's first phase segment; the class's segments lie
/// `seg` = W nb components apart.
struct PhaseView {
  explicit PhaseView(const PhaseType& svc)
      : p(svc.phases()),
        alpha(svc.alpha().data()),
        S(svc.subgenerator().data()),
        t(svc.exit_rates().data()) {}

  /// Lane l's phase mix M_{i,j} = sum_k S_kj u_{i,k}.
  [[nodiscard]] double mix(const double* u, std::size_t seg, std::size_t l,
                           std::size_t j) const {
    double m = 0.0;
    for (std::size_t k = 0; k < p; ++k) m += S[k * p + j] * u[k * seg + l];
    return m;
  }
  /// Lane l's exit-weighted tail A_i = sum_k t_k u_{i,k}.
  [[nodiscard]] double exits(const double* u, std::size_t seg,
                             std::size_t l) const {
    double e = 0.0;
    for (std::size_t k = 0; k < p; ++k) e += t[k] * u[k * seg + l];
    return e;
  }
  /// Lane l's sum_k u_{i,k} (the busy fraction B at row 1).
  [[nodiscard]] double total(const double* u, std::size_t seg,
                             std::size_t l) const {
    double b = 0.0;
    for (std::size_t k = 0; k < p; ++k) b += u[k * seg + l];
    return b;
  }

  std::size_t p;
  const double* alpha;
  const double* S;
  const double* t;
};

/// Stages lane by lane the exit sums A_{i+1} a class's rows i use, in row
/// i + 1 of its first segment (written after row i), and returns them.
template <class NB>
const double* stage_exits(NB nb, const PhaseView& ph, const double* x,
                          double* dx, std::size_t c, std::size_t seg) {
  double* ex = dx + c;
  for (std::size_t l = 0; l < nb; ++l) ex[l] = ph.exits(x + c, seg, l);
  return ex;
}

/// Fills the p head rows from the finished tail rows, lane by lane:
/// dh_j = du_{1,j} - alpha_j sum_k du_{1,k}.
template <class NB>
void slave_heads(NB nb, const PhaseView& ph, double* dx, std::size_t seg) {
  for (std::size_t l = 0; l < nb; ++l) {
    const double db = ph.total(dx + nb, seg, l);
    for (std::size_t j = 0; j < ph.p; ++j) {
      dx[j * seg + l] = dx[j * seg + nb + l] - ph.alpha[j] * db;
    }
  }
}

/// Rows i0 .. i1 - 1 (i >= 2) of a single-class model: the service terms,
/// arrivals at rate arrival(l) from the row below and, with `steal`,
/// victims leaving at rate R[l]. `last` marks row L, whose successor and
/// exit sum are the truncation's zeros.
template <class NB, class Arrival, class Steal, class Last>
void tail_rows(NB nb, const PhaseView& ph, const double* x, double* dx,
               std::size_t seg, std::size_t i0, std::size_t i1,
               const Arrival& arrival, const double* R, Steal steal,
               Last last) {
  for (std::size_t i = i0; i < i1; ++i) {
    const double* ui = x + i * nb;
    const double* ex = nullptr;
    if constexpr (!last) ex = stage_exits(nb, ph, x, dx, (i + 1) * nb, seg);
    for (std::size_t j = 0; j < ph.p; ++j) {
      const double a = ph.alpha[j];
      const double* uj = ui + j * seg;
      const double* up = uj - nb;
      double* out = dx + j * seg + i * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        double d;
        if constexpr (last) {
          d = ph.mix(ui, seg, l, j) + a * 0.0;
        } else {
          d = ph.mix(ui, seg, l, j) + a * ex[l];
        }
        d += arrival(l) * (up[l] - uj[l]);
        if constexpr (steal && last) d -= R[l] * (uj[l] - 0.0);
        if constexpr (steal && !last) d -= R[l] * (uj[l] - uj[l + nb]);
        out[l] = d;
      }
    }
  }
}

}  // namespace

PhaseTypeModelBase::PhaseTypeModelBase(double lambda, PhaseType service,
                                       std::size_t threshold,
                                       std::size_t truncation)
    : MeanFieldModel(lambda, truncation != 0
                                 ? truncation
                                 : phase_type_truncation(lambda, service.scv()) +
                                       threshold),
      service_(std::move(service)),
      threshold_(threshold) {
  trunc_explicit_ = truncation != 0;
  LSM_EXPECT(lambda * service_.mean() < 1.0,
             "model is unstable for lambda * E[service] >= 1");
  LSM_EXPECT(trunc_ > threshold_ + 2, "truncation too small for threshold");
}

ode::State PhaseTypeModelBase::empty_state() const {
  const std::size_t W = trunc_ + 1;
  ode::State s(dimension(), 0.0);
  for (std::size_t j = 0; j < service_.phases(); ++j) {
    s[j * W] = service_.alpha()[j];
  }
  return s;
}

ode::State PhaseTypeModelBase::mm1_state() const {
  const std::size_t W = trunc_ + 1;
  const double rho = std::min(lambda_ * service_.mean(), 0.999);
  ode::State s(dimension(), 0.0);
  for (std::size_t j = 0; j < service_.phases(); ++j) {
    const double aj = service_.alpha()[j];
    s[j * W] = aj;
    double tail = aj;
    for (std::size_t i = 1; i <= trunc_; ++i) {
      tail *= rho;
      s[j * W + i] = tail;
    }
  }
  return s;
}

void PhaseTypeModelBase::project(ode::State& s) const {
  const std::size_t W = trunc_ + 1;
  const std::size_t p = service_.phases();
  for (std::size_t j = 0; j < p; ++j) {
    project_segment(s, j * W, (j + 1) * W, -1.0);
  }
  const double idle = std::max(0.0, 1.0 - busy(s));
  for (std::size_t j = 0; j < p; ++j) {
    s[j * W] = s[j * W + 1] + service_.alpha()[j] * idle;
  }
}

bool PhaseTypeModelBase::root_residual_batch(std::size_t nb, const double* x,
                                             double* f) const {
  (void)rhs_batch(nb, x, f);
  // The head rows are slaved to the tails; replace them with the slaving
  // constraints themselves (identity Jacobian block in the heads).
  const std::size_t W = trunc_ + 1;
  const std::size_t p = service_.phases();
  const double* alpha = service_.alpha().data();
  for (std::size_t l = 0; l < nb; ++l) {
    double busy = 0.0;
    for (std::size_t k = 0; k < p; ++k) busy += x[(k * W + 1) * nb + l];
    const double idle = 1.0 - busy;
    for (std::size_t j = 0; j < p; ++j) {
      f[j * W * nb + l] =
          x[j * W * nb + l] - x[(j * W + 1) * nb + l] - alpha[j] * idle;
    }
  }
  return true;
}

double PhaseTypeModelBase::mean_tasks(const ode::State& s) const {
  const std::size_t W = trunc_ + 1;
  double acc = 0.0;
  for (std::size_t j = 0; j < service_.phases(); ++j) {
    for (std::size_t i = trunc_; i >= 1; --i) acc += s[j * W + i];
  }
  return acc;
}

double PhaseTypeModelBase::busy(const ode::State& s) const {
  const std::size_t W = trunc_ + 1;
  double b = 0.0;
  for (std::size_t k = 0; k < service_.phases(); ++k) b += s[k * W + 1];
  return b;
}

PhaseTypeWS::PhaseTypeWS(double lambda, PhaseType service,
                         std::size_t threshold, std::size_t truncation)
    : PhaseTypeModelBase(lambda, std::move(service), threshold, truncation) {
  LSM_EXPECT(threshold != 1, "steal threshold must be 0 (off) or >= 2");
}

std::string PhaseTypeWS::name() const {
  return threshold_ == 0
             ? "ph-queue(svc=" + service_.label() + ")"
             : "ph-ws(T=" + std::to_string(threshold_) +
                   ",svc=" + service_.label() + ")";
}

bool PhaseTypeWS::rhs_batch(std::size_t lanes, const double* x,
                            double* dx) const {
  return for_lanes(lanes, [&](auto nb) {
    const std::size_t L = trunc_;
    const std::size_t T = threshold_;
    const std::size_t seg = (L + 1) * nb;  // between phase segments
    const double lam = lambda_;  // a local cannot alias dx
    const PhaseView ph(service_);
    // Phase 0's head row holds R, the rate of processors completing their
    // final task, until the heads are written last.
    double* R = dx;
    if (T > 0) {
      for (std::size_t l = 0; l < nb; ++l) {
        double r = 0.0;
        for (std::size_t k = 0; k < ph.p; ++k) {
          r += ph.t[k] * (x[k * seg + nb + l] - x[k * seg + 2 * nb + l]);
        }
        R[l] = r;
      }
    }
    // Rows 2..L: service, arrivals, and for i >= T steal victims.
    const auto arrival = [lam](std::size_t) { return lam; };
    const std::true_type yes;
    const std::false_type no;
    if (T == 0) {
      tail_rows(nb, ph, x, dx, seg, 2, L, arrival, R, no, no);
      tail_rows(nb, ph, x, dx, seg, L, L + 1, arrival, R, no, yes);
    } else {
      tail_rows(nb, ph, x, dx, seg, 2, T, arrival, R, no, no);
      tail_rows(nb, ph, x, dx, seg, T, L, arrival, R, yes, no);
      tail_rows(nb, ph, x, dx, seg, L, L + 1, arrival, R, yes, yes);
    }
    // Row 1: arrivals to idle processors and successful thieves start a
    // task in phase alpha_j (T >= 2, so no victims leave row 1).
    for (std::size_t l = 0; l < nb; ++l) {
      const double idle = 1.0 - ph.total(x + nb, seg, l);
      double success = 0.0;  // s_T: victims holding >= T tasks
      if (T > 0) success = ph.total(x + T * nb, seg, l);
      const double exits = ph.exits(x + 2 * nb, seg, l);
      for (std::size_t j = 0; j < ph.p; ++j) {
        const double a = ph.alpha[j];
        double d = ph.mix(x + nb, seg, l, j) + a * exits;
        d += lam * a * idle;
        if (T > 0) d += R[l] * success * a;
        dx[j * seg + nb + l] = d;
      }
    }
    slave_heads(nb, ph, dx, seg);
  });
}

double PhaseTypeWS::message_rate(const ode::State& x) const {
  const std::size_t p = service_.phases();
  const auto& t = service_.exit_rates();
  double r = 0.0;
  for (std::size_t k = 0; k < p; ++k) {
    r += t[k] * (u(x, 1, k) - u(x, 2, k));
  }
  return r;
}

double PhaseTypeWS::analytic_sojourn_no_steal() const {
  LSM_EXPECT(threshold_ == 0, "closed form only for the no-steal case");
  const double rho = lambda_ * service_.mean();
  return service_.mean() +
         lambda_ * service_.moment2() / (2.0 * (1.0 - rho));
}

PhaseTypeSharing::PhaseTypeSharing(double lambda, PhaseType service,
                                   std::size_t share_threshold,
                                   std::size_t truncation)
    : PhaseTypeModelBase(lambda, std::move(service), share_threshold,
                         truncation) {
  LSM_EXPECT(share_threshold >= 1, "sharing threshold must be at least 1");
}

std::string PhaseTypeSharing::name() const {
  return "ph-sharing(S=" + std::to_string(threshold_) +
         ",svc=" + service_.label() + ")";
}

bool PhaseTypeSharing::rhs_batch(std::size_t lanes, const double* x,
                                 double* dx) const {
  return for_lanes(lanes, [&](auto nb) {
    const std::size_t L = trunc_;
    const std::size_t S = threshold_;
    const std::size_t seg = (L + 1) * nb;  // between phase segments
    const double lam = lambda_;  // a local cannot alias dx
    const PhaseView ph(service_);
    // Phase 0's head row holds the forwarded stream lambda sum_k u_{S,k}
    // until the heads are written last.
    double* fw = dx;
    for (std::size_t l = 0; l < nb; ++l) {
      fw[l] = lam * ph.total(x + S * nb, seg, l);
    }
    // Rows 2..L: service and arrivals, direct ones only below S (rows
    // i <= S).
    const auto both = [&](std::size_t l) { return lam + fw[l]; };
    const auto forwarded = [&](std::size_t l) { return 0.0 + fw[l]; };
    const std::false_type no;
    tail_rows(nb, ph, x, dx, seg, 2, S + 1, both, nullptr, no, no);
    tail_rows(nb, ph, x, dx, seg, S + 1, L, forwarded, nullptr, no, no);
    tail_rows(nb, ph, x, dx, seg, L, L + 1, forwarded, nullptr, no,
              std::true_type{});
    // Row 1: direct and forwarded arrivals to idle processors (S >= 1).
    for (std::size_t l = 0; l < nb; ++l) {
      const double idle = 1.0 - ph.total(x + nb, seg, l);
      const double exits = ph.exits(x + 2 * nb, seg, l);
      for (std::size_t j = 0; j < ph.p; ++j) {
        const double a = ph.alpha[j];
        double d = ph.mix(x + nb, seg, l, j) + a * exits;
        d += (lam + fw[l]) * a * idle;
        dx[j * seg + nb + l] = d;
      }
    }
    slave_heads(nb, ph, dx, seg);
  });
}

double PhaseTypeSharing::message_rate(const ode::State& x) const {
  double share_tail = 0.0;
  for (std::size_t k = 0; k < service_.phases(); ++k) {
    share_tail += u(x, threshold_, k);
  }
  return lambda_ * share_tail;
}

PhaseTypeTransferWS::PhaseTypeTransferWS(double lambda, double transfer_rate,
                                         PhaseType service,
                                         std::size_t threshold,
                                         std::size_t truncation)
    // Transfer latency throttles steals, so tails decay noticeably slower
    // than in the instant-steal models (cf. StagedTransferWS).
    : MeanFieldModel(
          lambda,
          truncation != 0
              ? truncation
              : std::min<std::size_t>(
                    5 * phase_type_truncation(lambda, service.scv()) / 2 +
                        threshold,
                    4096)),
      service_(std::move(service)),
      rate_(transfer_rate),
      threshold_(threshold) {
  trunc_explicit_ = truncation != 0;
  LSM_EXPECT(transfer_rate > 0.0, "transfer rate must be positive");
  LSM_EXPECT(threshold >= 2, "steal threshold must be at least 2");
  LSM_EXPECT(lambda * service_.mean() < 1.0,
             "model is unstable for lambda * E[service] >= 1");
  LSM_EXPECT(trunc_ > threshold + 2, "truncation too small for threshold");
}

std::string PhaseTypeTransferWS::name() const {
  return "ph-transfer-ws(r=" + util::Json::number_to_string(rate_) +
         ",T=" + std::to_string(threshold_) + ",svc=" + service_.label() +
         ")";
}

ode::State PhaseTypeTransferWS::empty_state() const {
  ode::State s(dimension(), 0.0);
  for (std::size_t j = 0; j < service_.phases(); ++j) {
    s[seg(0, j)] = service_.alpha()[j];
  }
  return s;
}

bool PhaseTypeTransferWS::rhs_batch(std::size_t lanes, const double* x,
                                    double* dx) const {
  return for_lanes(lanes, [&](auto nb) {
    const std::size_t L = trunc_;
    const std::size_t T = threshold_;
    const std::size_t seg = (L + 1) * nb;  // between phase segments
    const std::size_t V = service_.phases() * seg;  // awaiting class
    const double lam = lambda_;  // locals cannot alias dx
    const double rate = rate_;
    const PhaseView ph(service_);
    // The first u head row holds R, the rate of u-class processors
    // completing their final task, until the heads are written last.
    double* R = dx;
    for (std::size_t l = 0; l < nb; ++l) {
      double r = 0.0;
      for (std::size_t k = 0; k < ph.p; ++k) {
        r += ph.t[k] * (x[k * seg + nb + l] - x[k * seg + 2 * nb + l]);
      }
      R[l] = r;
    }
    // Rows 2..L. Not-awaiting class: arrivals, service, transfer
    // completions in (a transfer landing on an awaiting processor with
    // i-1 tasks makes a not-awaiting processor with i tasks), steal
    // victims out. Awaiting class: serves and receives arrivals while
    // waiting, leaves at the transfer rate, and can be victimized too.
    const auto rows = [&](std::size_t i0, std::size_t i1, auto steal,
                          auto last) {
      for (std::size_t i = i0; i < i1; ++i) {
        const double* ui = x + i * nb;
        const double* vi = ui + V;
        const double* ex_u = nullptr;
        const double* ex_v = nullptr;
        if constexpr (!last) {
          ex_u = stage_exits(nb, ph, x, dx, (i + 1) * nb, seg);
          ex_v = stage_exits(nb, ph, x, dx, V + (i + 1) * nb, seg);
        }
        for (std::size_t j = 0; j < ph.p; ++j) {
          const double a = ph.alpha[j];
          const double* uj = ui + j * seg;
          const double* vj = vi + j * seg;
          const double* up = uj - nb;
          const double* vp = vj - nb;
          double* ou = dx + j * seg + i * nb;
          double* ov = ou + V;
          for (std::size_t l = 0; l < nb; ++l) {
            double du;
            double dv;
            if constexpr (last) {
              du = ph.mix(ui, seg, l, j) + a * 0.0;
              dv = ph.mix(vi, seg, l, j) + a * 0.0 - rate * vj[l];
            } else {
              du = ph.mix(ui, seg, l, j) + a * ex_u[l];
              dv = ph.mix(vi, seg, l, j) + a * ex_v[l] - rate * vj[l];
            }
            du += lam * (up[l] - uj[l]);
            du += rate * vp[l];
            dv += lam * (vp[l] - vj[l]);
            if constexpr (steal) {
              if constexpr (last) {
                du -= R[l] * (uj[l] - 0.0);
                dv -= R[l] * (vj[l] - 0.0);
              } else {
                du -= R[l] * (uj[l] - uj[l + nb]);
                dv -= R[l] * (vj[l] - vj[l + nb]);
              }
            }
            ou[l] = du;
            ov[l] = dv;
          }
        }
      }
    };
    rows(2, T, std::false_type{}, std::false_type{});
    rows(T, L, std::true_type{}, std::false_type{});
    rows(L, L + 1, std::true_type{}, std::true_type{});
    // Row 1 and the heads, lane by lane. For i = 1 the transfers landing
    // include the awaiting-idle mass, whose task starts fresh at alpha --
    // which is exactly the v head g_j. The heads h_j = u_{1,j} + alpha_j
    // idle_u and g_j = v_{1,j} + alpha_j idle_w move with d(idle_u),
    // driven by class transfer (r w_0 in, steal starts out) minus the
    // busy-tail flux.
    for (std::size_t l = 0; l < nb; ++l) {
      const double sum_h = ph.total(x, seg, l);      // u heads
      const double sum_g = ph.total(x + V, seg, l);  // v heads = w_0
      const double busy_u = ph.total(x + nb, seg, l);
      const double busy_v = ph.total(x + V + nb, seg, l);
      double success = 0.0;
      for (std::size_t k = 0; k < ph.p; ++k) {
        success += x[k * seg + T * nb + l] + x[V + k * seg + T * nb + l];
      }
      const double idle_u = sum_h - busy_u;
      const double idle_w = sum_g - busy_v;
      const double start_wait = R[l] * success;
      const double exits_u = ph.exits(x + 2 * nb, seg, l);
      const double exits_v = ph.exits(x + V + 2 * nb, seg, l);
      double db_u = 0.0;
      double db_v = 0.0;
      for (std::size_t j = 0; j < ph.p; ++j) {
        const double a = ph.alpha[j];
        double du = ph.mix(x + nb, seg, l, j) + a * exits_u;
        du += lam * a * idle_u;
        du += rate * x[V + j * seg + l];
        double dv =
            ph.mix(x + V + nb, seg, l, j) + a * exits_v - rate * x[V + j * seg + nb + l];
        dv += lam * a * idle_w;
        dx[j * seg + nb + l] = du;
        dx[V + j * seg + nb + l] = dv;
        db_u += du;
        db_v += dv;
      }
      const double d_idle_u = rate * sum_g - start_wait - db_u;
      const double d_idle_w = start_wait - rate * sum_g - db_v;
      for (std::size_t j = 0; j < ph.p; ++j) {
        dx[j * seg + l] = dx[j * seg + nb + l] + ph.alpha[j] * d_idle_u;
        dx[V + j * seg + l] = dx[V + j * seg + nb + l] + ph.alpha[j] * d_idle_w;
      }
    }
  });
}

void PhaseTypeTransferWS::project(ode::State& s) const {
  const std::size_t W = trunc_ + 1;
  for (std::size_t k = 0; k < 2 * service_.phases(); ++k) {
    project_segment(s, k * W, (k + 1) * W, -1.0);
  }
}

bool PhaseTypeTransferWS::root_residual_batch(std::size_t nb,
                                              const double* x,
                                              double* f) const {
  (void)rhs_batch(nb, x, f);
  const std::size_t W = trunc_ + 1;
  const std::size_t p = service_.phases();
  const std::size_t V = p * W;
  const double* alpha = service_.alpha().data();
  const double* t = service_.exit_rates().data();
  // The 2p head rows are definitionally dependent on the tails; replace
  // them with (a) the u-head slaving constraints, with idle_u eliminated
  // through total conservation, (b) the awaiting-mass balance
  // r w_0 = start_wait pinning sum_j g_j, and (c) p-1 v-head
  // proportionality constraints.
  for (std::size_t l = 0; l < nb; ++l) {
    const auto at = [&](std::size_t c) { return x[c * nb + l]; };
    double sum_g = 0.0;
    double busy_u = 0.0;
    double busy_v = 0.0;
    double steal_rate = 0.0;
    double success = 0.0;
    for (std::size_t k = 0; k < p; ++k) {
      sum_g += at(V + k * W);
      busy_u += at(k * W + 1);
      busy_v += at(V + k * W + 1);
      steal_rate += t[k] * (at(k * W + 1) - at(k * W + 2));
      success += at(k * W + threshold_) + at(V + k * W + threshold_);
    }
    for (std::size_t j = 0; j < p; ++j) {
      f[j * W * nb + l] = at(j * W) - at(j * W + 1) -
                          alpha[j] * (1.0 - sum_g - busy_u);
    }
    f[V * nb + l] = steal_rate * success - rate_ * sum_g;
    for (std::size_t j = 1; j < p; ++j) {
      f[(V + j * W) * nb + l] =
          (at(V + j * W) - at(V + j * W + 1)) - alpha[j] * (sum_g - busy_v);
    }
  }
  return true;
}

double PhaseTypeTransferWS::mean_tasks(const ode::State& x) const {
  const std::size_t p = service_.phases();
  double acc = 0.0;
  for (std::size_t j = 0; j < p; ++j) {
    acc += x[seg(1, j)];  // one in-transit task per awaiting processor
    for (std::size_t i = trunc_; i >= 1; --i) {
      acc += x[seg(0, j) + i] + x[seg(1, j) + i];
    }
  }
  return acc;
}

double PhaseTypeTransferWS::busy_fraction(const ode::State& x) const {
  const std::size_t p = service_.phases();
  double acc = 0.0;
  for (std::size_t j = 0; j < p; ++j) {
    acc += x[seg(0, j) + 1] + x[seg(1, j) + 1];
  }
  return acc;
}

}  // namespace lsm::core
