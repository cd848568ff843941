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

using detail::PhaseView;

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
    if constexpr (!last) ex = ph.exits_row(nb, ui + nb, seg, dx + (i + 1) * nb);
    for (std::size_t j = 0; j < ph.p; ++j) {
      const double* uj = ui + j * seg;
      const double* up = uj - nb;
      double* out = dx + j * seg + i * nb;
      for (std::size_t l = 0; l < nb; ++l) {
        double d;
        if constexpr (last) {
          d = ph.service(ui, seg, l, j, 0.0);
        } else {
          d = ph.service(ui, seg, l, j, ex[l]);
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
  const double idle = std::max(0.0, 1.0 - busy_fraction(s));
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
      for (std::size_t l = 0; l < nb; ++l) R[l] = ph.drain(x + nb, seg, nb, l);
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
        double d = ph.service(x + nb, seg, l, j, exits);
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
        double d = ph.service(x + nb, seg, l, j, exits);
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

}  // namespace lsm::core
