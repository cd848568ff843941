#include "core/staged_transfer_ws.hpp"

#include <algorithm>

#include "core/phase_type_ws.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace lsm::core {

StagedTransferWS::StagedTransferWS(double lambda, double transfer_rate,
                                   std::size_t stages, std::size_t threshold,
                                   std::size_t truncation)
    : StagedTransferWS(lambda, transfer_rate, PhaseType::exponential(), stages,
                       threshold, truncation) {}

StagedTransferWS::StagedTransferWS(double lambda, double transfer_rate,
                                   PhaseType service, std::size_t stages,
                                   std::size_t threshold,
                                   std::size_t truncation)
    // Transfer latency throttles the steal rate, so the tails decay
    // noticeably slower than in the instant-steal models; inflate the
    // automatic truncation accordingly (verified against L-doubling).
    : MeanFieldModel(
          lambda,
          truncation != 0 ? truncation
          : service.is_exponential()
              ? 5 * default_truncation(lambda) / 2 + threshold
              : std::min<std::size_t>(
                    5 * phase_type_truncation(lambda, service.scv()) / 2 +
                        threshold,
                    4096)),
      service_(std::move(service)),
      rate_(transfer_rate),
      stages_(stages),
      threshold_(threshold),
      unit_(service_ == PhaseType::exponential()) {
  trunc_explicit_ = truncation != 0;
  LSM_EXPECT(transfer_rate > 0.0, "transfer rate must be positive");
  LSM_EXPECT(stages >= 1, "need at least one transfer stage");
  LSM_EXPECT(threshold >= 2, "steal threshold must be at least 2");
  LSM_EXPECT(lambda * service_.mean() < 1.0,
             "model is unstable for lambda * E[service] >= 1");
  LSM_EXPECT(trunc_ > threshold + 2, "truncation too small for threshold");
}

std::string StagedTransferWS::name() const {
  return "staged-transfer-ws(r=" + util::Json::number_to_string(rate_) +
         ",c=" + std::to_string(stages_) +
         ",T=" + std::to_string(threshold_) +
         (unit_ ? "" : ",svc=" + service_.label()) + ")";
}

ode::State StagedTransferWS::empty_state() const {
  ode::State s(dimension(), 0.0);
  for (std::size_t j = 0; j < service_.phases(); ++j) {
    s[w_index(0, 0, j)] = service_.alpha()[j];
  }
  return s;
}

bool StagedTransferWS::rhs_batch(std::size_t lanes, const double* x,
                                 double* dx) const {
  const auto kernel = [&](auto nb, const auto& ph) {
    const std::size_t L = trunc_;
    const std::size_t T = threshold_;
    const std::size_t c = stages_;
    const std::size_t W = L + 1;
    const std::size_t seg = W * nb;  // between segments
    const double lam = lambda_;  // a local cannot alias dx
    const double stage_rate = static_cast<double>(c) * rate_;
    const auto row = [&](std::size_t m, std::size_t j, std::size_t i) {
      return x + ((m * ph.p + j) * W + i) * nb;
    };

    // R, the rate of non-waiting processors completing their last task
    // (s_1 - s_2 at p = 1), staged in s's first head row, which is
    // finished last.
    double* R = dx;
    for (std::size_t l = 0; l < nb; ++l) R[l] = ph.drain(x + nb, seg, nb, l);

    // Rows 1..L of class m, phase j: arrivals (at row 1 to the class's
    // idle processors), the class's gain and loss, service, and for i >= T
    // steal victims (a range split at T); row L's successor is the
    // truncation's zero. The s class (kind 0) gains deliveries from w^(1)
    // one level down and loses nothing; w^(m) gains stage progress from
    // w^(m+1) (kind 1; w^(c), kind 2, gains nothing: + 0.0) and loses its
    // own. The exit sums of row i + 1 are staged in that row of the
    // class's first segment, written after row i.
    const auto rows = [&](std::size_t m, auto kind, std::size_t i0,
                          std::size_t i1, auto first, auto steal,
                          auto last) {
      for (std::size_t i = i0; i < i1; ++i) {
        const double* v0 = row(m, 0, i);
        const double* ex = nullptr;
        if constexpr (!last) {
          ex = ph.exits_row(nb, v0 + nb, seg, dx + (v0 + nb - x));
        }
        for (std::size_t j = 0; j < ph.p; ++j) {
          const double* vi = v0 + j * seg;
          const double* vp = vi - nb;
          const double* vn = vi + nb;  // read only below row L
          const double* gain =
              kind == 0 ? row(1, j, i - 1) : row(m + kind % 2, j, i);
          const double a = ph.alpha[j];
          double* out = dx + (vi - x);
          for (std::size_t l = 0; l < nb; ++l) {
            double next = 0.0;
            double next_exits = 0.0;
            if constexpr (!last) {
              next = vn[l];
              next_exits = ex[l];
            }
            double arrive;
            if constexpr (first) {
              arrive = a * (ph.total(v0 - nb, seg, l) - ph.total(v0, seg, l));
            } else {
              arrive = vp[l] - vi[l];
            }
            const double serve = ph.service(v0, seg, l, j, next_exits);
            double d;
            if constexpr (kind == 0) {
              d = lam * arrive + stage_rate * gain[l] + serve;
            } else if constexpr (kind == 1) {
              d = lam * arrive + stage_rate * gain[l] -
                  stage_rate * vi[l] + serve;
            } else {
              d = lam * arrive + 0.0 - stage_rate * vi[l] + serve;
            }
            if constexpr (steal) d -= (vi[l] - next) * R[l];
            out[l] = d;
          }
        }
      }
    };
    const std::true_type yes;
    const std::false_type no;
    const auto block = [&](std::size_t m, auto kind) {
      rows(m, kind, 1, 2, yes, no, no);
      rows(m, kind, 2, T, no, no, no);
      rows(m, kind, T, L, no, yes, no);
      rows(m, kind, L, L + 1, no, yes, yes);
    };
    block(0, std::integral_constant<std::size_t, 0>{});
    for (std::size_t m = 1; m < c; ++m) {
      block(m, std::integral_constant<std::size_t, 1>{});
    }
    block(c, std::integral_constant<std::size_t, 2>{});

    // The heads. Steal starts R (s_T + sum_m w^(m)_T), staged in w^(c)'s
    // first head row, move mass from s to w^(c); stages and deliveries
    // move it on at c r. Each class's first head row takes the change
    // dH_m of its mass H_m = sum_j g_{m,j}, which at p = 1 is the head.
    const auto head = [&](std::size_t m) { return dx + (row(m, 0, 0) - x); };
    const auto mass = [&](std::size_t m, std::size_t l) {
      return stage_rate * ph.total(row(m, 0, 0), seg, l);
    };
    double* start_wait = head(c);
    for (std::size_t l = 0; l < nb; ++l) start_wait[l] = x[T * nb + l];
    for (std::size_t k = 1; k < (c + 1) * ph.p; ++k) {
      const double* vT = x + k * seg + T * nb;
      for (std::size_t l = 0; l < nb; ++l) start_wait[l] += vT[l];
    }
    for (std::size_t l = 0; l < nb; ++l) {
      start_wait[l] = R[l] * start_wait[l];
    }
    for (std::size_t l = 0; l < nb; ++l) {
      dx[l] = mass(1, l) - start_wait[l];
    }
    for (std::size_t m = 1; m < c; ++m) {
      double* out = head(m);
      for (std::size_t l = 0; l < nb; ++l) out[l] = mass(m + 1, l) - mass(m, l);
    }
    for (std::size_t l = 0; l < nb; ++l) {
      start_wait[l] = start_wait[l] - mass(c, l);
    }
    // For p > 1 phase j's head moves by alpha_j dH_m + (dv_{m,1,j} -
    // alpha_j dB_m), dB_m = sum_j dv_{m,1,j}.
    if (ph.p > 1) {
      for (std::size_t m = 0; m <= c; ++m) {
        double* h = head(m);
        for (std::size_t l = 0; l < nb; ++l) {
          const double dH = h[l];
          const double dB = ph.total(h + nb, seg, l);
          for (std::size_t j = 0; j < ph.p; ++j) {
            const double a = ph.alpha[j];
            h[j * seg + l] = a * dH + (h[j * seg + nb + l] - a * dB);
          }
        }
      }
    }
  };
  return for_lanes(lanes, [&](auto nb) {
    detail::with_service(unit_, service_,
                         [&](const auto& ph) { kernel(nb, ph); });
  });
}

void StagedTransferWS::project(ode::State& x) const {
  const std::size_t W = trunc_ + 1;
  for (std::size_t k = 0; k < tail_segments(); ++k) {
    project_segment(x, k * W, (k + 1) * W, -1.0);
  }
}

bool StagedTransferWS::root_residual_batch(std::size_t nb, const double* x,
                                           double* f) const {
  (void)rhs_batch(nb, x, f);
  const std::size_t W = trunc_ + 1;
  const std::size_t p = service_.phases();
  const double* alpha = service_.alpha().data();
  for (std::size_t l = 0; l < nb; ++l) {
    const auto at = [&](std::size_t i) { return x[i * nb + l]; };
    // Total class mass s_0 + sum_m w^{(m)}_0 = 1 is conserved; it replaces
    // the redundant first w^{(1)} head row.
    double mass = at(0);
    for (std::size_t k = 1; k < tail_segments(); ++k) mass += at(k * W);
    // For p > 1 each class's heads carry one flow, sum_j dg_{m,j} = dH_m,
    // kept on its first head row; the other heads are slaved to the tails.
    for (std::size_t m = 0; m <= stages_; ++m) {
      const std::size_t h = w_index(m, 0);
      double flow = f[h * nb + l];
      double H = at(h);
      double B = at(h + 1);
      for (std::size_t j = 1; j < p; ++j) {
        flow += f[(h + j * W) * nb + l];
        H += at(h + j * W);
        B += at(h + j * W + 1);
      }
      f[h * nb + l] = flow;
      for (std::size_t j = 1; j < p; ++j) {
        f[(h + j * W) * nb + l] =
            at(h + j * W) - at(h + j * W + 1) - alpha[j] * (H - B);
      }
    }
    f[w_index(1, 0) * nb + l] = 1.0 - mass;
  }
  return true;
}

double StagedTransferWS::mean_tasks(const ode::State& x) const {
  const std::size_t W = trunc_ + 1;
  const std::size_t segments = tail_segments();
  LSM_ASSERT(x.size() == segments * W);
  double acc = 0.0;
  for (std::size_t k = service_.phases(); k < segments; ++k) {
    acc += x[k * W];  // one in-transit task per waiting processor
  }
  for (std::size_t i = trunc_; i >= 1; --i) {
    for (std::size_t k = 0; k < segments; ++k) acc += x[k * W + i];
  }
  return acc;
}

}  // namespace lsm::core
