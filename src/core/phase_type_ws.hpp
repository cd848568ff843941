// The single-class mean-field models with phase-type service: the layout
// that turns the paper's exponential-service equations into an SCV knob
// (Van Houdt, arXiv:1810.13186; Ying, arXiv:1605.06581). Threshold
// stealing (ThresholdWS, with its presets SimpleWS and NoStealing) and
// work sharing (WorkSharingWS) share it; the paper's unit exponential
// service is their p = 1 case.
//
// State: u_{i,j} = fraction of processors with at least i tasks whose
// in-service task is currently in phase j, for i = 1..L and j = 0..p-1,
// packed as p segments of length L+1 (segment j holds
// [h_j, u_{1,j}, ..., u_{L,j}]) so the generic truncation machinery
// (tail_mass, resized_tail_state, the adaptive ladder) applies per
// segment. The synthetic segment head slaves to the tails,
//
//   h_j = u_{1,j} + alpha_j (1 - B),   B = sum_k u_{1,k},
//
// i.e. "head = busy-in-phase-j + the share of idle processors whose next
// task would start in phase j": monotone within the segment and summing
// to 1 across heads, exactly the invariants project() maintains.
//
// Writing t_k for the exit rates, M_{i,j} = sum_k S_{kj} u_{i,k} for the
// phase mixing and A_i = sum_k t_k u_{i,k} for the exit-weighted tails,
// the threshold-steal dynamics (ThresholdWS) are
//
//   du_{i,j} = [i=1] lambda alpha_j (1-B) + [i>1] lambda (u_{i-1,j}-u_{i,j})
//            + M_{i,j} + alpha_j A_{i+1}
//            + [i=1] R s_T alpha_j - [i>=T] R (u_{i,j} - u_{i+1,j})
//
// with steal-attempt rate R = sum_k t_k (u_{1,k} - u_{2,k}) (processors
// completing their final task) and success probability s_T =
// sum_k u_{T,k}; threshold = 0 disables stealing entirely (independent
// M/PH/1 queues, the Pollaczek-Khinchine validation target). Work sharing
// replaces the steal terms by a forwarded arrival stream (WorkSharingWS).
//
// At p = 1 (S = [-1], t = [1], alpha = [1]) the head is s_0 and the
// recurrences are the paper's exponential equations. The kernels then run
// through detail::UnitService, whose coefficients are compile-time
// constants and whose terms keep the exponential equations' operation
// order, so unit exponential service gives the exponential recurrence bit
// for bit; its conserved row is s_0 = 1 (the default root residual and
// projection). Stealing with transfer latency is StagedTransferWS, which
// runs its kernel through the same two service views.
#pragma once

#include <algorithm>
#include <type_traits>

#include "core/model.hpp"
#include "core/phase_type.hpp"

namespace lsm::core {

/// Truncation adequate for phase-type service: near saturation the queue
/// tail of an M/PH/1-like station decays at roughly
/// 1 - 2 (1 - lambda) / (1 + scv) per task, so high-SCV service needs a
/// substantially deeper tail than the exponential default_truncation.
[[nodiscard]] std::size_t phase_type_truncation(double lambda, double scv);

namespace detail {

/// Raw views of a service distribution for the lane kernels' inner loops:
/// locals, so stores through dx cannot force their reload. Sums run over
/// k in order from 0.0, as the recurrences write them. `u` points at lane
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
  /// Lane l's idle fraction 1 - B, with `u` at row 0 (the heads).
  [[nodiscard]] double idle(const double* u, std::size_t seg, std::size_t nb,
                            std::size_t l) const {
    return 1.0 - total(u + nb, seg, l);
  }
  /// Lane l's rate of processors completing their final task,
  /// R = sum_k t_k (u_{1,k} - u_{2,k}), with `u` at row 1.
  [[nodiscard]] double drain(const double* u, std::size_t seg, std::size_t nb,
                             std::size_t l) const {
    double r = 0.0;
    for (std::size_t k = 0; k < p; ++k) {
      r += t[k] * (u[k * seg + l] - u[k * seg + nb + l]);
    }
    return r;
  }
  /// Lane l's service term of row i, phase j: M_{i,j} + alpha_j A_{i+1},
  /// given A_{i+1} as `next_exits`.
  [[nodiscard]] double service(const double* u, std::size_t seg,
                               std::size_t l, std::size_t j,
                               double next_exits) const {
    return mix(u, seg, l, j) + alpha[j] * next_exits;
  }
  /// Lane l's row 1, phase j, of threshold stealing (`u` at row 1): the
  /// service term, the arrivals `arrive` to idle processors and the
  /// successful thieves R s_T starting a task in phase j.
  [[nodiscard]] double steal_row1(const double* u, std::size_t seg,
                                  std::size_t l, std::size_t j,
                                  double next_exits, double arrive, double R,
                                  double success) const {
    double d = service(u, seg, l, j, next_exits);
    d += arrive;
    d += R * success * alpha[j];
    return d;
  }
  /// Stages the lanes' exit sums of the rows at `u` in `scratch` (a dx row
  /// written later) and returns it.
  template <class NB>
  const double* exits_row(NB nb, const double* u, std::size_t seg,
                          double* scratch) const {
    for (std::size_t l = 0; l < nb; ++l) scratch[l] = exits(u, seg, l);
    return scratch;
  }
  /// Fills the p head rows from the finished row-1 derivatives:
  /// dh_j = du_{1,j} - alpha_j sum_k du_{1,k}.
  template <class NB>
  void slave_heads(NB nb, double* dx, std::size_t seg) const {
    for (std::size_t l = 0; l < nb; ++l) {
      const double db = total(dx + nb, seg, l);
      for (std::size_t j = 0; j < p; ++j) {
        dx[j * seg + l] = dx[j * seg + nb + l] - alpha[j] * db;
      }
    }
  }

  std::size_t p;
  const double* alpha;
  const double* S;
  const double* t;
};

/// PhaseView's interface for unit exponential service (one phase,
/// S = [-1], t = [1], alpha = [1]) with every coefficient a compile-time
/// constant, in the exponential equations' own operation order: the
/// service term is -(s_i - s_{i+1}), the exit sums are the rows
/// themselves, the idle fraction is s_0 - s_1, threshold stealing's row 1
/// is equation (4) as printed, and the head s_0 is pinned (a zero row).
struct UnitService {
  static constexpr std::integral_constant<std::size_t, 1> p{};
  static constexpr double alpha[1] = {1.0};

  static double exits(const double* u, std::size_t, std::size_t l) {
    return u[l];
  }
  static double total(const double* u, std::size_t, std::size_t l) {
    return u[l];
  }
  static double idle(const double* u, std::size_t, std::size_t nb,
                     std::size_t l) {
    return u[l] - u[nb + l];
  }
  static double drain(const double* u, std::size_t, std::size_t nb,
                      std::size_t l) {
    return u[l] - u[nb + l];
  }
  static double service(const double* u, std::size_t, std::size_t l,
                        std::size_t, double next_exits) {
    return -(u[l] - next_exits);
  }
  /// lambda (s_0 - s_1) - (s_1 - s_2)(1 - s_T): the emptying processors
  /// whose steal fails lose their last task.
  static double steal_row1(const double*, std::size_t, std::size_t,
                           std::size_t, double, double arrive, double R,
                           double success) {
    return arrive - R * (1.0 - success);
  }
  template <class NB>
  static const double* exits_row(NB, const double* u, std::size_t, double*) {
    return u;
  }
  template <class NB>
  static void slave_heads(NB nb, double* dx, std::size_t) {
    for (std::size_t l = 0; l < nb; ++l) dx[l] = 0.0;
  }
};

/// Calls kernel(ph) with ph a UnitService when `unit`, else a PhaseView
/// of `svc`: the two instantiations of one kernel body.
template <class Kernel>
void with_service(bool unit, const PhaseType& svc, Kernel&& kernel) {
  if (unit) {
    kernel(UnitService{});
  } else {
    kernel(PhaseView(svc));
  }
}

/// Rows i0 .. i1 - 1 (i >= 2) of a single-class model: the service terms,
/// arrivals at rate arrival(l) from the row below and, with `steal`,
/// victims leaving at rate R[l]. `last` marks row L, whose successor and
/// exit sum are the truncation's zeros.
template <class NB, class View, class Arrival, class Steal, class Last>
void tail_rows(NB nb, const View& ph, const double* x, double* dx,
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

}  // namespace detail

/// Shared layout/plumbing of the single-class phase-type models.
class PhaseTypeModelBase : public MeanFieldModel {
 public:
  [[nodiscard]] std::size_t dimension() const override {
    return service_.phases() * (trunc_ + 1);
  }
  [[nodiscard]] std::size_t tail_segments() const override {
    return service_.phases();
  }
  [[nodiscard]] std::size_t min_truncation() const override {
    return std::max<std::size_t>(threshold_ + 3, 4);
  }

  [[nodiscard]] const PhaseType& service() const noexcept { return service_; }

  [[nodiscard]] ode::State empty_state() const override;
  [[nodiscard]] ode::State mm1_state() const override;

  /// Per-segment monotone projection, then the heads are re-slaved to
  /// h_j = u_{1,j} + alpha_j (1 - B); at unit exponential service the
  /// default projection (s_0 pinned at 1).
  void project(ode::State& s) const override;

  /// The kernel with the p (dependent) head rows replaced by the slaving
  /// constraints h_j - u_{1,j} - alpha_j (1 - B) = 0, which have an
  /// identity Jacobian block in the heads; at unit exponential service
  /// the default constraint 1 - s_0.
  [[nodiscard]] bool root_residual_batch(std::size_t nb, const double* x,
                                         double* f) const override;

  /// E[N] = sum_{i>=1} sum_j u_{i,j}.
  [[nodiscard]] double mean_tasks(const ode::State& s) const override;

 protected:
  /// truncation = 0 picks `unit_truncation` at unit exponential service,
  /// else phase_type_truncation + threshold.
  PhaseTypeModelBase(double lambda, PhaseType service, std::size_t threshold,
                     std::size_t truncation, std::size_t unit_truncation);

  /// u_{i,j}, reading 0 beyond the truncation.
  [[nodiscard]] double u(const ode::State& x, std::size_t i,
                         std::size_t j) const {
    return i <= trunc_ ? x[j * (trunc_ + 1) + i] : 0.0;
  }

  /// Runs a lane kernel body(nb, ph) through for_lanes, with ph the
  /// service view detail::with_service picks.
  template <class Body>
  bool run_kernel(std::size_t lanes, Body&& body) const {
    return for_lanes(lanes, [&](auto nb) {
      detail::with_service(unit_, service_,
                           [&](const auto& ph) { body(nb, ph); });
    });
  }

  PhaseType service_;
  std::size_t threshold_;
  /// Unit exponential service: the paper's exponential recurrence.
  bool unit_;
};

}  // namespace lsm::core
