// Mean-field work-stealing/sharing models with phase-type service: the
// generalization that turns the paper's exponential-service equations
// into an SCV knob (Van Houdt, arXiv:1810.13186; Ying, arXiv:1605.06581).
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
// the threshold-steal dynamics (PhaseTypeWS) are
//
//   du_{i,j} = [i=1] lambda alpha_j (1-B) + [i>1] lambda (u_{i-1,j}-u_{i,j})
//            + M_{i,j} + alpha_j A_{i+1}
//            + [i=1] R s_T alpha_j - [i>=T] R (u_{i,j} - u_{i+1,j})
//
// with steal-attempt rate R = sum_k t_k (u_{1,k} - u_{2,k}) (processors
// completing their final task) and success probability s_T =
// sum_k u_{T,k}. At p = 1 this reduces term-by-term to ThresholdWS;
// threshold = 0 disables stealing entirely (independent M/PH/1 queues,
// the Pollaczek-Khinchine validation target). Stealing with transfer
// latency under phase-type service is StagedTransferWS, which shares
// detail::PhaseView with these kernels.
#pragma once

#include "core/model.hpp"
#include "core/phase_type.hpp"

namespace lsm::core {

/// Shared layout/plumbing of the single-class phase-type models.
class PhaseTypeModelBase : public MeanFieldModel {
 public:
  [[nodiscard]] std::size_t dimension() const override {
    return service_.phases() * (trunc_ + 1);
  }
  [[nodiscard]] std::size_t tail_segments() const override {
    return service_.phases();
  }

  [[nodiscard]] const PhaseType& service() const noexcept { return service_; }

  [[nodiscard]] ode::State empty_state() const override;
  [[nodiscard]] ode::State mm1_state() const override;

  /// Per-segment monotone projection, then the heads are re-slaved to
  /// h_j = u_{1,j} + alpha_j (1 - B).
  void project(ode::State& s) const override;

  /// The kernel with the p (dependent) head rows replaced by the slaving
  /// constraints h_j - u_{1,j} - alpha_j (1 - B) = 0, which have an
  /// identity Jacobian block in the heads.
  [[nodiscard]] bool root_residual_batch(std::size_t nb, const double* x,
                                         double* f) const override;

  /// E[N] = sum_{i>=1} sum_j u_{i,j}.
  [[nodiscard]] double mean_tasks(const ode::State& s) const override;

 protected:
  PhaseTypeModelBase(double lambda, PhaseType service, std::size_t threshold,
                     std::size_t truncation);

  /// u_{i,j}, reading 0 beyond the truncation.
  [[nodiscard]] double u(const ode::State& x, std::size_t i,
                         std::size_t j) const {
    return i <= trunc_ ? x[j * (trunc_ + 1) + i] : 0.0;
  }

  PhaseType service_;
  std::size_t threshold_;
};

/// Threshold work stealing (steal-on-empty from victims with >= T tasks)
/// under phase-type service; T = 2 is the paper's simple model, T = 0
/// turns stealing off (independent M/PH/1 queues).
class PhaseTypeWS final : public PhaseTypeModelBase {
 public:
  PhaseTypeWS(double lambda, PhaseType service, std::size_t threshold,
              std::size_t truncation = 0);

  [[nodiscard]] bool rhs_batch(std::size_t nb, const double* x,
                               double* dx) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::size_t threshold() const noexcept { return threshold_; }
  [[nodiscard]] std::size_t min_truncation() const override {
    return std::max<std::size_t>(threshold_ + 3, 4);
  }

  /// Steal probes per processor per unit time at state x: the rate of
  /// processors completing their final task, R.
  [[nodiscard]] double message_rate(const ode::State& x) const;

  /// M/PH/1 Pollaczek-Khinchine mean sojourn for threshold = 0:
  /// mean + lambda m2 / (2 (1 - lambda mean)).
  [[nodiscard]] double analytic_sojourn_no_steal() const;
};

/// Sender-initiated work sharing (forward arrivals hitting load >= S)
/// under phase-type service; reduces to WorkSharingWS at p = 1.
class PhaseTypeSharing final : public PhaseTypeModelBase {
 public:
  PhaseTypeSharing(double lambda, PhaseType service,
                   std::size_t share_threshold, std::size_t truncation = 0);

  [[nodiscard]] bool rhs_batch(std::size_t nb, const double* x,
                               double* dx) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::size_t share_threshold() const noexcept {
    return threshold_;
  }
  [[nodiscard]] std::size_t min_truncation() const override {
    return std::max<std::size_t>(threshold_ + 3, 4);
  }

  /// Forwards per processor per unit time at state x: lambda sum_k u_{S,k}.
  [[nodiscard]] double message_rate(const ode::State& x) const;
};

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
  /// Stages the lanes' exit sums of the rows at `u` in `scratch` (a dx row
  /// written later) and returns it.
  template <class NB>
  const double* exits_row(NB nb, const double* u, std::size_t seg,
                          double* scratch) const {
    for (std::size_t l = 0; l < nb; ++l) scratch[l] = exits(u, seg, l);
    return scratch;
  }

  std::size_t p;
  const double* alpha;
  const double* S;
  const double* t;
};

}  // namespace detail

}  // namespace lsm::core
