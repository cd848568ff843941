// Phase-type service distributions: the single service-shape vocabulary
// shared by the mean-field models (per-phase occupancy state), the
// simulator (exact sampling) and the CLI/experiment layer (the --service
// axis). A phase-type distribution is the absorption time of a Markov
// chain on `p` transient phases: initial probabilities alpha_j and a
// sub-generator S (S_jk >= 0 off-diagonal, row sums <= 0); the exit rate
// of phase j is t_j = -sum_k S_jk.
//
// The paper fixes the mean service time at 1 (rates are in service
// units), so every factory defaults to mean 1 and the squared coefficient
// of variation (SCV) is the one shape knob the experiments sweep:
// Erlang-k reaches down to SCV = 1/k, the balanced-means hyperexponential
// H2 covers SCV > 1, Coxian fits fill (1/k, 1], and the heavy-tail fit
// spreads mass over geometrically spaced rates for the high-variability
// scenarios of Van Houdt (arXiv:1810.13186).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/xoshiro.hpp"

namespace lsm::core {

/// Walker/Vose alias table: O(1) sampling from a fixed discrete
/// distribution, used for the initial-phase draw and the per-phase
/// next-phase draws of PhaseType sampling.
class AliasTable {
 public:
  AliasTable() = default;
  /// `weights` need not be normalized; negatives and a zero sum throw.
  explicit AliasTable(const std::vector<double>& weights);

  [[nodiscard]] std::size_t size() const noexcept { return accept_.size(); }

  /// One draw; consumes no randomness for single-outcome tables.
  [[nodiscard]] std::size_t sample(util::Xoshiro256& rng) const {
    const std::size_t n = accept_.size();
    if (n <= 1) return 0;
    const std::size_t idx = rng.below(n);
    return rng.uniform() < accept_[idx] ? idx : alias_[idx];
  }

  /// Exact outcome probability (for tests).
  [[nodiscard]] double probability(std::size_t outcome) const;

 private:
  std::vector<double> accept_;
  std::vector<std::size_t> alias_;
};

class PhaseType {
 public:
  /// Single phase of rate 1/mean.
  [[nodiscard]] static PhaseType exponential(double mean = 1.0);

  /// `stages` exponential phases in series, each of rate stages/mean:
  /// SCV = 1/stages.
  [[nodiscard]] static PhaseType erlang(std::size_t stages, double mean = 1.0);

  /// Two-phase hyperexponential with balanced means (p_1/mu_1 = p_2/mu_2)
  /// matching `mean` and `scv`; requires scv >= 1 (scv == 1 collapses to
  /// exponential).
  [[nodiscard]] static PhaseType hyperexp(double scv, double mean = 1.0);

  /// Coxian chain on `stages` phases matching `mean` and `scv`.
  ///   stages == 1: plain exponential (scv must be 1).
  ///   stages == 2: Marie's two-moment fit, valid for scv >= 0.5.
  ///   stages >= 3: geometric continuation probability through a chain of
  ///     equal-rate phases, valid for scv in [1/stages, 1].
  [[nodiscard]] static PhaseType coxian(std::size_t stages, double scv,
                                        double mean = 1.0);

  /// Heavy-tail hyperexponential fit: `branches` rates spaced
  /// geometrically over several orders of magnitude, with the mixing
  /// ratio bisected so the mixture matches `mean` and `scv` (scv > 1).
  /// Unlike hyperexp() the slow mass is spread across scales, the
  /// Feldmann-Whitt recipe for approximating Pareto-like job sizes.
  [[nodiscard]] static PhaseType heavy_tail(double scv, double mean = 1.0,
                                            std::size_t branches = 4);

  /// General (alpha, S): `subgen` is row-major p x p. alpha must be a
  /// probability vector, S a valid sub-generator.
  [[nodiscard]] static PhaseType general(std::vector<double> alpha,
                                         std::vector<double> subgen,
                                         std::string label = "");

  [[nodiscard]] std::size_t phases() const noexcept { return alpha_.size(); }
  [[nodiscard]] const std::vector<double>& alpha() const noexcept {
    return alpha_;
  }
  /// Row-major sub-generator entry S_{jk}.
  [[nodiscard]] double subgen(std::size_t j, std::size_t k) const {
    return S_[j * phases() + k];
  }
  /// The whole row-major sub-generator, for the models' inner loops.
  [[nodiscard]] const std::vector<double>& subgenerator() const noexcept {
    return S_;
  }
  /// Exit (absorption) rates t_j = -sum_k S_jk.
  [[nodiscard]] const std::vector<double>& exit_rates() const noexcept {
    return exit_;
  }
  /// Total outflow rate of phase j, -S_jj.
  [[nodiscard]] double total_rate(std::size_t j) const {
    return -subgen(j, j);
  }

  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double moment2() const noexcept { return m2_; }
  /// Squared coefficient of variation, m2/mean^2 - 1.
  [[nodiscard]] double scv() const noexcept {
    return m2_ / (mean_ * mean_) - 1.0;
  }

  /// Exactly one phase.
  [[nodiscard]] bool is_exponential() const noexcept {
    return phases() == 1;
  }
  /// Pure series chain with one common rate entered at phase 0 (includes
  /// the single-phase exponential).
  [[nodiscard]] bool is_erlang() const;

  /// Compact human label ("exp", "erlang(4)", "h2(scv=4)", ...).
  [[nodiscard]] const std::string& label() const noexcept { return label_; }

  /// Full-precision canonical JSON (alpha + sub-generator): the form the
  /// experiment cache hashes, so every fitted parameter participates in
  /// the content key.
  [[nodiscard]] util::Json canonical() const;

  /// One service time; fresh phase per call (alias-method initial phase,
  /// embedded-chain transitions). The simulator's ServiceDistribution
  /// wraps this behind precomputed tables; this convenience builds them
  /// per call and is for tests only.
  [[nodiscard]] double sample_slow(util::Xoshiro256& rng) const;

  friend bool operator==(const PhaseType& a, const PhaseType& b) {
    return a.alpha_ == b.alpha_ && a.S_ == b.S_;
  }

 private:
  PhaseType(std::vector<double> alpha, std::vector<double> subgen,
            std::string label);

  std::vector<double> alpha_;  ///< initial probabilities, size p
  std::vector<double> S_;      ///< row-major sub-generator, size p*p
  std::vector<double> exit_;   ///< exit rates t_j, size p
  double mean_ = 1.0;
  double m2_ = 2.0;
  std::string label_;
};

/// Parses the uniform --service grammar used by the registry and CLIs:
///   exp | erlang:k | hyperexp:scv | coxian:k,scv | heavytail:scv[,k]
/// ("h2" is accepted as an alias for "hyperexp"). Mean is fixed at 1,
/// the paper's unit-service-rate convention. Throws util::Error with the
/// grammar on a malformed spec.
[[nodiscard]] PhaseType parse_service(const std::string& spec);

}  // namespace lsm::core
