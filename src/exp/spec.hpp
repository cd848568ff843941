// Declarative experiment specs for the paper's tables and sweeps.
//
// An ExperimentSpec names a grid of runs: a list of GridEntry rows (model
// name + params for the ODE estimate, a SimConfig delta for the simulated
// side) crossed with a list of arrival rates, at a replication count /
// fidelity preset, producing a chosen set of outputs. expand() turns the
// grid into self-contained Jobs; each Job hashes its full configuration
// into a content key, which is what the result cache and the run manifest
// are keyed on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"

namespace lsm::exp {

/// Replications x horizon preset, CI-speed by default; from_env() upgrades
/// to the paper's methodology when LSM_PAPER is set.
struct Fidelity {
  std::size_t replications = 3;
  double horizon = 20000.0;
  double warmup = 2000.0;
  std::string label = "quick (3 x 20,000s, 2,000s warmup)";

  [[nodiscard]] static Fidelity quick();
  [[nodiscard]] static Fidelity paper();
  /// paper() when LSM_PAPER is truthy, quick() otherwise.
  [[nodiscard]] static Fidelity from_env();
};

/// Which outputs every job of the spec computes.
struct Outputs {
  bool fixed_point = true;   ///< solve the mean-field ODE fixed point
  bool simulate = true;      ///< run the replicated discrete-event side
  std::size_t tail_limit = 0;  ///< store s_0..s_tail_limit profiles
  /// Store the converged mean-field state (compact ladder discretization
  /// + its truncation) in the result/cache, so interrupted λ-sweeps can
  /// resume warm from the last cached point. Part of the content hash: a
  /// state-less cached entry must never satisfy a state-needing query.
  bool store_state = false;
};

/// One row of the grid. `model` drives the estimate side ("" = none);
/// `config` is the simulation delta (arrival_rate, horizon, warmup and
/// seed are overridden by the runner from the spec). Entry-level simulate
/// / estimate toggles let a spec mix sim-only and estimate-only rows.
struct GridEntry {
  std::string label;  ///< unique within the spec
  std::string model;
  core::ModelParams params;
  sim::SimConfig config;
  bool simulate = true;
  bool estimate = true;
};

/// One fully-resolved unit of work: GridEntry x lambda.
struct Job {
  std::string label;
  double lambda = 0.0;
  std::string model;
  core::ModelParams params;
  sim::SimConfig config;  ///< resolved: arrival_rate/horizon/warmup/seed set
  std::size_t replications = 1;
  bool simulate = true;
  bool estimate = true;
  Outputs outputs;
  /// Fixed-point solver identity, part of the content hash so warm and
  /// cold results can never alias in the cache: "cold" is the standalone
  /// solve (the default, and what a sweep's chain-head point runs);
  /// "warm" marks a continuation solve seeded from the previous sweep
  /// point.
  std::string solver = "cold";
  /// For solver == "warm": the λ values of every earlier point of the
  /// chain, in sweep order. A warm answer depends (below tolerance, but
  /// in principle) on the whole path that led to it, so the full prefix
  /// is hashed — two sweeps over different grids never share warm
  /// entries, while re-running or resuming the same sweep always hits.
  std::vector<double> warm_chain;
  /// Per-job solver budgets (0 = unlimited), threaded into
  /// core::FixedPointOptions for the estimate side. Budgets change which
  /// answer (if any) a solve produces, so non-zero budgets join the
  /// content hash; the zero defaults serialize exactly as before, keeping
  /// every existing cache entry and BENCH counter valid.
  std::size_t max_rhs_evals = 0;
  double max_wall_seconds = 0.0;

  /// Canonical JSON of everything that determines this job's results.
  /// Field order is fixed, so equal configurations serialize identically.
  [[nodiscard]] util::Json canonical() const;

  /// Content hash (16 hex chars) of canonical(); the cache key.
  [[nodiscard]] std::string key() const;

  /// Stable short identity ("label@0.8/es") used as the fault-injection
  /// context and in failure messages. Unlike key(), it is independent of
  /// solver annotations, so a job faults (or not) identically whether a
  /// sweep runs it warm or cold-restarted.
  [[nodiscard]] std::string fault_context() const;
};

struct ExperimentSpec {
  std::string name;  ///< names the manifest/CSV artifacts
  std::vector<GridEntry> entries;
  std::vector<double> lambdas;
  Fidelity fidelity = Fidelity::from_env();
  /// 0 uses fidelity.replications.
  std::size_t replications = 0;
  std::uint64_t seed = 42;
  Outputs outputs;
  /// Estimate-side solver budgets applied to every job (0 = unlimited);
  /// see Job::max_rhs_evals. The serve daemon sets these per request.
  std::size_t max_rhs_evals = 0;
  double max_wall_seconds = 0.0;

  GridEntry& add(GridEntry entry);

  /// entries x lambdas in declaration order. Throws util::Error when the
  /// spec is malformed (empty axes, duplicate labels, unknown model, or a
  /// parameter the model rejects).
  [[nodiscard]] std::vector<Job> expand() const;
};

/// FNV-1a 64-bit over `bytes`, hex-encoded; stable across platforms.
[[nodiscard]] std::string content_hash(const std::string& bytes);

/// True when the grid is strictly ascending or strictly descending (a
/// hysteresis study sweeps back down); a single point qualifies. Warm
/// continuation chains a grid in its given order, so warm estimating
/// sweeps — in the runner and in the serve daemon — require it.
[[nodiscard]] bool strictly_monotone(const std::vector<double>& lambdas);

}  // namespace lsm::exp
