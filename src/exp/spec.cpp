#include "exp/spec.hpp"

#include <set>

#include "util/env.hpp"
#include "util/error.hpp"

namespace lsm::exp {

namespace {

/// Bump when the canonical serialization or the cached result layout
/// changes; stale cache entries then simply stop matching.
/// v2: solver identity (cold/warm + warm chain prefix) and the stored
/// converged state joined the key/result format.
/// v3: model params carry text values (service distribution specs) and
/// the sim service serializes its full phase-type representation (every
/// fitted alpha/S entry), so two fits with equal summary stats but
/// different parameters can never share a cache entry.
/// v4: the sim config's fast/slow speed fields left the key (speed_groups
/// is the only description of heterogeneous speeds).
constexpr int kFormatVersion = 4;

util::Json policy_json(const sim::StealPolicy& p) {
  auto j = util::Json::object();
  j["kind"] = static_cast<int>(p.kind);
  j["threshold"] = p.threshold;
  j["choices"] = p.choices;
  j["steal_count"] = p.steal_count;
  j["retry_rate"] = p.retry_rate;
  j["begin_steal"] = p.begin_steal;
  j["rebalance_rate"] = p.rebalance_rate;
  j["transfer"] = static_cast<int>(p.transfer);
  j["transfer_mean"] = p.transfer_mean;
  j["transfer_stages"] = p.transfer_stages;
  j["victims_include_self"] = p.victims_include_self;
  return j;
}

util::Json config_json(const sim::SimConfig& c) {
  auto j = util::Json::object();
  j["processors"] = c.processors;
  j["arrival_rate"] = c.arrival_rate;
  j["internal_rate"] = c.internal_rate;
  auto service = util::Json::object();
  service["kind"] = static_cast<int>(c.service.kind());
  service["mean"] = c.service.mean();
  if (c.service.kind() != sim::ServiceDistribution::Kind::Constant) {
    // The full (alpha, S) representation, not a summary: every fitted
    // phase-type parameter participates in the content hash.
    service["ph"] = c.service.phase().canonical();
  }
  j["service"] = std::move(service);
  j["policy"] = policy_json(c.policy);
  j["horizon"] = c.horizon;
  j["warmup"] = c.warmup;
  j["seed"] = c.seed;
  auto groups = util::Json::array();
  for (const auto& g : c.speed_groups) {
    auto gj = util::Json::object();
    gj["count"] = g.count;
    gj["speed"] = g.speed;
    groups.push_back(std::move(gj));
  }
  j["speed_groups"] = std::move(groups);
  j["initial_tasks"] = c.initial_tasks;
  j["loaded_count"] = c.loaded_count;
  j["histogram_limit"] = c.histogram_limit;
  j["collect_sojourns"] = c.collect_sojourns;
  j["timeline_dt"] = c.timeline_dt;
  return j;
}

}  // namespace

Fidelity Fidelity::quick() { return {}; }

Fidelity Fidelity::paper() {
  return {10, 100000.0, 10000.0, "paper (10 x 100,000s, 10,000s warmup)"};
}

Fidelity Fidelity::from_env() {
  return util::paper_fidelity() ? paper() : quick();
}

util::Json Job::canonical() const {
  auto j = util::Json::object();
  j["v"] = kFormatVersion;
  j["lambda"] = lambda;
  j["model"] = model;
  auto params_json = util::Json::object();
  for (const auto& [key, value] : params) {
    if (value.is_text) {
      params_json[key] = value.text;
    } else {
      params_json[key] = value.number;
    }
  }
  j["params"] = std::move(params_json);
  j["estimate"] = estimate;
  j["simulate"] = simulate;
  if (simulate) {
    j["sim"] = config_json(config);
    j["replications"] = replications;
  }
  if (estimate) {
    // Solver configuration is part of the result's identity: a cached
    // cold answer must never satisfy a warm query (or vice versa), and a
    // warm answer is pinned to the exact chain prefix that produced it.
    auto solver_json = util::Json::object();
    solver_json["mode"] = solver;
    if (solver == "warm") {
      auto chain = util::Json::array();
      for (const double l : warm_chain) chain.push_back(l);
      solver_json["chain"] = std::move(chain);
    }
    j["solver"] = std::move(solver_json);
    // Unbudgeted jobs serialize exactly as before (format v3), so the
    // budget axis never invalidates an existing cache.
    if (max_rhs_evals > 0 || max_wall_seconds > 0.0) {
      auto budget = util::Json::object();
      budget["max_rhs_evals"] = max_rhs_evals;
      budget["max_wall_seconds"] = max_wall_seconds;
      j["budget"] = std::move(budget);
    }
  }
  auto out = util::Json::object();
  out["fixed_point"] = outputs.fixed_point;
  out["simulate"] = outputs.simulate;
  out["tail_limit"] = outputs.tail_limit;
  out["store_state"] = outputs.store_state;
  j["outputs"] = std::move(out);
  return j;
}

std::string Job::key() const { return content_hash(canonical().dump()); }

std::string Job::fault_context() const {
  std::string ctx = label;
  ctx += '@';
  ctx += util::Json::number_to_string(lambda);
  ctx += '/';
  if (estimate) ctx += 'e';
  if (simulate) ctx += 's';
  return ctx;
}

GridEntry& ExperimentSpec::add(GridEntry entry) {
  entries.push_back(std::move(entry));
  return entries.back();
}

std::vector<Job> ExperimentSpec::expand() const {
  LSM_EXPECT(!entries.empty(), "experiment spec has no grid entries");
  LSM_EXPECT(!lambdas.empty(), "experiment spec has no arrival rates");
  std::set<std::string> labels;
  for (const auto& e : entries) {
    LSM_EXPECT(!e.label.empty(), "grid entry needs a label");
    if (!labels.insert(e.label).second) {
      throw util::Error("duplicate grid entry label: " + e.label);
    }
    const bool wants_estimate = outputs.fixed_point && e.estimate;
    if (wants_estimate || !e.model.empty()) {
      if (e.model.empty()) {
        throw util::Error("grid entry '" + e.label +
                          "' wants an estimate but names no model");
      }
      // Validate the name and the parameter keys up front, before any
      // sharded work starts.
      const auto& spec = core::model_spec(e.model);
      for (const auto& [key, value] : e.params) {
        if (!spec.accepts(key)) {
          throw util::Error("grid entry '" + e.label + "': model " + e.model +
                            " does not accept parameter '" + key + "'");
        }
      }
    }
  }

  const std::size_t reps =
      replications > 0 ? replications : fidelity.replications;
  std::vector<Job> jobs;
  jobs.reserve(entries.size() * lambdas.size());
  for (const auto& e : entries) {
    for (const double lambda : lambdas) {
      Job job;
      job.label = e.label;
      job.lambda = lambda;
      job.model = e.model;
      job.params = e.params;
      job.config = e.config;
      job.config.arrival_rate = lambda;
      job.config.horizon = fidelity.horizon;
      job.config.warmup = fidelity.warmup;
      job.config.seed = seed;
      job.replications = reps;
      job.simulate = outputs.simulate && e.simulate;
      job.estimate = outputs.fixed_point && e.estimate && !e.model.empty();
      job.outputs = outputs;
      job.max_rhs_evals = max_rhs_evals;
      job.max_wall_seconds = max_wall_seconds;
      if (job.simulate) job.config.validate();
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

bool strictly_monotone(const std::vector<double>& lambdas) {
  const bool ascending = lambdas.size() > 1 && lambdas[1] > lambdas[0];
  for (std::size_t i = 1; i < lambdas.size(); ++i) {
    if (ascending ? lambdas[i] <= lambdas[i - 1]
                  : lambdas[i] >= lambdas[i - 1]) {
      return false;
    }
  }
  return true;
}

std::string content_hash(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;  // FNV prime
  }
  constexpr char hex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex[h & 0xf];
    h >>= 4;
  }
  return out;
}

}  // namespace lsm::exp
