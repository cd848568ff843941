#include "core/registry.hpp"

#include <cmath>
#include <stdexcept>

#include "core/composed_ws.hpp"
#include "core/erlang_ws.hpp"
#include "core/general_arrival_ws.hpp"
#include "core/multi_class_ws.hpp"
#include "core/rebalance_ws.hpp"
#include "core/staged_transfer_ws.hpp"
#include "core/threshold_ws.hpp"
#include "core/work_sharing.hpp"
#include "util/error.hpp"

namespace lsm::core {

namespace {

double number_of(const std::string& key, const ParamValue& v) {
  if (v.is_text) {
    throw util::Error("parameter " + key + " expects a number, got '" +
                      v.text + "'");
  }
  return v.number;
}

double get(const ModelParams& p, const std::string& key, double fallback) {
  const auto it = p.find(key);
  return it == p.end() ? fallback : number_of(key, it->second);
}

std::size_t get_n(const ModelParams& p, const std::string& key,
                  std::size_t fallback) {
  const auto it = p.find(key);
  if (it == p.end()) return fallback;
  const double v = number_of(key, it->second);
  // Every double up to 2^53 that equals its floor is an exact count; a
  // fraction would be truncated silently, a larger value cannot be cast.
  LSM_EXPECT(v >= 0.0 && v <= 0x1p53 && v == std::floor(v),
             "parameter " + key + " must be a non-negative integer");
  return static_cast<std::size_t>(v);
}

const ParamSpec kTrunc{"L", 0.0, "truncation override (0 = auto-size)"};
const ParamSpec kThresh{"T", 2.0, "steal threshold T (victim minimum load)"};
const ParamSpec kService{"service", 0.0,
                         "service distribution: exp | erlang:k | "
                         "hyperexp:scv | coxian:k,scv | heavytail:scv[,k]",
                         ParamSpec::Kind::Distribution, "exp"};

/// The service spec named in `params`, already parsed; the unit
/// exponential when absent. `given` records whether a spec was named.
struct ServiceChoice {
  PhaseType dist = PhaseType::exponential();
  bool given = false;
};

ServiceChoice service_of(const ModelParams& params) {
  ServiceChoice choice;
  const auto it = params.find("service");
  if (it == params.end()) return choice;
  if (!it->second.is_text) {
    throw util::Error(
        "parameter service expects a distribution spec string "
        "(exp | erlang:k | hyperexp:scv | coxian:k,scv | heavytail:scv[,k])");
  }
  choice.given = true;
  choice.dist = parse_service(it->second.text);
  return choice;
}

}  // namespace

bool ModelSpec::accepts(const std::string& key) const {
  for (const auto& p : params) {
    if (p.key == key) return true;
  }
  return false;
}

const ParamSpec& ModelSpec::param(const std::string& key) const {
  for (const auto& p : params) {
    if (p.key == key) return p;
  }
  throw util::Error("model " + name + " has no parameter '" + key + "'");
}

double ModelSpec::fallback(const std::string& key) const {
  return param(key).fallback;
}

const std::vector<ModelSpec>& model_specs() {
  static const std::vector<ModelSpec> specs = {
      {"no-stealing",
       "independent M/G/1 queues, the paper's no-migration baseline",
       {kService, kTrunc}},
      {"simple",
       "steal one task on empty from a random victim with >= 2 tasks "
       "(Section 2.2)",
       {kService, kTrunc}},
      {"threshold",
       "steal on empty only from victims with >= T tasks (Section 2.3)",
       {kThresh, kService, kTrunc}},
      {"preemptive",
       "start stealing at load <= B from victims >= load + T (Section 2.4)",
       {{"B", 1.0, "begin stealing at load <= B"}, kThresh, kTrunc}},
      {"repeated",
       "retry failed steals at rate r while empty (Section 2.5)",
       {{"r", 1.0, "steal retry rate while idle"}, kThresh, kTrunc}},
      {"multi-choice",
       "probe d random victims, steal from the most loaded (Section 3.3)",
       {{"d", 2.0, "victim choices per attempt"}, kThresh, kTrunc}},
      {"multi-steal",
       "steal k tasks per success (Section 3.4); requires k <= T/2",
       {{"k", 2.0, "tasks taken per steal"},
        {"T", 4.0, "steal threshold T (default 2k)"},
        kTrunc}},
      {"composed",
       "all stealing extensions layered: threshold, d choices, k tasks, "
       "preemption, retries (Section 3 'combined as desired')",
       {kThresh,
        {"d", 1.0, "victim choices per attempt"},
        {"k", 1.0, "tasks taken per steal"},
        {"B", 0.0, "begin stealing at load <= B"},
        {"r", 0.0, "steal retry rate while idle (0 = off)"},
        kTrunc}},
      {"erlang",
       "method-of-stages approximation of constant service times with c "
       "stages (Section 3.1); a non-Erlang service spec dispatches to the "
       "phase-type generalization",
       {{"c", 10.0, "Erlang service stages"},
        kService,
        kTrunc}},
      {"transfer",
       "stolen tasks spend Exp(1/r) in transit (Section 3.2)",
       {{"r", 0.25, "transfer completion rate (mean transfer 1/r)"}, kThresh,
        kService, kTrunc}},
      {"staged-transfer",
       "Erlang-c transfer latency instead of exponential (Sections 3.1+3.2)",
       {{"r", 0.25, "transfer completion rate (mean transfer 1/r)"},
        {"c", 4.0, "transfer stages"},
        kThresh,
        kTrunc}},
      {"rebalance",
       "pairwise even re-balancing at rate r while busy "
       "(Rudolph-Slivkin-Allalouf-Upfal, Section 3.4)",
       {{"r", 1.0, "re-balance rate while busy"}, kTrunc}},
      {"heterogeneous",
       "two processor classes: fraction f fast at rate mu_f, rest at mu_s "
       "(Section 3.5)",
       {{"f", 0.25, "fraction of fast processors"},
        {"mu_f", 2.0, "fast service rate"},
        {"mu_s", 0.8, "slow service rate"},
        kThresh,
        kTrunc}},
      {"spawning",
       "busy processors spawn extra internal work at rate int (Section 3.5 "
       "load-dependent arrivals)",
       {{"int", 0.0, "internal spawn rate while busy"}, kThresh, kTrunc}},
      {"sharing",
       "sender-initiated work sharing: forward arrivals hitting load >= S "
       "(the introduction's foil)",
       {{"S", 2.0, "forwarding threshold"}, kService, kTrunc}},
  };
  return specs;
}

const ModelSpec& model_spec(const std::string& name) {
  for (const auto& spec : model_specs()) {
    if (spec.name == name) return spec;
  }
  throw util::Error("unknown model: " + name +
                    " (see lsm::core::model_names())");
}

namespace {

std::unique_ptr<MeanFieldModel> build_model(const ModelSpec& spec,
                                            double lambda,
                                            const ModelParams& params) {
  const std::string& name = spec.name;
  for (const auto& [key, value] : params) {
    if (!spec.accepts(key)) {
      std::string accepted;
      for (const auto& p : spec.params) {
        if (!accepted.empty()) accepted += ", ";
        accepted += p.key;
      }
      throw util::Error("model " + name + " does not accept parameter '" +
                        key + "' (accepts: " + accepted + ")");
    }
  }

  const std::size_t L = get_n(params, "L", 0);
  const std::size_t T = get_n(params, "T", 2);
  const ServiceChoice svc = service_of(params);
  if (name == "no-stealing") {
    return std::make_unique<NoStealing>(lambda, svc.dist, L);
  }
  if (name == "simple") {
    return std::make_unique<SimpleWS>(lambda, svc.dist, L);
  }
  if (name == "threshold") {
    return std::make_unique<ThresholdWS>(lambda, svc.dist, T, L);
  }
  // The single-extension stealing families are presets of the composed
  // model: each varies one dimension and leaves the others neutral.
  const auto composed = [&](ComposedPolicy policy) {
    return std::make_unique<ComposedWS>(lambda, policy, L);
  };
  if (name == "preemptive") {
    return composed({.threshold = T, .begin_steal = get_n(params, "B", 1)});
  }
  if (name == "repeated") {
    return composed({.threshold = T, .retry_rate = get(params, "r", 1.0)});
  }
  if (name == "multi-choice") {
    return composed({.threshold = T, .choices = get_n(params, "d", 2)});
  }
  if (name == "multi-steal") {
    const std::size_t k = get_n(params, "k", 2);
    return composed(
        {.threshold = get_n(params, "T", 2 * k), .steal_count = k});
  }
  if (name == "composed") {
    return composed({.threshold = T,
                     .choices = get_n(params, "d", 1),
                     .steal_count = get_n(params, "k", 1),
                     .begin_steal = get_n(params, "B", 0),
                     .retry_rate = get(params, "r", 0.0)});
  }
  if (name == "erlang") {
    // The unified service spec wins when given; an Erlang-shaped spec
    // keeps the classic stage-state class (identical dynamics, banded
    // Krylov chord), anything else generalizes to phase-type state. The
    // historical integer key `c` remains.
    if (svc.given) {
      if (svc.dist.is_erlang()) {
        return std::make_unique<ErlangServiceWS>(lambda, svc.dist.phases(),
                                                 L);
      }
      return std::make_unique<SimpleWS>(lambda, svc.dist, L);
    }
    return std::make_unique<ErlangServiceWS>(lambda, get_n(params, "c", 10),
                                             L);
  }
  if (name == "transfer") {
    return std::make_unique<StagedTransferWS>(lambda, get(params, "r", 0.25),
                                              svc.dist, 1, T, L);
  }
  if (name == "staged-transfer") {
    return std::make_unique<StagedTransferWS>(
        lambda, get(params, "r", 0.25), get_n(params, "c", 4), T, L);
  }
  if (name == "rebalance") {
    return std::make_unique<RebalanceWS>(lambda, get(params, "r", 1.0), L);
  }
  if (name == "heterogeneous") {
    const double f = get(params, "f", 0.25);
    return std::make_unique<MultiClassWS>(
        lambda,
        std::vector<ProcessorClass>{{f, get(params, "mu_f", 2.0)},
                                    {1.0 - f, get(params, "mu_s", 0.8)}},
        T, L);
  }
  if (name == "sharing") {
    return std::make_unique<WorkSharingWS>(lambda, svc.dist,
                                           get_n(params, "S", 2), L);
  }
  if (name == "spawning") {
    return std::make_unique<GeneralArrivalWS>(GeneralArrivalWS::spawning(
        lambda, get(params, "int", 0.0), T, L));
  }
  throw util::Error("model " + name + " is listed but has no constructor");
}

}  // namespace

std::unique_ptr<MeanFieldModel> make_model(const std::string& name,
                                           double lambda,
                                           const ModelParams& params) {
  const ModelSpec& spec = model_spec(name);
  try {
    return build_model(spec, lambda, params);
  } catch (const util::LogicError& e) {
    // The constructors' preconditions all test values that arrive here
    // from outside (lambda and the parameters): a bad request, not a bug.
    // Keep the precondition's own explanation, not its source location.
    const std::string what = e.what();
    const std::size_t reason = what.find("failed: ");
    throw std::invalid_argument(
        "invalid parameters for model " + name + ": " +
        (reason == std::string::npos ? what : what.substr(reason + 8)));
  }
}

const std::vector<std::string>& model_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    out.reserve(model_specs().size());
    for (const auto& spec : model_specs()) out.push_back(spec.name);
    return out;
  }();
  return names;
}

}  // namespace lsm::core
