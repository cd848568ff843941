// Fixed-point engine performance harness: the repo's tracked ODE baseline.
//
// Solves a pinned model x lambda grid spanning the registry's families
// (single-tail, banded Erlang stages, multi-class, 10^4-unknown) on the
// default Newton-Krylov route and reports, per case, the
// derivative-evaluation count (the primary metric: it is deterministic
// and machine-independent) and best-of-5 wall time. Writes the
// measurements as JSON and, when given a committed baseline file, prints
// and embeds per-case and aggregate evaluation reductions and wall-time
// speedups so solver regressions show up as a diff.
//
//   perf_ode [out.json] [baseline.json]
//            [--mode=current|legacy|sweep-warm|sweep-cold]
//            [--check=<committed.json>]
//
// Defaults: out = BENCH_ode.json, no baseline, mode = current. --check
// is the counter gate: it exits 1 if any deterministic field of the run
// differs from the committed file, doubles bit for bit (`method`,
// `final_truncation`, `rhs_evals`, `sojourn`, `residual`, `fellback`:
// whether Anderson gave up and relaxation finished; in the sweep
// modes `rhs_evals`, `sojourn_last` and, warm, `cold_rhs_evals`,
// `max_sojourn_dev`, `warm_rejections`). Given an out path, --check
// makes the full timed run and writes its report there; without one it
// runs each case once (no timing repetitions) and writes no file. Mode
// `legacy` pins the pre-engine behaviour (explicit relaxation at the
// constructed truncation, no Anderson acceleration, no adaptive
// truncation); it exists to record BENCH_ode.baseline.json from the same
// binary. E[T] per case is included in the JSON so an accidental semantic
// change is visible in the diff (tests/golden_values_test.cpp pins the
// same values independently). Legacy mode skips the cases that need the
// Newton-Krylov path: the two 10^4-dimension near-critical cases
// (explicit relaxation at that dimension and load would run for hours)
// and the stiff Erlang stage models (their committed baseline rows were
// recorded by a banded pseudo-transient solver that no longer exists).
//
// The sweep modes measure λ-sweep continuation instead of standalone
// solves: a 6-model x 16-λ grid chained through
// core::FixedPointContinuation (sweep-warm) or solved point-by-point from
// scratch (sweep-cold). sweep-warm also runs the cold reference in-process
// and reports, per model, the evaluation reduction and the worst
// warm-vs-cold sojourn deviation. The default output file for both is
// BENCH_ode_sweep.json (the committed copy tracks the sweep-warm numbers,
// which embed the cold columns).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/fixed_point.hpp"
#include "core/multi_class_ws.hpp"
#include "core/registry.hpp"
#include "counter_check.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace lsm;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct PerfCase {
  std::string name;
  std::function<std::unique_ptr<core::MeanFieldModel>()> make;
  /// Requires the current engine (Krylov path); skipped in legacy mode
  /// (see the file comment).
  bool modern_only = false;
};

struct CaseResult {
  std::string name;
  std::size_t rhs_evals = 0;
  double seconds = 0.0;
  double sojourn = 0.0;
  double residual = 0.0;
  std::string method;
  std::size_t final_truncation = 0;
  bool fellback = false;
  double baseline_evals = 0.0;   // 0 = no baseline
  double baseline_seconds = 0.0;
};

std::unique_ptr<core::MeanFieldModel> reg(const std::string& name,
                                          double lambda,
                                          core::ModelParams params = {}) {
  return core::make_model(name, lambda, std::move(params));
}

/// Pinned grid: explicit single-tail models across the load range, the
/// stiff Erlang stage models at two stage counts, the segmented transfer
/// models, and the multi-class models. Names encode model and lambda so
/// baseline lookup survives reordering.
std::vector<PerfCase> perf_cases() {
  std::vector<PerfCase> cases;
  auto add = [&](std::string name,
                 std::function<std::unique_ptr<core::MeanFieldModel>()> make,
                 bool modern_only = false) {
    cases.push_back({std::move(name), std::move(make), modern_only});
  };
  add("simple_l0.70", [] { return reg("simple", 0.70); });
  add("simple_l0.99", [] { return reg("simple", 0.99); });
  add("no_stealing_l0.95", [] { return reg("no-stealing", 0.95); });
  add("threshold_T4_l0.90", [] { return reg("threshold", 0.90, {{"T", 4}}); });
  add("multi_choice_d2_l0.90",
      [] { return reg("multi-choice", 0.90, {{"d", 2}, {"T", 3}}); });
  add("multi_steal_k2_l0.90",
      [] { return reg("multi-steal", 0.90, {{"k", 2}, {"T", 4}}); });
  add("repeated_r1_l0.90",
      [] { return reg("repeated", 0.90, {{"r", 1}, {"T", 3}}); });
  add("composed_l0.90", [] {
    return reg("composed", 0.90, {{"T", 4}, {"d", 2}, {"k", 2}, {"B", 1}});
  });
  add("preemptive_B1_l0.90",
      [] { return reg("preemptive", 0.90, {{"B", 1}, {"T", 2}}); });
  add("rebalance_r1_l0.90", [] { return reg("rebalance", 0.90, {{"r", 1}}); });
  add("sharing_S1_l0.90", [] { return reg("sharing", 0.90, {{"S", 1}}); });
  add("erlang_c10_l0.90", [] { return reg("erlang", 0.90, {{"c", 10}}); },
      /*modern_only=*/true);
  add("erlang_c20_l0.70", [] { return reg("erlang", 0.70, {{"c", 20}}); },
      /*modern_only=*/true);
  add("transfer_r4_l0.90",
      [] { return reg("transfer", 0.90, {{"r", 4}, {"T", 2}}); });
  add("staged_transfer_c3_l0.90", [] {
    return reg("staged-transfer", 0.90, {{"r", 4}, {"c", 3}, {"T", 2}});
  });
  add("heterogeneous_l0.90", [] {
    return reg("heterogeneous", 0.90,
               {{"f", 0.5}, {"mu_f", 1.5}, {"mu_s", 0.5}, {"T", 2}});
  });
  add("multi_class3_l0.90", [] {
    return std::make_unique<core::MultiClassWS>(
        0.90,
        std::vector<core::ProcessorClass>{
            {0.25, 1.6}, {0.5, 1.0}, {0.25, 0.4}},
        2);
  });
  // 10^4-unknown near-critical studies: explicit truncations (registry "L")
  // force the full discretization, where the Newton-Krylov route stays
  // matrix-free with a banded chord. no-stealing at λ = 0.995
  // doubles as an accuracy pin — its M/M/1 sojourn is exactly
  // 1/(1-λ) = 200.
  add("sharing_S1_L10239_l0.99",
      [] { return reg("sharing", 0.99, {{"S", 1}, {"L", 10239}}); },
      /*modern_only=*/true);
  add("no_stealing_L10499_l0.995",
      [] { return reg("no-stealing", 0.995, {{"L", 10499}}); },
      /*modern_only=*/true);
  return cases;
}

/// Pre-engine behaviour, used to record the committed baseline: explicit
/// relaxation at the constructed truncation, Newton polish unchanged.
core::FixedPointOptions legacy_options() {
  core::FixedPointOptions opts;
  opts.truncation = core::TruncationMode::Fixed;
  opts.method = ode::FixedPointMethod::Relax;
  return opts;
}

/// Repetitions per case; the fastest is reported. Best-of timing measures
/// the code, not whatever else the machine was doing.
constexpr int kRepetitions = 5;

/// `quick` solves once, untimed warmup and repetitions skipped: a counter
/// check that writes no report needs only the deterministic fields.
CaseResult time_case(const PerfCase& pc, bool legacy, bool quick) {
  const auto model = pc.make();
  const core::FixedPointOptions opts =
      legacy ? legacy_options() : core::FixedPointOptions{};
  CaseResult out;
  out.name = pc.name;
  if (!quick) (void)core::solve_fixed_point(*model, opts);  // untimed warmup
  for (int rep = 0; rep < (quick ? 1 : kRepetitions); ++rep) {
    const auto t0 = Clock::now();
    const auto r = core::solve_fixed_point(*model, opts);
    const double secs = seconds_since(t0);
    if (rep == 0 || secs < out.seconds) out.seconds = secs;
    out.rhs_evals = r.rhs_evals;  // deterministic: identical every rep
    out.sojourn = model->mean_sojourn(r.state);
    out.residual = r.residual;
    out.method = ode::to_string(r.method);
    out.final_truncation = r.final_truncation;
    out.fellback = r.fellback;
  }
  return out;
}

// --- λ-sweep continuation benchmark (modes sweep-warm / sweep-cold) ----

struct SweepModel {
  std::string name;      ///< case label in the table/JSON
  std::string reg_name;  ///< registry name
  core::ModelParams params;
};

/// Six models spanning the registry's solver paths (single-tail explicit,
/// thresholded variants, the segmented transfer family, task sharing).
std::vector<SweepModel> sweep_models() {
  return {{"simple", "simple", {}},
          {"threshold_T4", "threshold", {{"T", 4}}},
          {"multi_choice_d2", "multi-choice", {{"d", 2}, {"T", 3}}},
          {"multi_steal_k2", "multi-steal", {{"k", 2}, {"T", 4}}},
          {"transfer_r4", "transfer", {{"r", 4}, {"T", 2}}},
          {"sharing_S1", "sharing", {{"S", 1}}}};
}

/// 16 ascending arrival rates from the easy regime to near-critical.
std::vector<double> sweep_lambdas() {
  std::vector<double> ls;
  for (int j = 0; j < 16; ++j) ls.push_back(0.50 + 0.032 * j);
  return ls;
}

std::string sci(double v) {
  std::ostringstream os;
  os.precision(2);
  os << std::scientific << v;
  return os.str();
}

struct SweepChainResult {
  std::size_t rhs_evals = 0;
  std::vector<double> sojourns;
  std::size_t warm_rejections = 0;  ///< warm starts the safeguard discarded
};

/// Solves the model's whole λ chain once. warm = continuation through a
/// FixedPointContinuation; cold = standalone solve per point.
SweepChainResult run_sweep_chain(const SweepModel& sm,
                                 const std::vector<double>& lambdas,
                                 bool warm) {
  SweepChainResult out;
  core::FixedPointContinuation chain;
  for (std::size_t j = 0; j < lambdas.size(); ++j) {
    const auto model = reg(sm.reg_name, lambdas[j], sm.params);
    const auto r = warm ? chain.solve(*model)
                        : core::solve_fixed_point(*model);
    out.rhs_evals += r.rhs_evals;
    out.sojourns.push_back(model->mean_sojourn(r.state));
    if (warm && j > 0 && !r.warm) ++out.warm_rejections;
  }
  return out;
}

int run_sweep_mode(bool warm, const std::string& out_path,
                   const std::string& check_path, bool quick) {
  const auto lambdas = sweep_lambdas();
  std::cout << "=== perf_ode: λ-sweep continuation ("
            << (warm ? "sweep-warm" : "sweep-cold") << " mode, "
            << sweep_models().size() << " models x " << lambdas.size()
            << " λ) ===\n\n";

  util::Table table(warm ? std::vector<std::string>{"model", "warm evals",
                                                    "cold evals", "redux",
                                                    "max |Δ sojourn|",
                                                    "rejects", "ms"}
                         : std::vector<std::string>{"model", "evals", "ms"});
  auto cases_json = util::Json::array();
  std::size_t total = 0, total_cold = 0;
  double total_seconds = 0.0, max_dev_all = 0.0;
  for (const auto& sm : sweep_models()) {
    const auto chain = run_sweep_chain(sm, lambdas, warm);
    // Best-of-N wall time for the whole chain (evals are deterministic).
    double secs = 0.0;
    for (int rep = 0; rep < (quick ? 1 : kRepetitions); ++rep) {
      const auto t0 = Clock::now();
      (void)run_sweep_chain(sm, lambdas, warm);
      const double s = seconds_since(t0);
      if (rep == 0 || s < secs) secs = s;
    }
    total += chain.rhs_evals;
    total_seconds += secs;

    auto j = util::Json::object();
    j["name"] = sm.name;
    j["rhs_evals"] = chain.rhs_evals;
    j["seconds"] = secs;
    j["sojourn_last"] = chain.sojourns.back();
    if (warm) {
      const auto cold = run_sweep_chain(sm, lambdas, false);
      double max_dev = 0.0;
      for (std::size_t k = 0; k < lambdas.size(); ++k) {
        max_dev = std::max(max_dev,
                           std::abs(chain.sojourns[k] - cold.sojourns[k]));
      }
      total_cold += cold.rhs_evals;
      max_dev_all = std::max(max_dev_all, max_dev);
      const double redux = static_cast<double>(cold.rhs_evals) /
                           static_cast<double>(chain.rhs_evals);
      j["cold_rhs_evals"] = cold.rhs_evals;
      j["eval_reduction"] = redux;
      j["max_sojourn_dev"] = max_dev;
      j["warm_rejections"] = chain.warm_rejections;
      table.add_row({sm.name, std::to_string(chain.rhs_evals),
                     std::to_string(cold.rhs_evals),
                     util::Table::fmt(redux, 2), sci(max_dev),
                     std::to_string(chain.warm_rejections),
                     util::Table::fmt(secs * 1e3, 2)});
    } else {
      table.add_row({sm.name, std::to_string(chain.rhs_evals),
                     util::Table::fmt(secs * 1e3, 2)});
    }
    cases_json.push_back(std::move(j));
  }
  table.print(std::cout);

  auto aggregate = util::Json::object();
  aggregate["name"] = "aggregate";
  aggregate["rhs_evals"] = total;
  aggregate["seconds"] = total_seconds;
  std::cout << "\naggregate: " << total << " rhs evals, "
            << util::Table::fmt(total_seconds * 1e3, 1) << " ms";
  if (warm) {
    const double redux =
        static_cast<double>(total_cold) / static_cast<double>(total);
    aggregate["cold_rhs_evals"] = total_cold;
    aggregate["eval_reduction"] = redux;
    aggregate["max_sojourn_dev"] = max_dev_all;
    std::cout << " (cold " << total_cold << " evals, "
              << util::Table::fmt(redux, 2) << "x fewer warm, max dev "
              << max_dev_all << ")";
  }
  std::cout << "\n\n";

  auto doc = util::Json::object();
  doc["schema"] = "lsm-ode-sweep-perf/1";
  doc["mode"] = warm ? "sweep-warm" : "sweep-cold";
  doc["workload"] =
      "6-model x 16-λ ascending sweep; rhs_evals is deterministic, wall "
      "time best-of-" +
      std::to_string(kRepetitions);
  doc["lambda_grid"] = "0.50 + 0.032j, j = 0..15";
  doc["sweep_cases"] = std::move(cases_json);
  doc["aggregate"] = std::move(aggregate);
  if (!quick) {
    std::ofstream out(out_path, std::ios::trunc);
    out << doc.dump(2) << "\n";
    std::cout << "wrote " << out_path << "\n";
  }
  if (check_path.empty()) return 0;
  return perf::check_counters(
      check_path, doc, "sweep_cases",
      warm ? std::vector<std::string>{"rhs_evals", "cold_rhs_evals",
                                      "sojourn_last", "max_sojourn_dev",
                                      "warm_rejections"}
           : std::vector<std::string>{"rhs_evals", "sojourn_last"});
}

/// Pulls `"<key>": <v>` following `"name": "<name>"` out of a previously
/// written BENCH_ode.json. A full JSON parser is overkill for reading back
/// our own flat output.
double baseline_value(const std::string& doc, const std::string& name,
                      const std::string& key) {
  const auto at = doc.find("\"name\": \"" + name + "\"");
  if (at == std::string::npos) return 0.0;
  const std::string needle = "\"" + key + "\":";
  const auto pos = doc.find(needle, at);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(doc.c_str() + pos + needle.size(), nullptr);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string baseline_path;
  std::string check_path;
  bool legacy = false;
  int sweep = -1;  // -1 = not a sweep mode, else bool: warm?
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--mode=legacy") {
      legacy = true;
    } else if (arg == "--mode=current") {
      legacy = false;
    } else if (arg == "--mode=sweep-warm") {
      sweep = 1;
    } else if (arg == "--mode=sweep-cold") {
      sweep = 0;
    } else if (arg.rfind("--check=", 0) == 0 && arg.size() > 8) {
      check_path = arg.substr(8);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag " << arg
                << " (usage: perf_ode [out.json] [baseline.json]"
                   " [--mode=current|legacy|sweep-warm|sweep-cold]"
                   " [--check=<committed.json>])\n";
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (!positional.empty()) out_path = positional[0];
  if (positional.size() > 1) baseline_path = positional[1];
  if (out_path.empty()) {
    out_path = sweep >= 0 ? "BENCH_ode_sweep.json" : "BENCH_ode.json";
  }
  const bool quick = !check_path.empty() && positional.empty();
  if (sweep >= 0) {
    return run_sweep_mode(sweep == 1, out_path, check_path, quick);
  }
  const std::string baseline =
      baseline_path.empty() ? "" : slurp(baseline_path);
  if (!baseline_path.empty() && baseline.empty()) {
    std::cerr << "warning: baseline " << baseline_path << " not readable\n";
  }

  std::cout << "=== perf_ode: fixed-point engine baseline ("
            << (legacy ? "legacy" : "current") << " mode) ===\n\n";
  util::Table table({"case", "method", "L", "rhs evals", "ms", "base evals",
                     "eval redux", "speedup"});
  auto cases_json = util::Json::array();
  std::size_t total_evals = 0;
  double total_seconds = 0.0;
  // Baseline comparisons only over the cases the baseline actually has:
  // the modern_only 10^4-dim cases would otherwise pollute the aggregate
  // redux/speedup columns with work the legacy engine never ran.
  std::size_t comp_evals = 0;
  double comp_seconds = 0.0;
  double comp_base_evals = 0.0;
  double comp_base_seconds = 0.0;
  for (const auto& pc : perf_cases()) {
    if (legacy && pc.modern_only) continue;
    CaseResult r = time_case(pc, legacy, quick);
    r.baseline_evals = baseline_value(baseline, r.name, "rhs_evals");
    r.baseline_seconds = baseline_value(baseline, r.name, "seconds");
    total_evals += r.rhs_evals;
    total_seconds += r.seconds;
    const bool has_base = r.baseline_evals > 0.0;
    if (has_base) {
      comp_evals += r.rhs_evals;
      comp_base_evals += r.baseline_evals;
      if (r.baseline_seconds > 0.0) {
        comp_seconds += r.seconds;
        comp_base_seconds += r.baseline_seconds;
      }
    }
    table.add_row(
        {r.name, r.method, std::to_string(r.final_truncation),
         std::to_string(r.rhs_evals), util::Table::fmt(r.seconds * 1e3, 2),
         has_base ? util::Table::fmt(r.baseline_evals, 0) : "-",
         has_base
             ? util::Table::fmt(
                   r.baseline_evals / static_cast<double>(r.rhs_evals), 1)
             : "-",
         r.baseline_seconds > 0.0
             ? util::Table::fmt(r.baseline_seconds / r.seconds, 1)
             : "-"});
    auto j = util::Json::object();
    j["name"] = r.name;
    j["method"] = r.method;
    j["final_truncation"] = r.final_truncation;
    j["rhs_evals"] = r.rhs_evals;
    j["seconds"] = r.seconds;
    j["sojourn"] = r.sojourn;
    j["residual"] = r.residual;
    j["fellback"] = r.fellback;
    if (has_base) {
      j["baseline_rhs_evals"] = r.baseline_evals;
      j["eval_reduction"] =
          r.baseline_evals / static_cast<double>(r.rhs_evals);
    }
    if (r.baseline_seconds > 0.0) {
      j["baseline_seconds"] = r.baseline_seconds;
      j["speedup"] = r.baseline_seconds / r.seconds;
    }
    cases_json.push_back(std::move(j));
  }
  table.print(std::cout);

  auto aggregate = util::Json::object();
  aggregate["name"] = "aggregate";
  aggregate["rhs_evals"] = total_evals;
  aggregate["seconds"] = total_seconds;
  std::cout << "\naggregate: " << total_evals << " rhs evals, "
            << util::Table::fmt(total_seconds * 1e3, 1) << " ms";
  if (comp_base_evals > 0.0 && comp_evals > 0) {
    const double redux =
        comp_base_evals / static_cast<double>(comp_evals);
    aggregate["comparable_rhs_evals"] = comp_evals;
    aggregate["baseline_rhs_evals"] = comp_base_evals;
    aggregate["eval_reduction"] = redux;
    std::cout << " (baseline-comparable cases: "
              << util::Table::fmt(comp_base_evals, 0) << " baseline evals, "
              << util::Table::fmt(redux, 1) << "x fewer";
    if (comp_base_seconds > 0.0 && comp_seconds > 0.0) {
      aggregate["comparable_seconds"] = comp_seconds;
      aggregate["baseline_seconds"] = comp_base_seconds;
      aggregate["speedup"] = comp_base_seconds / comp_seconds;
      std::cout << ", "
                << util::Table::fmt(comp_base_seconds / comp_seconds, 1)
                << "x faster";
    }
    std::cout << ")";
  }
  std::cout << "\n\n";

  auto doc = util::Json::object();
  doc["schema"] = "lsm-ode-perf/1";
  doc["mode"] = legacy ? "legacy" : "current";
  doc["workload"] =
      "pinned model x lambda grid; rhs_evals is deterministic, wall time "
      "best-of-" +
      std::to_string(kRepetitions);
  doc["repetitions"] = static_cast<std::size_t>(kRepetitions);
  doc["ode_cases"] = std::move(cases_json);
  doc["aggregate"] = std::move(aggregate);
  if (!quick) {
    std::ofstream out(out_path, std::ios::trunc);
    out << doc.dump(2) << "\n";
    std::cout << "wrote " << out_path << "\n";
  }
  if (check_path.empty()) return 0;
  return perf::check_counters(check_path, doc, "ode_cases",
                              {"method", "final_truncation", "rhs_evals",
                               "sojourn", "residual", "fellback"});
}
