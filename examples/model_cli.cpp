// Generic model front-end: solve the fixed point of any model variant by
// name and print its steady-state profile -- expected time in system,
// busy fraction, tail distribution, decay ratio, and relaxation spectrum.
// Flag parsing and help text are derived from core::model_specs(), so a
// newly registered model (and its parameters) shows up here untouched.
//
//   ./model_cli <model> [--lambda=0.9] [--<param>=..] [--tails=16]
//               [--solver=auto|relax|anderson|krylov] [--max-evals=N]
//               [--max-seconds=S] [--csv] [--json]
//   ./model_cli --list
//
// The --solver choices come from ode::fixed_point_method_names(), the same
// list parse_fixed_point_method consults, so a newly registered solver
// (like the matrix-free Newton-Krylov path) appears here without edits.
//
// Failures (unknown model, bad flag, solver divergence or an exhausted
// --max-evals/--max-seconds budget) exit nonzero; with --json they emit a
// structured {"error": {"kind", "message"}} document so scripted callers
// can branch on the failure kind instead of scraping stderr.
#include <chrono>
#include <iostream>

#include "core/registry.hpp"
#include "lsm.hpp"
#include "util/failure.hpp"

namespace {

std::string solver_choices() {
  std::string out;
  for (const auto& n : lsm::ode::fixed_point_method_names()) {
    if (!out.empty()) out += '|';
    out += n;
  }
  return out;
}

void print_model_list() {
  std::cout << "models:\n";
  for (const auto& spec : lsm::core::model_specs()) {
    std::cout << "  " << spec.name << " -- " << spec.description << "\n";
    for (const auto& p : spec.params) {
      std::cout << "      --" << p.key << "=";
      if (p.kind == lsm::core::ParamSpec::Kind::Distribution) {
        std::cout << p.fallback_text;
      } else {
        std::cout << p.fallback;
      }
      std::cout << "  " << p.doc << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const lsm::util::Args args(argc, argv);
  if (args.flag("list") || args.positional().empty()) {
    std::cout << "usage: model_cli <model> [--lambda=0.9] [--<param>=value] "
                 "[--tails=16] [--solver=" +
                     solver_choices() +
                     "] "
                     "[--max-evals=N] [--max-seconds=S] [--csv] [--json]\n";
    print_model_list();
    return args.flag("list") ? 0 : 1;
  }

  const std::string name = args.positional().front();

  try {
    const double lambda = args.get("lambda", 0.9);
    // Accept exactly the parameters the chosen model declares; reject
    // anything else so a mistyped flag cannot be silently ignored.
    const auto& spec = lsm::core::model_spec(name);
    lsm::core::ModelParams params;
    for (const auto& key : args.keys()) {
      if (key == "lambda" || key == "tails" || key == "csv" || key == "json" ||
          key == "list" || key == "solver" || key == "max-evals" ||
          key == "max-seconds") {
        continue;
      }
      if (!spec.accepts(key)) {
        throw lsm::util::Error("model '" + name + "' does not take --" + key +
                               " (see --list)");
      }
      const auto& ps = spec.param(key);
      if (ps.kind == lsm::core::ParamSpec::Kind::Distribution) {
        params[key] = args.get(key, ps.fallback_text);
      } else {
        params[key] = args.get(key, ps.fallback);
      }
    }

    const auto model = lsm::core::make_model(name, lambda, params);
    lsm::core::FixedPointOptions fp_opts;
    fp_opts.method =
        lsm::ode::parse_fixed_point_method(args.get("solver", "auto"));
    fp_opts.max_rhs_evals =
        static_cast<std::size_t>(args.get("max-evals", 0L));
    fp_opts.max_wall_seconds = args.get("max-seconds", 0.0);
    const auto t0 = std::chrono::steady_clock::now();
    const auto fp = lsm::core::solve_fixed_point(*model, fp_opts);
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const auto tails = static_cast<std::size_t>(args.get("tails", 16L));
    const std::size_t shown = std::min(tails, model->truncation());

    if (args.flag("csv")) {
      lsm::util::Table t({"i", "s_i"});
      for (std::size_t i = 0; i <= shown; ++i) {
        t.add_row({std::to_string(i), lsm::util::Table::fmt(fp.state[i], 9)});
      }
      t.write_csv(std::cout);
      return 0;
    }

    if (args.flag("json")) {
      auto doc = lsm::util::Json::object();
      doc["model"] = model->name();
      doc["lambda"] = lambda;
      auto params_json = lsm::util::Json::object();
      for (const auto& [key, value] : params) {
        if (value.is_text) {
          params_json[key] = value.text;
        } else {
          params_json[key] = value.number;
        }
      }
      doc["params"] = std::move(params_json);
      doc["residual"] = fp.residual;
      doc["polished"] = fp.polished;
      doc["solver"] = std::string(lsm::ode::to_string(fp.method));
      doc["fellback"] = fp.fellback;
      doc["iterations"] = static_cast<double>(fp.iterations);
      doc["rhs_evals"] = static_cast<double>(fp.rhs_evals);
      doc["final_truncation"] = static_cast<double>(fp.final_truncation);
      doc["truncation_capped"] = fp.truncation_capped;
      doc["wall_seconds"] = wall_seconds;
      doc["mean_sojourn"] = model->mean_sojourn(fp.state);
      doc["mean_tasks"] = model->mean_tasks(fp.state);
      doc["busy_fraction"] = model->busy_fraction(fp.state);
      if (model->dimension() <= 1500) {
        const auto s = lsm::analysis::dominant_relaxation_mode(*model, fp.state);
        if (s.converged) {
          doc["spectral_gap"] = s.spectral_gap;
          doc["relaxation_time"] = s.relaxation_time;
        }
      }
      auto tail = lsm::util::Json::array();
      for (std::size_t i = 0; i <= shown; ++i) tail.push_back(fp.state[i]);
      doc["tail"] = std::move(tail);
      std::cout << doc.dump(2) << "\n";
      return 0;
    }

    std::cout << "model            : " << model->name() << "\n"
              << "lambda           : " << lambda << "\n"
              << "fixed point      : residual " << fp.residual
              << (fp.polished ? " (Newton-polished)" : "")
              << "\n"
              << "solver           : " << lsm::ode::to_string(fp.method)
              << (fp.fellback ? " (fell back to relaxation)" : "") << ", "
              << fp.rhs_evals << " RHS evals, " << fp.iterations
              << " iterations, " << wall_seconds * 1e3 << " ms, L="
              << fp.final_truncation
              << (fp.truncation_capped ? " (capped: tail not resolved)" : "")
              << "\n"
              << "E[time in system]: " << model->mean_sojourn(fp.state) << "\n"
              << "E[tasks/processor]: " << model->mean_tasks(fp.state) << "\n"
              << "busy fraction    : " << model->busy_fraction(fp.state)
              << "\n";
    if (model->dimension() <= 1500) {
      const auto spec_mode =
          lsm::analysis::dominant_relaxation_mode(*model, fp.state);
      if (spec_mode.converged) {
        std::cout << "spectral gap     : " << spec_mode.spectral_gap
                  << "  (relaxation time ~ " << spec_mode.relaxation_time
                  << ")\n";
      }
    }
    lsm::util::Table t({"i", "s_i"});
    for (std::size_t i = 0; i <= shown; ++i) {
      t.add_row({std::to_string(i), lsm::util::Table::fmt(fp.state[i], 6)});
    }
    t.print(std::cout);
  } catch (const std::exception& e) {
    const lsm::util::Failure f = lsm::util::classify_exception(e);
    if (args.flag("json")) {
      auto doc = lsm::util::Json::object();
      auto err = lsm::util::Json::object();
      err["kind"] = lsm::util::to_string(f.kind);
      err["message"] = f.message;
      if (!f.context.empty()) err["context"] = f.context;
      doc["error"] = std::move(err);
      std::cout << doc.dump(2) << "\n";
    } else {
      std::cerr << "error [" << lsm::util::to_string(f.kind)
                << "]: " << f.describe() << "\n";
    }
    return 1;
  }
  return 0;
}
