#include "serve/protocol.hpp"

#include <utility>

#include "exp/spec.hpp"
#include "util/error.hpp"

namespace lsm::serve {

namespace {

[[noreturn]] void invalid(std::string message, std::string context = "") {
  util::Failure f;
  f.kind = util::FailureKind::InvalidArgument;
  f.message = std::move(message);
  f.context = std::move(context);
  throw util::FailureError(std::move(f));
}

Verb parse_verb(const std::string& name, const std::string& id) {
  if (name == "sweep") return Verb::Sweep;
  if (name == "estimate") return Verb::Estimate;
  if (name == "status") return Verb::Status;
  if (name == "cancel") return Verb::Cancel;
  if (name == "shutdown") return Verb::Shutdown;
  invalid("unknown verb '" + name +
          "' (expected sweep|estimate|status|cancel|shutdown)",
          id);
}

/// The named member, required to exist; type errors surface through the
/// Json accessors and are re-labelled with the field name by the caller.
const util::Json& require(const util::Json& doc, const std::string& key,
                          const std::string& id) {
  if (!doc.contains(key)) {
    invalid("request is missing required field '" + key + "'", id);
  }
  return doc.at(key);
}

void parse_lambdas(const util::Json& doc, Request& req) {
  const util::Json& grid = require(doc, "lambdas", req.id);
  if (grid.type() != util::Json::Type::Array || grid.size() == 0) {
    invalid("'lambdas' must be a non-empty array of numbers", req.id);
  }
  req.lambdas.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    req.lambdas.push_back(grid.item(i).as_double());
  }
  if (req.verb == Verb::Estimate && req.lambdas.size() != 1) {
    invalid("estimate takes exactly one lambda (use sweep for grids)",
            req.id);
  }
}

void parse_model(const util::Json& doc, Request& req) {
  req.model = require(doc, "model", req.id).as_string();
  const core::ModelSpec* spec = nullptr;
  try {
    spec = &core::model_spec(req.model);
  } catch (const util::Error&) {
    invalid("unknown model '" + req.model + "'", req.id);
  }
  if (doc.contains("params")) {
    const util::Json& params = doc.at("params");
    if (params.type() != util::Json::Type::Object) {
      invalid("'params' must be an object", req.id);
    }
    for (const auto& [key, value] : params.members()) {
      if (!spec->accepts(key)) {
        invalid("model " + req.model + " does not accept parameter '" + key +
                "'",
                req.id);
      }
      if (value.type() == util::Json::Type::String) {
        req.params[key] = value.as_string();
      } else {
        req.params[key] = value.as_double();
      }
    }
  }
}

void parse_budget(const util::Json& doc, Request& req) {
  if (!doc.contains("budget")) return;
  const util::Json& budget = doc.at("budget");
  if (budget.type() != util::Json::Type::Object) {
    invalid("'budget' must be an object", req.id);
  }
  if (budget.contains("max_rhs_evals")) {
    const std::int64_t v = budget.at("max_rhs_evals").as_int();
    if (v < 0) invalid("'budget.max_rhs_evals' must be >= 0", req.id);
    req.max_rhs_evals = static_cast<std::size_t>(v);
  }
  if (budget.contains("max_wall_seconds")) {
    const double v = budget.at("max_wall_seconds").as_double();
    if (v < 0.0) invalid("'budget.max_wall_seconds' must be >= 0", req.id);
    req.max_wall_seconds = v;
  }
}

util::Json error_payload(const std::string& kind, const std::string& message,
                         std::uint32_t attempts) {
  auto err = util::Json::object();
  err["kind"] = kind;
  err["message"] = message;
  if (attempts > 0) err["attempts"] = static_cast<std::size_t>(attempts);
  return err;
}

}  // namespace

const char* to_string(Verb verb) noexcept {
  switch (verb) {
    case Verb::Sweep: return "sweep";
    case Verb::Estimate: return "estimate";
    case Verb::Status: return "status";
    case Verb::Cancel: return "cancel";
    case Verb::Shutdown: return "shutdown";
  }
  return "?";
}

Request parse_request(const std::string& line) {
  util::Json doc;
  try {
    doc = util::Json::parse(line);
  } catch (const util::Error& e) {
    invalid(e.what());
  }
  if (doc.type() != util::Json::Type::Object) {
    invalid("request must be a JSON object");
  }

  Request req;
  // The id is extracted first (best effort) so every later validation
  // error can still be routed to the client's request.
  try {
    if (doc.contains("id")) req.id = doc.at("id").as_string();
  } catch (const util::Error&) {
    invalid("'id' must be a string");
  }

  try {
    req.verb = parse_verb(require(doc, "verb", req.id).as_string(), req.id);

    switch (req.verb) {
      case Verb::Sweep:
      case Verb::Estimate: {
        if (req.id.empty()) {
          invalid("sweep/estimate requests need a non-empty 'id' "
                  "(responses stream and cancel targets it)");
        }
        parse_model(doc, req);
        parse_lambdas(doc, req);
        parse_budget(doc, req);
        if (doc.contains("warm")) req.warm = doc.at("warm").as_bool();
        // The runner's rule for warm estimating sweeps, checked here so a
        // bad grid is a structured request error before any work queues.
        if (req.warm && !exp::strictly_monotone(req.lambdas)) {
          invalid("'lambdas' must be strictly monotone for a warm sweep "
                  "(warm continuation chains the grid in order)",
                  req.id);
        }
        if (doc.contains("tail_limit")) {
          const std::int64_t v = doc.at("tail_limit").as_int();
          if (v < 0) invalid("'tail_limit' must be >= 0", req.id);
          req.tail_limit = static_cast<std::size_t>(v);
        }
        break;
      }
      case Verb::Cancel:
        req.target = require(doc, "target", req.id).as_string();
        if (req.target.empty()) invalid("'target' must be non-empty", req.id);
        break;
      case Verb::Status:
      case Verb::Shutdown: break;
    }
  } catch (const util::FailureError&) {
    throw;
  } catch (const util::Error& e) {
    // Type errors from the Json accessors (e.g. "lambdas": "oops").
    invalid(e.what(), req.id);
  }
  return req;
}

util::Json point_response(const std::string& id, const exp::JobResult& r) {
  auto j = util::Json::object();
  j["type"] = "point";
  j["id"] = id;
  j["lambda"] = r.lambda;
  if (r.status == exp::JobStatus::Failed) {
    j["status"] = "failed";
    j["error"] = error_payload(r.error_kind, r.error, r.attempts);
    return j;
  }
  j["status"] = "ok";
  if (r.has_estimate) {
    j["sojourn"] = r.est_sojourn;
    j["mean_tasks"] = r.est_mean_tasks;
    j["residual"] = r.est_residual;
    j["rhs_evals"] = r.est_rhs_evals;
    if (!r.est_tail.empty()) {
      auto tail = util::Json::array();
      for (const double v : r.est_tail) tail.push_back(v);
      j["tail"] = std::move(tail);
    }
  }
  if (r.has_sim) {
    auto sim = util::Json::object();
    sim["sojourn"] = r.sim_sojourn.mean;
    sim["half_width"] = r.sim_sojourn.half_width;
    sim["events"] = r.events;
    j["sim"] = std::move(sim);
  }
  j["cache_hit"] = r.cache_hit;
  return j;
}

util::Json done_response(const std::string& id, std::size_t points,
                         std::size_t ok, std::size_t cache_hits,
                         std::size_t failed, bool was_cancelled,
                         double wall_seconds) {
  auto j = util::Json::object();
  j["type"] = "done";
  j["id"] = id;
  j["points"] = points;
  j["ok"] = ok;
  j["cache_hits"] = cache_hits;
  j["failed"] = failed;
  j["cancelled"] = was_cancelled;
  j["wall_seconds"] = wall_seconds;
  return j;
}

util::Json error_response(const std::string& id,
                          const util::Failure& failure) {
  auto j = util::Json::object();
  j["type"] = "error";
  j["id"] = id;
  auto err = util::Json::object();
  err["kind"] = util::to_string(failure.kind);
  err["message"] = failure.message;
  if (!failure.context.empty()) err["context"] = failure.context;
  j["error"] = std::move(err);
  return j;
}

util::Json rejected_response(const std::string& id, const std::string& reason,
                             std::size_t in_flight, std::size_t queued) {
  auto j = util::Json::object();
  j["type"] = "rejected";
  j["id"] = id;
  j["reason"] = reason;
  j["in_flight"] = in_flight;
  j["queued"] = queued;
  return j;
}

}  // namespace lsm::serve
