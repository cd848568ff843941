// Request/response vocabulary of the lsm_serve line protocol.
//
// The daemon speaks newline-delimited JSON over a Unix-domain stream
// socket: every request is one JSON object on one line, every response
// line is one JSON object tagged with a "type". A sweep/estimate request
// streams one "point" line per completed λ-point (in grid order) followed
// by a terminal "done" summary line; every other verb answers with a
// single line. Malformed input of any shape — bad JSON, unknown verbs,
// unknown models, non-monotone warm grids — is answered with a structured
// "error" line carrying the util::Failure taxonomy, never with a dropped
// connection or a crash. docs/SERVING.md holds the full grammar with
// example sessions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "exp/result.hpp"
#include "util/failure.hpp"
#include "util/json.hpp"

namespace lsm::serve {

enum class Verb {
  Sweep,     ///< solve a λ grid, streaming a point line per λ
  Estimate,  ///< single-λ convenience: one point line + done
  Status,    ///< daemon counters (admission, cache, totals)
  Cancel,    ///< cancel an in-flight or queued request by id
  Shutdown,  ///< drain in-flight requests, then exit
};

[[nodiscard]] const char* to_string(Verb verb) noexcept;

/// One parsed, validated client request.
struct Request {
  Verb verb = Verb::Status;
  /// Client-chosen token echoed in every response line of this request.
  /// Required for sweep/estimate (it keys cancellation); optional
  /// elsewhere. Also used as the grid-entry label, so fault-injection
  /// contexts are per-request ("<id>@<lambda>/e") while cache keys —
  /// which never include the label — still dedupe across clients.
  std::string id;

  // sweep / estimate:
  std::string model;
  core::ModelParams params;
  /// Strictly monotone when warm; exactly one point for estimate.
  std::vector<double> lambdas;
  std::size_t tail_limit = 0;
  bool warm = true;  ///< chain the grid through warm-started continuation
  /// Per-request solver budgets (0 = unlimited), threaded into every
  /// point's solve; exhaustion surfaces as a per-point error payload
  /// with kind "solver-budget".
  std::size_t max_rhs_evals = 0;
  double max_wall_seconds = 0.0;

  // cancel:
  std::string target;  ///< id of the request to cancel
};

/// Parses and validates one request line. Throws util::FailureError with
/// FailureKind::InvalidArgument describing the first problem: JSON syntax
/// errors, missing/mistyped fields, unknown verbs, unknown models,
/// parameters the model rejects, or a warm sweep's non-monotone λ grid
/// (exp::strictly_monotone). The failure context carries the request id
/// when one could be extracted, so the error response still routes to
/// the right client request.
[[nodiscard]] Request parse_request(const std::string& line);

// Response writers. Every line is a compact single-line JSON object with
// "type" first and the request id echoed as "id"; dump() + "\n" is the
// wire form.

/// One completed λ-point: sojourn/mean_tasks/residual/rhs_evals and
/// cache provenance on success, or an error{kind,message,attempts}
/// payload when the point failed. Deliberately timing-free, so two runs
/// producing identical results stream byte-identical point lines.
[[nodiscard]] util::Json point_response(const std::string& id,
                                        const exp::JobResult& r);

/// Terminal summary of a sweep/estimate: point counts must add up
/// (points == ok + failed; cache_hits <= ok).
[[nodiscard]] util::Json done_response(const std::string& id,
                                       std::size_t points, std::size_t ok,
                                       std::size_t cache_hits,
                                       std::size_t failed, bool was_cancelled,
                                       double wall_seconds);

/// Structured failure line (request-level, not per-point).
[[nodiscard]] util::Json error_response(const std::string& id,
                                        const util::Failure& failure);

/// Admission-control refusal: the in-flight + queue bound is hit (or the
/// daemon is draining for shutdown).
[[nodiscard]] util::Json rejected_response(const std::string& id,
                                           const std::string& reason,
                                           std::size_t in_flight,
                                           std::size_t queued);

}  // namespace lsm::serve
