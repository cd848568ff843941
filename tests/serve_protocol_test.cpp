// Protocol suite for the lsm_serve daemon: every verb round-trips over a
// real Unix-domain socket, malformed input of any shape is answered with
// a structured error line (never a dropped connection or a crash), point
// lines stream in grid order, and the terminal summary's counts match
// the streamed lines.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/harness.hpp"
#include "serve/protocol.hpp"
#include "util/failure.hpp"

namespace {

using namespace lsm;
using test::ServerFixture;

TEST(ServeProtocol, StatusRoundTrips) {
  ServerFixture fx;
  auto client = fx.connect();
  auto req = util::Json::object();
  req["verb"] = "status";
  req["id"] = "s1";
  client.send(req);
  const auto line = client.read_line();
  EXPECT_EQ(line.at("type").as_string(), "status");
  EXPECT_EQ(line.at("id").as_string(), "s1");
  EXPECT_EQ(line.at("admission").at("in_flight").as_int(), 0);
  EXPECT_EQ(line.at("totals").at("completed").as_int(), 0);
  EXPECT_EQ(line.at("cache").at("dir").as_string(), fx.cache_dir());
  EXPECT_EQ(line.at("solver_threads").as_int(), 4);
}

TEST(ServeProtocol, EstimateRoundTrips) {
  ServerFixture fx;
  auto client = fx.connect();
  client.send(test::sweep_request("e1", {0.8}));
  const auto lines = client.collect("e1");
  test::expect_ordered_stream(lines, "e1", {0.8});
  const auto& point = lines.front();
  EXPECT_EQ(point.at("status").as_string(), "ok");
  EXPECT_GT(point.at("sojourn").as_double(), 1.0);
  EXPECT_GT(point.at("rhs_evals").as_int(), 0);
  EXPECT_FALSE(point.at("cache_hit").as_bool());
}

TEST(ServeProtocol, SweepStreamsInGridOrder) {
  ServerFixture fx;
  auto client = fx.connect();
  const auto grid = test::lambda_grid(8);
  client.send(test::sweep_request("sw1", grid));
  test::expect_ordered_stream(client.collect("sw1"), "sw1", grid);
}

TEST(ServeProtocol, DescendingGridStreamsInRequestOrder) {
  ServerFixture fx;
  auto client = fx.connect();
  const std::vector<double> grid = {0.9, 0.7, 0.5};
  client.send(test::sweep_request("down", grid));
  test::expect_ordered_stream(client.collect("down"), "down", grid);
}

TEST(ServeProtocol, CancelUnknownTargetReportsNotFound) {
  ServerFixture fx;
  auto client = fx.connect();
  auto req = util::Json::object();
  req["verb"] = "cancel";
  req["id"] = "c1";
  req["target"] = "no-such-request";
  client.send(req);
  const auto line = client.read_line();
  EXPECT_EQ(line.at("type").as_string(), "cancelled");
  EXPECT_EQ(line.at("id").as_string(), "c1");
  EXPECT_EQ(line.at("target").as_string(), "no-such-request");
  EXPECT_FALSE(line.at("found").as_bool());
}

TEST(ServeProtocol, ShutdownAcknowledgesAndStopsAccepting) {
  ServerFixture fx;
  {
    auto client = fx.connect();
    auto req = util::Json::object();
    req["verb"] = "shutdown";
    req["id"] = "bye";
    client.send(req);
    const auto line = client.read_line();
    EXPECT_EQ(line.at("type").as_string(), "shutting_down");
    EXPECT_EQ(line.at("id").as_string(), "bye");
  }
  fx.server().wait();  // must return: nothing was in flight
  EXPECT_THROW((void)serve::Client::connect(fx.socket_path(), 0.3),
               util::FailureError);
}

// --- malformed input ----------------------------------------------------

/// Sends one bad line, expects a structured invalid-argument error, then
/// proves the connection survived by running a status round-trip on it.
void expect_structured_error(serve::Client& client, const std::string& line,
                             const std::string& expect_substring) {
  client.send_raw(line + "\n");
  const auto err = client.read_line();
  ASSERT_EQ(err.at("type").as_string(), "error") << line;
  EXPECT_EQ(err.at("error").at("kind").as_string(), "invalid-argument")
      << line;
  EXPECT_NE(err.at("error").at("message").as_string().find(expect_substring),
            std::string::npos)
      << "error for " << line << " should mention '" << expect_substring
      << "' but was: " << err.at("error").at("message").as_string();

  auto ping = lsm::util::Json::object();
  ping["verb"] = "status";
  client.send(ping);
  EXPECT_EQ(client.read_line().at("type").as_string(), "status")
      << "connection must stay usable after a malformed request";
}

TEST(ServeProtocol, MalformedRequestsGetStructuredErrors) {
  ServerFixture fx;
  auto client = fx.connect();

  expect_structured_error(client, "{nope", "byte");
  expect_structured_error(client, "[1, 2]", "must be a JSON object");
  expect_structured_error(client, "\"just a string\"", "must be a JSON object");
  expect_structured_error(client, "{}", "missing required field 'verb'");
  expect_structured_error(client, R"({"verb": "frobnicate"})",
                          "unknown verb");
  expect_structured_error(
      client, R"({"verb": "sweep", "model": "simple", "lambdas": [0.5]})",
      "non-empty 'id'");
  expect_structured_error(
      client,
      R"({"verb": "sweep", "id": "x", "model": "nope", "lambdas": [0.5]})",
      "unknown model 'nope'");
  expect_structured_error(
      client,
      R"({"verb": "sweep", "id": "x", "model": "threshold",)"
      R"( "params": {"bogus": 1}, "lambdas": [0.5]})",
      "does not accept parameter 'bogus'");
  expect_structured_error(
      client, R"({"verb": "sweep", "id": "x", "model": "simple"})",
      "missing required field 'lambdas'");
  expect_structured_error(
      client,
      R"({"verb": "sweep", "id": "x", "model": "simple", "lambdas": []})",
      "non-empty array");
  expect_structured_error(
      client,
      R"({"verb": "sweep", "id": "x", "model": "simple",)"
      R"( "lambdas": "oops"})",
      "non-empty array");
  expect_structured_error(
      client,
      R"({"verb": "sweep", "id": "x", "model": "simple",)"
      R"( "lambdas": [0.5, 0.5]})",
      "strictly monotone");
  expect_structured_error(
      client,
      R"({"verb": "sweep", "id": "x", "model": "simple",)"
      R"( "lambdas": [0.5, 0.9, 0.7]})",
      "strictly monotone");
  expect_structured_error(
      client,
      R"({"verb": "estimate", "id": "x", "model": "simple",)"
      R"( "lambdas": [0.5, 0.7]})",
      "exactly one lambda");
  expect_structured_error(
      client,
      R"({"verb": "sweep", "id": "x", "model": "simple",)"
      R"( "lambdas": [0.5], "budget": {"max_rhs_evals": -4}})",
      "must be >= 0");
  expect_structured_error(client, R"({"verb": "cancel"})",
                          "missing required field 'target'");
}

TEST(ServeProtocol, OutOfRangeModelParameterIsInvalidArgument) {
  // A parameter the model's constructor rejects (preemptive stealing needs
  // T >= 2) reaches the daemon through the runner's make_model: the point
  // fails as the client's error, not as an internal one.
  ServerFixture fx;
  auto client = fx.connect();
  auto req = test::sweep_request("bad-T", {0.5});
  req["model"] = "preemptive";
  auto params = util::Json::object();
  params["T"] = 1;
  req["params"] = std::move(params);
  client.send(req);
  const auto lines = client.collect("bad-T");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].at("status").as_string(), "failed");
  EXPECT_EQ(lines[0].at("error").at("kind").as_string(), "invalid-argument");
  EXPECT_NE(lines[0].at("error").at("message").as_string().find(
                "model preemptive: threshold must be at least 2"),
            std::string::npos)
      << lines[0].dump();
  EXPECT_EQ(lines[1].at("failed").as_int(), 1);
}

TEST(ServeProtocol, OnlyWarmSweepsNeedMonotoneGrids) {
  // Cold points never chain, so a "warm": false sweep takes any grid order
  // and streams its points in that order; the same grid warm is refused.
  ServerFixture fx;
  auto client = fx.connect();
  const std::vector<double> grid = {0.5, 0.9, 0.7};
  auto req = test::sweep_request("cold", grid);
  req["warm"] = false;
  client.send(req);
  test::expect_ordered_stream(client.collect("cold"), "cold", grid);
  expect_structured_error(
      client,
      R"({"verb": "sweep", "id": "x", "model": "simple", "warm": true,)"
      R"( "lambdas": [0.5, 0.9, 0.7]})",
      "strictly monotone");
}

TEST(ServeProtocol, ErrorRoutesToRequestIdWhenExtractable) {
  ServerFixture fx;
  auto client = fx.connect();
  client.send_raw(
      R"({"verb": "sweep", "id": "routed", "model": "simple"})"
      "\n");
  const auto err = client.read_line();
  EXPECT_EQ(err.at("type").as_string(), "error");
  EXPECT_EQ(err.at("id").as_string(), "routed");
}

TEST(ServeProtocol, BlankLinesAreIgnored) {
  ServerFixture fx;
  auto client = fx.connect();
  client.send_raw("\n\n");
  auto req = util::Json::object();
  req["verb"] = "status";
  client.send(req);
  EXPECT_EQ(client.read_line().at("type").as_string(), "status");
}

TEST(ServeProtocol, PipelinedRequestsAllAnswer) {
  ServerFixture fx;
  auto client = fx.connect();
  // Two sweeps and a status written back-to-back before any read: every
  // response must still arrive, attributable by id.
  std::string batch = test::sweep_request("p1", {0.5, 0.7}).dump() + "\n" +
                      test::sweep_request("p2", {0.6, 0.8}).dump() + "\n";
  client.send_raw(batch);
  test::expect_ordered_stream(client.collect("p1"), "p1", {0.5, 0.7});
  test::expect_ordered_stream(client.collect("p2"), "p2", {0.6, 0.8});
}

TEST(ServeProtocol, BudgetExhaustionSurfacesPerPointError) {
  ServerFixture fx;
  auto client = fx.connect();
  auto req = test::sweep_request("tight", {0.5, 0.7, 0.9});
  auto budget = util::Json::object();
  budget["max_rhs_evals"] = 3;  // far below any real solve
  req["budget"] = std::move(budget);
  client.send(req);
  const auto lines = client.collect("tight");
  const auto& done = lines.back();
  ASSERT_EQ(done.at("type").as_string(), "done");
  EXPECT_EQ(done.at("failed").as_int(), 3);
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    EXPECT_EQ(lines[i].at("status").as_string(), "failed");
    EXPECT_EQ(lines[i].at("error").at("kind").as_string(), "solver-budget");
    EXPECT_GE(lines[i].at("error").at("attempts").as_int(), 1);
  }
}

TEST(ServeProtocol, TailProfileStreamsWhenRequested) {
  ServerFixture fx;
  auto client = fx.connect();
  auto req = test::sweep_request("tails", {0.8});
  req["tail_limit"] = 5;
  client.send(req);
  const auto lines = client.collect("tails");
  const auto& tail = lines.front().at("tail");
  ASSERT_EQ(tail.type(), util::Json::Type::Array);
  EXPECT_EQ(tail.size(), 6u);  // s_0 .. s_5
  EXPECT_DOUBLE_EQ(tail.item(0).as_double(), 1.0);
  for (std::size_t i = 1; i < tail.size(); ++i) {
    EXPECT_LT(tail.item(i).as_double(), tail.item(i - 1).as_double());
  }
}

}  // namespace
