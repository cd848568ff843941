// Concurrency + shared-warm-cache suite for the lsm_serve daemon. Holds
// the PR's two acceptance scenarios: (1) two sequential clients on a
// 16-point sweep, where the second reports every point as a cache hit
// with byte-identical results; (2) four concurrent clients whose streams
// all match the serial exp::Runner baseline bit-for-bit. Runs in-process
// so the TSan leg of scripts/check.sh covers the daemon's locking.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "serve/harness.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace lsm;
using test::ServerFixture;

/// The serial reference: the same estimate-only spec the service builds
/// for a request, run directly through exp::Runner with caching off.
/// Cold per-point solves: with warm chaining, which client solves a
/// point's predecessor (vs loading it) decides whether the Newton chord
/// is rebuilt — convergent either way, but not bit-identical, so the
/// concurrent byte-identity contract is pinned on the cold path (warm
/// replay byte-identity is pinned by the sequential test above).
std::vector<exp::JobResult> serial_baseline(
    const std::string& label, const std::vector<double>& lambdas) {
  exp::ExperimentSpec spec;
  spec.lambdas = lambdas;
  spec.outputs.simulate = false;
  {
    exp::GridEntry entry;
    entry.label = label;
    entry.model = "simple";
    entry.simulate = false;
    spec.add(std::move(entry));
  }
  exp::RunnerOptions opts;
  opts.cache_dir = "";
  opts.artifact_dir = "";
  opts.warm = false;
  const auto report = exp::Runner(opts).run(spec);
  return report.results;
}

TEST(ServeConcurrency, SecondClientGetsByteIdenticalCacheHits) {
  ServerFixture fx;
  const auto grid = test::lambda_grid(16);

  auto first = fx.connect();
  first.send(test::sweep_request("accept", grid));
  const auto cold = first.collect("accept");
  test::expect_ordered_stream(cold, "accept", grid);
  ASSERT_EQ(cold.back().at("ok").as_int(), 16);

  // Same request from a fresh connection: every point must now come from
  // the shared process-wide cache, and — because point lines carry no
  // timing — be byte-identical once the cache_hit flag is set aside.
  auto second = fx.connect();
  second.send(test::sweep_request("accept", grid));
  const auto warm = second.collect("accept");
  test::expect_ordered_stream(warm, "accept", grid);
  EXPECT_EQ(warm.back().at("cache_hits").as_int(), 16);

  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_FALSE(cold[i].at("cache_hit").as_bool());
    EXPECT_TRUE(warm[i].at("cache_hit").as_bool());
    EXPECT_EQ(test::dump_without(cold[i], {"cache_hit"}),
              test::dump_without(warm[i], {"cache_hit"}))
        << "cached replay must be byte-identical at lambda " << grid[i];
  }
}

TEST(ServeConcurrency, ConcurrentClientsMatchSerialBaseline) {
  serve::ServiceOptions service = test::test_service_options();
  service.max_in_flight = 4;
  ServerFixture fx(service);
  const auto grid = test::lambda_grid(8);
  const auto baseline = serial_baseline("c0", grid);
  ASSERT_EQ(baseline.size(), grid.size());

  constexpr int kClients = 4;
  std::vector<std::vector<util::Json>> streams(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&fx, &grid, &streams, c] {
        const std::string id = std::string("c").append(std::to_string(c));
        auto client = fx.connect();
        auto req = test::sweep_request(id, grid);
        req["warm"] = false;  // see serial_baseline
        client.send(req);
        streams[static_cast<std::size_t>(c)] = client.collect(id);
      });
    }
    for (auto& t : clients) t.join();
  }

  for (int c = 0; c < kClients; ++c) {
    const std::string id = std::string("c").append(std::to_string(c));
    const auto& lines = streams[static_cast<std::size_t>(c)];
    test::expect_ordered_stream(lines, id, grid);
    EXPECT_EQ(lines.back().at("failed").as_int(), 0);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      // Whichever client solved a point first, everyone must stream the
      // serial answer bit-for-bit (cache round-trips are exact).
      const std::string expected = test::dump_without(
          serve::point_response(id, baseline[i]), {"cache_hit"});
      EXPECT_EQ(test::dump_without(lines[i], {"cache_hit"}), expected)
          << "client " << id << " diverged at lambda " << grid[i];
    }
  }
}

TEST(ServeConcurrency, CacheCountersAggregateAcrossClients) {
  ServerFixture fx;
  const auto grid = test::lambda_grid(4);
  for (int round = 0; round < 3; ++round) {
    auto client = fx.connect();
    const std::string id = "round" + std::to_string(round);
    client.send(test::sweep_request(id, grid));
    const auto lines = client.collect(id);
    EXPECT_EQ(lines.back().at("cache_hits").as_int(),
              round == 0 ? 0 : 4);
  }
  auto client = fx.connect();
  auto req = util::Json::object();
  req["verb"] = "status";
  req["id"] = "s";
  client.send(req);
  const auto status = client.read_line();
  EXPECT_EQ(status.at("totals").at("completed").as_int(), 3);
  EXPECT_EQ(status.at("totals").at("points").as_int(), 12);
  EXPECT_EQ(status.at("cache").at("misses").as_int(), 4);
  EXPECT_EQ(status.at("cache").at("hits").as_int(), 8);
}

TEST(ServeConcurrency, DistinctConfigurationsDoNotShareEntries) {
  ServerFixture fx;
  auto client = fx.connect();

  auto with_budget = test::sweep_request("tight", {0.5, 0.7});
  auto budget = util::Json::object();
  budget["max_rhs_evals"] = 1000000;
  with_budget["budget"] = std::move(budget);
  client.send(test::sweep_request("plain", {0.5, 0.7}));
  (void)client.collect("plain");

  // Same grid but a non-zero budget: a budget changes which answer a
  // solve may produce, so it joins the content hash — no hits.
  client.send(with_budget);
  const auto lines = client.collect("tight");
  EXPECT_EQ(lines.back().at("cache_hits").as_int(), 0);
  EXPECT_EQ(lines.back().at("ok").as_int(), 2);
}

}  // namespace
