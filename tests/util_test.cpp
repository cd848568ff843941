// Unit tests for src/util: statistics, RNG, tables, CLI parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/statistics.hpp"
#include "util/table.hpp"
#include "util/xoshiro.hpp"

namespace {

using namespace lsm::util;

// --- RunningStat -----------------------------------------------------------

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStat, MatchesNaiveFormulas) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0, 32.5, -3.25};
  RunningStat s;
  for (double x : xs) s.add(x);
  const double mean =
      std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  const double var = ss / static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -3.25);
  EXPECT_DOUBLE_EQ(s.max(), 32.5);
}

TEST(RunningStat, MergeEqualsSequential) {
  RunningStat a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(static_cast<double>(i)) * 10.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
}

TEST(RunningStat, StableUnderLargeOffsets) {
  RunningStat s;
  for (int i = 0; i < 1000; ++i) s.add(1e9 + static_cast<double>(i % 2));
  EXPECT_NEAR(s.variance(), 0.25025, 1e-3);
}

// --- quantiles / CI ----------------------------------------------------------

TEST(NormalQuantile, KnownValues) {
  EXPECT_NEAR(normal_quantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_quantile(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(normal_quantile(0.99), 2.326348, 1e-5);
}

TEST(NormalQuantile, RejectsOutOfRange) {
  EXPECT_THROW((void)normal_quantile(0.0), LogicError);
  EXPECT_THROW((void)normal_quantile(1.0), LogicError);
}

TEST(LogicErrorMessage, NamesTheSourceRelativeToTheRepository) {
  // Precondition messages reach users (daemon error lines, model_cli
  // --json), so their location reads src/..., never a build path.
  try {
    (void)normal_quantile(0.0);
    FAIL() << "normal_quantile(0) did not throw";
  } catch (const LogicError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("src/util/", 0), 0u) << e.what();
  }
}

TEST(TCritical, MatchesTables) {
  EXPECT_NEAR(t_critical(1, 0.95), 12.7062, 1e-3);
  EXPECT_NEAR(t_critical(9, 0.95), 2.2622, 1e-3);
  EXPECT_NEAR(t_critical(30, 0.99), 2.7500, 1e-3);
  EXPECT_NEAR(t_critical(120, 0.95), 1.9799, 1e-3);
}

TEST(TCritical, LargeDofApproachesNormal) {
  EXPECT_NEAR(t_critical(500, 0.95), normal_quantile(0.975), 1e-6);
}

TEST(Summarize, ConfidenceIntervalCoversMean) {
  const std::vector<double> xs = {9.8, 10.1, 10.0, 9.9, 10.2};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 5u);
  EXPECT_NEAR(s.mean, 10.0, 1e-12);
  EXPECT_GT(s.half_width, 0.0);
  EXPECT_LT(s.lo(), 10.0);
  EXPECT_GT(s.hi(), 10.0);
}

TEST(Summarize, SinglePointHasZeroWidth) {
  const std::vector<double> xs = {4.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.half_width, 0.0);
  EXPECT_EQ(s.mean, 4.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> xs = {3.0, 1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 2.5);
}

TEST(RelativeError, MatchesDefinition) {
  EXPECT_NEAR(relative_error_pct(1.620, 1.618), 0.1236, 1e-3);
  EXPECT_TRUE(std::isinf(relative_error_pct(1.0, 0.0)));
}

TEST(LogLinearSlope, RecoversGeometricRatio) {
  std::vector<double> ys;
  double v = 2.0;
  for (int i = 0; i < 20; ++i) {
    ys.push_back(v);
    v *= 0.7;
  }
  EXPECT_NEAR(std::exp(log_linear_slope(ys)), 0.7, 1e-9);
}

TEST(LogLinearSlope, StopsAtNonPositiveTail) {
  const std::vector<double> ys = {1.0, 0.5, 0.25, 0.0, 7.0};
  EXPECT_NEAR(std::exp(log_linear_slope(ys)), 0.5, 1e-9);
}

// --- Xoshiro256 --------------------------------------------------------------

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Xoshiro, JumpStreamsDiverge) {
  Xoshiro256 a(99);
  Xoshiro256 b = a.stream(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Xoshiro, StreamIndexingIsConsistent) {
  Xoshiro256 base(7);
  Xoshiro256 s2a = base.stream(2);
  Xoshiro256 s2b = base.stream(1).stream(1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(s2a(), s2b());
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256 g(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = g.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro, UniformMeanIsHalf) {
  Xoshiro256 g(6);
  double acc = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) acc += g.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.005);
}

TEST(Xoshiro, ExponentialHasRequestedMean) {
  Xoshiro256 g(8);
  double acc = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) acc += g.exponential(2.5);
  EXPECT_NEAR(acc / n, 2.5, 0.05);
}

TEST(Xoshiro, BelowIsUnbiased) {
  Xoshiro256 g(9);
  std::vector<int> counts(7, 0);
  const int n = 140000;
  for (int i = 0; i < n; ++i) ++counts[g.below(7)];
  for (int c : counts) EXPECT_NEAR(c, n / 7, n / 7 / 10);
}

TEST(Xoshiro, BelowOneIsAlwaysZero) {
  Xoshiro256 g(10);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(g.below(1), 0u);
}

// --- Table -------------------------------------------------------------------

TEST(Table, AlignsAndPrints) {
  Table t({"a", "long-header"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), LogicError);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(3.14159, 3), "3.142");
  EXPECT_EQ(Table::fmt(2.0, 1), "2.0");
}

// --- Args --------------------------------------------------------------------

TEST(Args, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--alpha=1.5", "--beta=7", "--flag", "pos"};
  Args args(5, argv);
  EXPECT_DOUBLE_EQ(args.get("alpha", 0.0), 1.5);
  EXPECT_EQ(args.get("beta", 0L), 7L);
  EXPECT_TRUE(args.flag("flag"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos");
}

TEST(Args, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  Args args(1, argv);
  EXPECT_DOUBLE_EQ(args.get("nope", 2.5), 2.5);
  EXPECT_EQ(args.get("nope", std::string("x")), "x");
  EXPECT_FALSE(args.flag("nope"));
}

TEST(Args, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--x=abc"};
  Args args(2, argv);
  EXPECT_THROW((void)args.get("x", 0.0), LogicError);
}

TEST(Args, ExplicitFalseFlag) {
  const char* argv[] = {"prog", "--verbose=false"};
  Args args(2, argv);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.flag("verbose"));
}

// --- error macros --------------------------------------------------------------

TEST(Error, AssertThrowsLogicError) {
  EXPECT_THROW(LSM_ASSERT(1 == 2), LogicError);
  EXPECT_NO_THROW(LSM_ASSERT(1 == 1));
}

TEST(Error, ExpectCarriesMessage) {
  try {
    LSM_EXPECT(false, "informative text");
    FAIL() << "should have thrown";
  } catch (const LogicError& e) {
    EXPECT_NE(std::string(e.what()).find("informative text"),
              std::string::npos);
  }
}

TEST(Args, EnumeratesProvidedKeys) {
  const char* argv[] = {"prog", "model", "--T=4", "--json"};
  const Args a(4, argv);
  const auto keys = a.keys();
  ASSERT_EQ(keys.size(), 2u);  // sorted: map order
  EXPECT_EQ(keys[0], "T");
  EXPECT_EQ(keys[1], "json");
}

// --- Json ------------------------------------------------------------------

TEST(Json, CompactDumpPreservesInsertionOrder) {
  auto doc = Json::object();
  doc["b"] = 1;
  doc["a"] = true;
  doc["c"] = "x";
  EXPECT_EQ(doc.dump(), R"({"b":1,"a":true,"c":"x"})");
}

TEST(Json, ScalarsAndNesting) {
  auto doc = Json::object();
  doc["null"] = Json();
  doc["int"] = -7;
  doc["size"] = std::size_t{42};
  auto arr = Json::array();
  arr.push_back(1.5);
  arr.push_back(false);
  doc["arr"] = std::move(arr);
  EXPECT_EQ(doc.dump(), R"({"null":null,"int":-7,"size":42,"arr":[1.5,false]})");
  EXPECT_TRUE(doc.contains("arr"));
  EXPECT_FALSE(doc.contains("missing"));
}

TEST(Json, StringsAreEscaped) {
  auto doc = Json::object();
  doc["s"] = std::string("a\"b\\c\n\t") + '\x01';
  EXPECT_EQ(doc.dump(), "{\"s\":\"a\\\"b\\\\c\\n\\t\\u0001\"}");
}

TEST(Json, DoublesRoundTripShortest) {
  // Shortest-form to_chars output parses back to the identical bits.
  for (const double v : {0.1, 1.0 / 3.0, 1e-300, 12345.6789, -0.0}) {
    const std::string s = Json::number_to_string(v);
    EXPECT_EQ(std::stod(s), v) << s;
    EXPECT_EQ(s.find('E'), std::string::npos) << s;
  }
  EXPECT_EQ(Json::number_to_string(2.0), "2");
}

TEST(Json, IndentedDump) {
  auto doc = Json::object();
  doc["k"] = 1;
  EXPECT_EQ(doc.dump(2), "{\n  \"k\": 1\n}");
  EXPECT_EQ(Json::array().dump(2), "[]");
  EXPECT_EQ(Json::object().dump(2), "{}");
}

// --- Json::parse -----------------------------------------------------------

TEST(JsonParse, ScalarsAndContainers) {
  const Json doc = Json::parse(
      R"(  {"a": 1, "b": -2.5, "c": [true, false, null], "s": "hi"} )");
  EXPECT_EQ(doc.at("a").as_int(), 1);
  EXPECT_DOUBLE_EQ(doc.at("b").as_double(), -2.5);
  EXPECT_DOUBLE_EQ(doc.at("a").as_double(), 1.0);  // Int widens to double
  ASSERT_EQ(doc.at("c").size(), 3u);
  EXPECT_TRUE(doc.at("c").item(0).as_bool());
  EXPECT_FALSE(doc.at("c").item(1).as_bool());
  EXPECT_TRUE(doc.at("c").item(2).is_null());
  EXPECT_EQ(doc.at("s").as_string(), "hi");
}

TEST(JsonParse, RoundTripsWriterOutput) {
  auto doc = Json::object();
  doc["grid"] = Json::array();
  for (const double v : {0.1, 1.0 / 3.0, 1e-300, 12345.6789}) {
    doc["grid"].push_back(v);
  }
  doc["name"] = "sweep \"x\"\n\ttab";
  doc["n"] = std::int64_t{-9007199254740993};
  const Json back = Json::parse(doc.dump());
  EXPECT_EQ(back.dump(), doc.dump());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(back.at("grid").item(i).as_double(),
              doc.at("grid").item(i).as_double());
  }
}

TEST(JsonParse, StringEscapes) {
  const Json doc = Json::parse(R"({"s": "a\"b\\c\/\n\t\u0041\u00e9"})");
  EXPECT_EQ(doc.at("s").as_string(), "a\"b\\c/\n\tA\xc3\xa9");
  // Surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(Json::parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonParse, DuplicateKeysLastWriteWins) {
  EXPECT_EQ(Json::parse(R"({"k": 1, "k": 2})").at("k").as_int(), 2);
}

TEST(JsonParse, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "01x", "1 2",
        "\"unterminated", "{\"a\":1,}", "[1 2]", "nan", "+1", "1.",
        "1e", "\"bad \\q escape\"", "\"\\ud83d\"", "{1: 2}"}) {
    EXPECT_THROW((void)Json::parse(bad), Error) << bad;
  }
}

TEST(JsonParse, RejectsDeepNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW((void)Json::parse(deep), Error);
  std::string ok(50, '[');
  ok += std::string(50, ']');
  EXPECT_NO_THROW((void)Json::parse(ok));
}

TEST(JsonParse, AccessorsRejectWrongTypes) {
  const Json doc = Json::parse(R"({"n": 1.5, "s": "x", "a": [1]})");
  EXPECT_THROW((void)doc.at("s").as_double(), Error);
  EXPECT_THROW((void)doc.at("n").as_int(), Error);  // non-integral double
  EXPECT_THROW((void)doc.at("n").as_string(), Error);
  EXPECT_THROW((void)doc.at("a").item(1), Error);
  EXPECT_THROW((void)doc.at("missing"), Error);
  EXPECT_EQ(doc.members().size(), 3u);
  EXPECT_EQ(doc.at("a").members().size(), 0u);
}

}  // namespace
