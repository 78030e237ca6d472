#include "bench/diff.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench/json_view.h"

namespace acs::bench {
namespace {

json::Value parse(const std::string& text) {
  return json::Parser(text).parse();
}

// --- flattening -----------------------------------------------------------

TEST(BenchDiff, FlattensNestedNumericLeaves) {
  const auto leaves = flatten_numeric_leaves(parse(
      R"({"a": 1, "b": {"c": 2, "d": {"e": 3}}, "s": "skip", "t": true})"));
  ASSERT_EQ(leaves.size(), 3U);
  EXPECT_EQ(leaves.at("a"), 1);
  EXPECT_EQ(leaves.at("b.c"), 2);
  EXPECT_EQ(leaves.at("b.d.e"), 3);
}

TEST(BenchDiff, MetricsArraysKeyByNameNotIndex) {
  // Reordering the named records must not change the flattened keys.
  const auto a = flatten_numeric_leaves(parse(
      R"({"metrics": [{"name": "x", "value": 1}, {"name": "y", "value": 2}]})"));
  const auto b = flatten_numeric_leaves(parse(
      R"({"metrics": [{"name": "y", "value": 2}, {"name": "x", "value": 1}]})"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.at("metrics.x.value"), 1);
  // Plain arrays still key by index.
  const auto c = flatten_numeric_leaves(parse(R"({"edges": [10, 20]})"));
  EXPECT_EQ(c.at("edges.[0]"), 10);
  EXPECT_EQ(c.at("edges.[1]"), 20);
}

// --- comparison -----------------------------------------------------------

TEST(BenchDiff, WithinThresholdPasses) {
  const auto result = diff_documents(parse(R"({"p99": 100, "count": 7})"),
                                     parse(R"({"p99": 105, "count": 7})"),
                                     DiffOptions{.threshold = 0.10});
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.compared, 2U);
}

TEST(BenchDiff, RegressionBeyondThresholdIsFlaggedBothDirections) {
  const DiffOptions options{.threshold = 0.10};
  const auto worse = diff_documents(parse(R"({"p99": 100})"),
                                    parse(R"({"p99": 200})"), options);
  ASSERT_EQ(worse.regressions.size(), 1U);
  EXPECT_EQ(worse.regressions[0].key, "p99");
  EXPECT_EQ(worse.regressions[0].relative_change, 0.5);
  // A metric collapsing is just as suspicious as one exploding.
  const auto collapsed = diff_documents(parse(R"({"p99": 100})"),
                                        parse(R"({"p99": 1})"), options);
  EXPECT_FALSE(collapsed.ok());
}

TEST(BenchDiff, MissingBaselineKeyIsAlwaysARegression) {
  const auto result =
      diff_documents(parse(R"({"p99": 100, "p50": 10})"),
                     parse(R"({"p50": 10})"), DiffOptions{.threshold = 0.99});
  ASSERT_EQ(result.regressions.size(), 1U);
  EXPECT_TRUE(result.regressions[0].missing);
  EXPECT_EQ(result.regressions[0].key, "p99");
}

TEST(BenchDiff, AddedKeysAndHostTimingAreNotRegressions) {
  const auto result = diff_documents(
      parse(R"({"wall_seconds": 1.0, "threads": 8, "obs": {"threads": 8}})"),
      parse(
          R"({"wall_seconds": 99.0, "threads": 1, "obs": {"threads": 1}, "new_key": 5})"),
      DiffOptions{.threshold = 0.10});
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.compared, 0U);
  EXPECT_EQ(result.ignored, 3U);
  EXPECT_EQ(result.added, 1U);
}

TEST(BenchDiff, ZeroBaselineIsHandled) {
  // 0 -> 0 passes; 0 -> anything is a 100% relative change.
  EXPECT_TRUE(diff_documents(parse(R"({"restarts": 0})"),
                             parse(R"({"restarts": 0})"),
                             DiffOptions{.threshold = 0.10})
                  .ok());
  EXPECT_FALSE(diff_documents(parse(R"({"restarts": 0})"),
                              parse(R"({"restarts": 3})"),
                              DiffOptions{.threshold = 0.10})
                   .ok());
}

// --- non-finite leaves (NaN/Inf input hygiene) ----------------------------

TEST(BenchDiff, ParserAcceptsPrintfNonFiniteTokens) {
  // printf("%.17g") renders poisoned doubles as bare nan/inf; the parser
  // must represent them (so tools can reject them by path) rather than
  // dying with a generic syntax error.
  const json::Value root =
      parse(R"({"a": nan, "b": inf, "c": -inf, "d": -nan, "e": 1.5})");
  const json::Object& top = *root.object();
  EXPECT_TRUE(std::isnan(json::find(top, "a")->number()));
  EXPECT_TRUE(std::isinf(json::find(top, "b")->number()));
  EXPECT_TRUE(std::isinf(json::find(top, "c")->number()));
  EXPECT_LT(json::find(top, "c")->number(), 0);
  EXPECT_TRUE(std::isnan(json::find(top, "d")->number()));
  EXPECT_EQ(json::find(top, "e")->number(), 1.5);
}

TEST(BenchDiff, FirstNonfiniteLeafReportsTheDottedPath) {
  EXPECT_EQ(first_nonfinite_leaf(parse(R"({"a": 1, "b": {"c": 2}})")), "");
  EXPECT_EQ(first_nonfinite_leaf(
                parse(R"({"a": 1, "b": {"c": nan}, "d": 3})")),
            "b.c");
  EXPECT_EQ(first_nonfinite_leaf(parse(
                R"({"metrics": [{"name": "x", "value": inf}]})")),
            "metrics.x.value");
}

TEST(BenchDiff, NonFiniteComparisonIsAlwaysARegression) {
  // NaN > threshold is false for every threshold — without an explicit
  // check a poisoned trajectory would diff "clean". All four pairings
  // must flag, including NaN-vs-NaN (NaN != NaN makes it compare equal
  // under a naive relative-change formula).
  const DiffOptions options{.threshold = 0.5};
  for (const char* current :
       {R"({"p99": nan})", R"({"p99": inf})", R"({"p99": -inf})"}) {
    EXPECT_FALSE(
        diff_documents(parse(R"({"p99": 100})"), parse(current), options).ok())
        << current;
    EXPECT_FALSE(
        diff_documents(parse(current), parse(R"({"p99": 100})"), options).ok())
        << current;
  }
  EXPECT_FALSE(diff_documents(parse(R"({"p99": nan})"),
                              parse(R"({"p99": nan})"), options)
                   .ok());
}

TEST(BenchDiff, VerdictJsonIsMachineReadable) {
  const auto result = diff_documents(parse(R"({"p99": 100})"),
                                     parse(R"({"p99": 200})"),
                                     DiffOptions{.threshold = 0.10});
  const std::string verdict = verdict_json(result, DiffOptions{});
  // The verdict document must itself parse as JSON.
  const json::Value root = parse(verdict);
  const json::Object* top = root.object();
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(json::find(*top, "verdict")->string(), "regression");
  const json::Array* regressions = json::find(*top, "regressions")->array();
  ASSERT_NE(regressions, nullptr);
  ASSERT_EQ(regressions->size(), 1U);
  EXPECT_EQ(json::find(*(*regressions)[0].object(), "key")->string(), "p99");
}

// --- file driver + exit codes (the CI gate contract) ----------------------

class DiffFilesTest : public ::testing::Test {
 protected:
  std::string write_temp(const char* name, const std::string& body) {
    const std::string path =
        ::testing::TempDir() + "acs_diff_test_" + name + ".json";
    std::ofstream file(path, std::ios::trunc);
    file << body;
    return path;
  }
};

TEST_F(DiffFilesTest, ExitCodesCoverOkRegressionAndError) {
  const std::string base = write_temp("base", R"({"p99": 100})");
  const std::string same = write_temp("same", R"({"p99": 101})");
  const std::string regressed = write_temp("regressed", R"({"p99": 900})");
  const std::string malformed = write_temp("malformed", R"({"p99": )");

  std::string out;
  EXPECT_EQ(diff_files(base, same, DiffOptions{.threshold = 0.10}, &out), 0);
  EXPECT_NE(out.find("\"verdict\": \"ok\""), std::string::npos);
  EXPECT_EQ(diff_files(base, regressed, DiffOptions{.threshold = 0.10}, &out),
            1);
  EXPECT_NE(out.find("\"verdict\": \"regression\""), std::string::npos);
  EXPECT_EQ(diff_files(base, malformed, DiffOptions{}, &out), 2);
  EXPECT_NE(out.find("parse error"), std::string::npos);
  EXPECT_EQ(diff_files(base, base + ".does-not-exist", DiffOptions{}, &out),
            2);
}

TEST_F(DiffFilesTest, NonFiniteInputIsRefusedWithADistinctDiagnostic) {
  // Exit 2 (unusable input), not exit 1 (regression): a NaN baseline is
  // not a baseline. The diagnostic names the poisoned path so the caller
  // can find the producing bench, and is distinct from a parse error.
  const std::string clean = write_temp("nf_clean", R"({"p99": 100})");
  const std::string poisoned = write_temp(
      "nf_poisoned", R"({"serving": {"latency": {"p999": nan}}, "p99": 100})");

  std::string out;
  EXPECT_EQ(diff_files(poisoned, clean, DiffOptions{}, &out), 2);
  EXPECT_NE(out.find("non-finite"), std::string::npos) << out;
  EXPECT_NE(out.find("serving.latency.p999"), std::string::npos) << out;
  EXPECT_EQ(out.find("parse error"), std::string::npos) << out;

  // Either side poisoned refuses; the candidate too.
  EXPECT_EQ(diff_files(clean, poisoned, DiffOptions{}, &out), 2);
  EXPECT_NE(out.find("non-finite"), std::string::npos) << out;
}

TEST_F(DiffFilesTest, SyntheticRegressionDiesNonZero) {
  // The CI gate is `acs-bench-diff && ...`: an injected regression must
  // terminate the process with a non-zero exit code. Death-test the
  // process-level contract, not just the return value.
  const std::string base =
      write_temp("death_base", R"({"serving": {"latency": {"p999": 54271}}})");
  const std::string regressed = write_temp(
      "death_regressed", R"({"serving": {"latency": {"p999": 5427100}}})");
  EXPECT_EXIT(
      {
        std::string out;
        std::exit(
            diff_files(base, regressed, DiffOptions{.threshold = 0.5}, &out));
      },
      ::testing::ExitedWithCode(1), "");
  EXPECT_EXIT(
      {
        std::string out;
        std::exit(diff_files(base, base, DiffOptions{.threshold = 0.5}, &out));
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace acs::bench
