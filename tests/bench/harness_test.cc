#include "bench/harness.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace acs::bench {
namespace {

/// argv helper for parse_bench_args death/parse tests.
struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    pointers.push_back(program.data());
    for (auto& s : strings) pointers.push_back(s.data());
  }
  [[nodiscard]] int argc() { return static_cast<int>(pointers.size()); }
  [[nodiscard]] char** argv() { return pointers.data(); }

  std::string program = "bench_test";
  std::vector<std::string> strings;
  std::vector<char*> pointers;
};

TEST(ParseBenchArgs, ParsesUniformFlags) {
  Argv args({"--threads=3", "--smoke", "--json=/tmp/x.json"});
  const BenchOptions options =
      parse_bench_args(args.argc(), args.argv(), "bench_test");
  EXPECT_EQ(options.threads, 3u);
  EXPECT_TRUE(options.smoke);
  EXPECT_EQ(options.json_path, "/tmp/x.json");
}

TEST(ParseBenchArgsDeathTest, UnknownFlagFailsLoudly) {
  Argv args({"--frobnicate"});
  EXPECT_EXIT(parse_bench_args(args.argc(), args.argv(), "bench_test"),
              ::testing::ExitedWithCode(2), "unknown flag '--frobnicate'");
}

TEST(ParseBenchArgsDeathTest, TypoedValueFlagFailsLoudly) {
  Argv args({"--threds=4"});
  EXPECT_EXIT(parse_bench_args(args.argc(), args.argv(), "bench_test"),
              ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(ParseBenchArgsDeathTest, MissingValueFailsLoudly) {
  Argv args({"--json"});
  EXPECT_EXIT(parse_bench_args(args.argc(), args.argv(), "bench_test"),
              ::testing::ExitedWithCode(2), "--json requires a value");
}

TEST(ParseBenchArgsDeathTest, ObsFlagsRejectedWithoutObsSupport) {
  Argv trace({"--trace=/tmp/t.json"});
  EXPECT_EXIT(parse_bench_args(trace.argc(), trace.argv(), "bench_test"),
              ::testing::ExitedWithCode(2),
              "--trace is not supported by this bench");
  Argv profile({"--profile=/tmp/p.folded"});
  EXPECT_EXIT(parse_bench_args(profile.argc(), profile.argv(), "bench_test"),
              ::testing::ExitedWithCode(2),
              "--profile is not supported by this bench");
}

TEST(ParseBenchArgs, ObsFlagsParseWhenSupported) {
  Argv args({"--trace=/tmp/t.json", "--profile", "/tmp/p.folded"});
  const BenchOptions options =
      parse_bench_args(args.argc(), args.argv(), "bench_test",
                       /*extra_usage=*/nullptr, /*obs_flags=*/true);
  EXPECT_EQ(options.trace_path, "/tmp/t.json");
  EXPECT_EQ(options.profile_path, "/tmp/p.folded");
}

TEST(ToJson, EmitsEveryRequiredKey) {
  BenchOptions options;
  options.threads = 4;
  options.smoke = true;
  const std::vector<Metric> metrics = {
      {.name = "rate", .value = 0.25, .units = "probability", .trials = 1000,
       .stddev = 0.5},
  };
  const std::string json = to_json("bench_x", options, 42, metrics, 1.5);
  for (const char* needle :
       {"\"bench\": \"bench_x\"", "\"schema_version\": 1", "\"threads\": 4",
        "\"seed\": 42", "\"smoke\": true", "\"wall_seconds\": 1.5",
        "\"name\": \"rate\"", "\"value\": 0.25",
        "\"units\": \"probability\"", "\"trials\": 1000",
        "\"stddev\": 0.5"}) {
    EXPECT_NE(json.find(needle), std::string::npos)
        << "missing " << needle << " in:\n" << json;
  }
}

TEST(ToJson, EmptyMetricsIsAnEmptyArray) {
  const std::string json = to_json("b", BenchOptions{}, 0, {}, 0.0);
  EXPECT_NE(json.find("\"metrics\": []"), std::string::npos) << json;
  EXPECT_NE(json.find("\"smoke\": false"), std::string::npos) << json;
}

TEST(ToJson, EscapesStrings) {
  const std::vector<Metric> metrics = {
      {.name = "quote\"back\\slash", .value = 1.0, .units = "new\nline"},
  };
  const std::string json = to_json("b", BenchOptions{}, 0, metrics, 0.0);
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos) << json;
  EXPECT_NE(json.find("new\\nline"), std::string::npos) << json;
  EXPECT_EQ(json.find("new\nline"), std::string::npos) << json;
}

TEST(ToJson, DoublesRoundTrip) {
  const std::vector<Metric> metrics = {
      {.name = "m", .value = 1.0 / 3.0, .units = "u"},
  };
  const std::string json = to_json("b", BenchOptions{}, 0, metrics, 0.0);
  const auto pos = json.find("\"value\": ");
  ASSERT_NE(pos, std::string::npos);
  const double parsed = std::stod(json.substr(pos + 9));
  EXPECT_EQ(parsed, 1.0 / 3.0);  // %.17g must round-trip exactly
}

TEST(ToJson, ObsSectionAppearsOnlyWhenProvided) {
  obs::Metrics obs_metrics;
  obs_metrics.add("pa.sign", 7);
  obs_metrics.observe("chain.depth", {1, 2}, 2);

  const std::string with =
      to_json("b", BenchOptions{}, 0, {}, 0.0, &obs_metrics);
  EXPECT_NE(with.find("\"obs\": {"), std::string::npos) << with;
  EXPECT_NE(with.find("\"pa.sign\": 7"), std::string::npos) << with;
  EXPECT_NE(with.find("\"edges\": [1, 2]"), std::string::npos) << with;

  const std::string without = to_json("b", BenchOptions{}, 0, {}, 0.0);
  EXPECT_EQ(without.find("\"obs\""), std::string::npos) << without;
}

TEST(JsonObject, KeepsInsertionOrderAndEncodesEachValueKind) {
  const std::map<std::string, u64> counters = {{"b", 2}, {"a", 1}};
  const std::string json =
      JsonObject()
          .add("zeta", u64{18446744073709551615ULL})
          .add("alpha", 1.0 / 3.0)
          .add("tag", std::string("q\"uote"))
          .add("counters", counters)
          .to_json();
  EXPECT_EQ(json,
            "{\n  \"zeta\": 18446744073709551615,\n"
            "  \"alpha\": 0.33333333333333331,\n  \"tag\": \"q\\\"uote\",\n"
            "  \"counters\": {\"a\": 1, \"b\": 2}\n}");
}

TEST(JsonObject, NestedObjectsPrintOneMemberPerLine) {
  const std::map<std::string, JsonObject> entries = {
      {"x/y", JsonObject().add("cycles", u64{7})}};
  const std::string json =
      JsonObject().add("runs", u64{1}).add("entries", entries).to_json(2);
  EXPECT_EQ(json,
            "{\n    \"runs\": 1,\n    \"entries\": {\n      "
            "\"x/y\": {\"cycles\": 7}\n    }\n  }");
  EXPECT_EQ(JsonObject().to_json(), "{}");
}

TEST(ToJson, SectionsFollowObsInOrder) {
  obs::Metrics obs_metrics;
  obs_metrics.add("pa.sign", 7);
  const std::string json = to_json(
      "b", BenchOptions{}, 0, {}, 0.0, &obs_metrics,
      {{"topology", JsonObject().add("requests", u64{3})},
       {"faults", JsonObject().add("restarts", u64{2})}});
  const auto obs = json.find("\"obs\": {");
  const auto topology = json.find("\"topology\": {\"requests\": 3},");
  const auto faults = json.find("\"faults\": {\"restarts\": 2},");
  const auto metrics = json.find("\"metrics\": [");
  ASSERT_NE(faults, std::string::npos) << json;
  EXPECT_LT(obs, topology);
  EXPECT_LT(topology, faults);
  EXPECT_LT(faults, metrics);
}

TEST(BenchReporter, SetSectionReplacesASectionOfTheSameName) {
  const std::string path = ::testing::TempDir() + "/acs_harness_section.json";
  std::remove(path.c_str());
  BenchOptions options;
  options.json_path = path;
  BenchReporter reporter("bench_unit", options, 7);
  reporter.set_section("lint", JsonObject().add("programs", u64{1}));
  reporter.set_section("lint", JsonObject().add("programs", u64{2}));
  ASSERT_TRUE(reporter.finish());

  std::ifstream file(path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  EXPECT_EQ(buffer.str().find("\"programs\": 1"), std::string::npos);
  EXPECT_NE(buffer.str().find("\"lint\": {\"programs\": 2}"),
            std::string::npos)
      << buffer.str();
  std::remove(path.c_str());
}

TEST(BenchReporter, SetObsMetricsReachesTheJsonFile) {
  const std::string path = ::testing::TempDir() + "/acs_harness_obs.json";
  std::remove(path.c_str());
  BenchOptions options;
  options.json_path = path;
  BenchReporter reporter("bench_unit", options, 7);
  obs::Metrics obs_metrics;
  obs_metrics.add("chain.push", 11);
  reporter.set_obs_metrics(std::move(obs_metrics));
  ASSERT_TRUE(reporter.finish());

  std::ifstream file(path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  EXPECT_NE(buffer.str().find("\"chain.push\": 11"), std::string::npos);
  std::remove(path.c_str());
}

TEST(WriteFile, ReportsFailureForUnwritablePath) {
  EXPECT_FALSE(write_file("/nonexistent-dir-for-acs-test/x", "body", "ctx"));
  const std::string path = ::testing::TempDir() + "/acs_write_file.txt";
  EXPECT_TRUE(write_file(path, "body", "ctx"));
  std::remove(path.c_str());
}

TEST(BenchReporter, WritesFileOnFinish) {
  const std::string path =
      ::testing::TempDir() + "/acs_harness_test_out.json";
  std::remove(path.c_str());
  BenchOptions options;
  options.json_path = path;
  BenchReporter reporter("bench_unit", options, 7);
  reporter.record("alpha", 3.5, "units", 10, 0.25);
  reporter.record("beta", -1.0, "cycles");
  ASSERT_TRUE(reporter.finish());

  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string body = buffer.str();
  EXPECT_NE(body.find("\"bench\": \"bench_unit\""), std::string::npos);
  EXPECT_NE(body.find("\"alpha\""), std::string::npos);
  EXPECT_NE(body.find("\"beta\""), std::string::npos);
  EXPECT_NE(body.find("\"wall_seconds\": "), std::string::npos);
  std::remove(path.c_str());
}

TEST(BenchReporter, NoJsonPathWritesNothingAndSucceeds) {
  BenchReporter reporter("bench_unit", BenchOptions{}, 0);
  reporter.record("metric", 1.0, "u");
  EXPECT_TRUE(reporter.finish());
  EXPECT_EQ(reporter.metrics().size(), 1U);
}

TEST(BenchReporter, UnwritablePathFails) {
  BenchOptions options;
  options.json_path = "/nonexistent-dir-for-acs-test/out.json";
  BenchReporter reporter("bench_unit", options, 0);
  EXPECT_FALSE(reporter.finish());
}

}  // namespace
}  // namespace acs::bench
