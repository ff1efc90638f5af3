#include "harness/batch_runner.h"

#include <iterator>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

// The bench-JSON emitted next to BENCH_*.json must carry the
// budget-vs-bound curve, not just the per-experiment aggregates: one
// `loadtest/<name>/target=<B>` row per distinct per-request target bound,
// so `tools/bench_diff.py --metric` can gate curve points between runs.
namespace smb::harness {
namespace {

ExperimentResult MakeResult() {
  ExperimentResult result;
  result.name = "exp";
  result.repo_schemas = 100;
  result.policy = "target";
  result.build_seconds = 0.5;
  eval::LoadReplayReport& r = result.report;
  r.requests = 10;
  r.ok = 10;
  r.cache_hits = 4;
  r.wall_seconds = 2.0;
  r.throughput_rps = 5.0;
  r.cache_hit_rate = 0.4;
  r.latency_ms.count = 10;
  r.latency_ms.mean = 3.0;
  r.latency_ms.p50 = 2.0;
  r.latency_ms.p95 = 7.0;
  r.latency_ms.p99 = 9.0;

  eval::TargetMixStats def;
  def.target_bound = 0.0;
  def.requests = 6;
  def.ok = 6;
  def.mean_certified = 0.91;
  def.latency_ms.p50 = 2.0;
  eval::TargetMixStats high;
  high.target_bound = 0.95;
  high.requests = 4;
  high.ok = 4;
  high.shed = 1;
  high.mean_certified = 0.93;
  high.mean_budget = 128.0;
  high.budget_samples = 3;
  high.latency_ms.mean = 4.0;
  high.latency_ms.p50 = 3.0;
  high.latency_ms.p95 = 8.0;
  high.latency_ms.p99 = 9.5;
  r.per_target = {def, high};
  return result;
}

TEST(FormatBatchBenchJsonTest, EmitsAggregateAndPerTargetCurveRows) {
  const std::string json = FormatBatchBenchJson({MakeResult()});
  // The aggregate row and one curve row per distinct target bound.
  EXPECT_NE(json.find("\"name\": \"loadtest/exp\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\": \"loadtest/exp/target=0\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\": \"loadtest/exp/target=0.95\""),
            std::string::npos)
      << json;
  // Curve rows carry the per-mix certificate and budget counters.
  EXPECT_NE(json.find("\"mean_certified\": 0.93"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mean_budget\": 128"), std::string::npos) << json;
  EXPECT_NE(json.find("\"budget_samples\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"target_bound\": 0.95"), std::string::npos) << json;
  // Aggregate counters stay on the experiment row.
  EXPECT_NE(json.find("\"cache_hit_rate\": 0.4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"throughput_rps\": 5"), std::string::npos) << json;
}

TEST(FormatBatchBenchJsonTest, RowsAreCommaSeparatedValidJson) {
  const std::string json = FormatBatchBenchJson({MakeResult(), MakeResult()});
  // Every row but the last must be followed by a comma: count row-object
  // closers; with 2 experiments x (1 aggregate + 2 curve rows) there are
  // 6 rows, so 5 separators.
  // (row closers are indented 4 spaces; the context block's closer is
  // indented 2, so it does not match).
  size_t separators = 0;
  for (size_t pos = json.find("    },\n"); pos != std::string::npos;
       pos = json.find("    },\n", pos + 1)) {
    ++separators;
  }
  EXPECT_EQ(separators, 5u) << json;
  // The final row closes without a trailing comma before the array end.
  EXPECT_NE(json.find("}\n  ]\n}\n"), std::string::npos) << json;
}

/// Runs a one-experiment batch that must fail before any repository is
/// built; returns its status.
Status RunInvalid(const std::map<std::string, std::string>& params) {
  eval::ExperimentBatch batch;
  eval::ExperimentSpec spec;
  spec.name = "bad";
  spec.params = params;
  batch.experiments.push_back(spec);
  BatchRunOptions options;
  options.work_dir = ::testing::TempDir() + "/batch_runner_invalid";
  return RunExperimentBatch(batch, options).status();
}

TEST(RunExperimentBatchTest, PolicyIsDerivedNotAKey) {
  const Status status = RunInvalid({{"policy", "target"},
                                    {"target_bound", "0.9"}});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  EXPECT_NE(status.message().find("unknown key 'policy'"), std::string::npos)
      << status;
}

TEST(RunExperimentBatchTest, ServiceKeysAreCheckedLikeServeFlags) {
  // A bound-driven experiment with a fixed budget used to drop the
  // budget silently; serve rejects the pair, and so does the batch now.
  Status status = RunInvalid({{"candidates", "8"}, {"target_bound", "0.9"}});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  status = RunInvalid({{"min_target", "0.5"}});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  // Per-request targets need a bound-driven service.
  status = RunInvalid({{"target_mix", "0.9"}});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
}

TEST(ExperimentFromCommandLineTest, TranslatesServiceAndWorkloadFlags) {
  const char* argv[] = {"matchbounds", "loadtest", "--label=x",
                        "--schemas=100", "--replay-threads=2", "--threads=3",
                        "--target-bound=0.9", "--open-loop", "--beam=2"};
  const CommandLine cl =
      CommandLine::Parse(static_cast<int>(std::size(argv)), argv).value();
  const eval::ExperimentSpec spec = ExperimentFromCommandLine(cl);
  EXPECT_EQ(spec.name, "x");
  const std::map<std::string, std::string> expected = {
      {"repo_schemas", "100"}, {"threads", "2"}, {"engine_threads", "3"},
      {"target_bound", "0.9"}, {"open_loop", "1"}};
  // --beam has no batch key: it stays a command-line-only setting.
  EXPECT_EQ(spec.params, expected);
}

}  // namespace
}  // namespace smb::harness
