#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_cache.h"
#include "eval/load_harness.h"
#include "eval/trace.h"
#include "harness/trace_executor.h"
#include "io/csv.h"
#include "schema/text_format.h"
#include "serve/match_service.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/serving_index.h"
#include "serve/socket_io.h"
#include "../testing/fixtures.h"

// End-to-end harness integration: one workload trace replayed twice over
// the same repository — offline through `InProcessTraceExecutor` (the
// ground-truth path) and live through `LiveTraceExecutor` against a real
// loopback `MatchServer` — must produce byte-identical answer files and
// outcome-identical reports, and the live report's counters must
// reconcile with the server's own `stats` line.
namespace smb::harness {
namespace {

using smb::testing::MakeQuery;
using smb::testing::MakeRepo;

std::string FreshDir(const std::string& leaf) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Writes the two trace query files into `dir`: the shared fixtures query
/// and a second, structurally different one.
void WriteQueryFiles(const std::string& dir) {
  ASSERT_TRUE(io::WriteTextFile(dir + "/q0.txt",
                                schema::WriteSchemaText(MakeQuery()))
                  .ok());
  schema::Schema second("query-2");
  auto root = second.AddRoot("shop").value();
  auto purchase = second.AddChild(root, "purchase").value();
  second.AddChild(purchase, "client").value();
  ASSERT_TRUE(io::WriteTextFile(dir + "/q1.txt",
                                schema::WriteSchemaText(second))
                  .ok());
}

/// A trace over the two query files: Zipf-ish repetition is irrelevant
/// here, what matters is covering both queries, both classes, and both
/// "server default" and explicit per-request target bounds.
eval::WorkloadTrace MakeTrace(size_t num_requests) {
  eval::WorkloadTrace trace;
  trace.seed = 3;
  trace.query_files = {"q0.txt", "q1.txt"};
  trace.classes = {"default", "interactive"};
  for (size_t i = 0; i < num_requests; ++i) {
    eval::TraceRequest request;
    request.query_index = static_cast<uint32_t>(i % 2);
    request.arrival_us = static_cast<uint64_t>(i);
    request.class_index = static_cast<uint16_t>(i % 3 == 0 ? 1 : 0);
    if (i % 2 == 1) request.target_bound = 0.9;
    trace.requests.push_back(request);
  }
  return trace;
}

/// One service + server over the fixtures repository in bound-driven
/// (adaptive) mode, mirroring `matchbounds serve --target-bound`.
class LiveFixture {
 public:
  LiveFixture() {
    auto index = serve::BuildServingIndex(MakeRepo(),
                                          serve::ServingIndexOptions{},
                                          /*generation=*/1);
    EXPECT_TRUE(index.ok()) << index.status();
    cache_ = std::make_unique<engine::QueryResultCache>(16);
    serve::MatchServiceConfig config;
    config.engine_options.num_threads = 1;
    index::AdaptiveCandidatePolicy policy;
    policy.min_provable_completeness = 0.9;
    config.engine_options.adaptive = policy;
    config.cache = cache_.get();
    config.shed.base_target = 0.9;
    config.shed.min_target = 0.8;
    service_ = std::make_unique<serve::MatchService>(*index,
                                                     std::move(config));
    serve::MatchServerConfig server_config;
    server_config.workers = 2;
    server_config.queue_depth = 64;
    server_ = std::make_unique<serve::MatchServer>(service_.get(),
                                                   server_config);
    Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started;
  }

  serve::MatchService& service() { return *service_; }
  uint16_t port() const { return server_->port(); }

  /// Round-trips one `stats` request on a fresh connection.
  std::map<std::string, std::string> Stats() {
    auto socket = serve::ConnectTo("127.0.0.1", port());
    EXPECT_TRUE(socket.ok()) << socket.status();
    serve::Socket connection = *std::move(socket);
    serve::LineReader reader(&connection);
    EXPECT_TRUE(serve::WriteAll(connection, "stats\n").ok());
    std::string line;
    auto more = reader.ReadLine(&line);
    EXPECT_TRUE(more.ok() && *more) << "no stats line";
    EXPECT_EQ(line.rfind("stats ", 0), 0u) << line;
    return serve::ParseResponseFields(line);
  }

 private:
  std::unique_ptr<engine::QueryResultCache> cache_;
  std::unique_ptr<serve::MatchService> service_;
  std::unique_ptr<serve::MatchServer> server_;
};

/// An independent in-process service over the same repository and policy
/// — deliberately NOT the live server's service, so the offline replay
/// has its own cold cache and the comparison is between two genuinely
/// separate answering paths.
class OfflineFixture {
 public:
  OfflineFixture() {
    auto index = serve::BuildServingIndex(MakeRepo(),
                                          serve::ServingIndexOptions{},
                                          /*generation=*/1);
    EXPECT_TRUE(index.ok()) << index.status();
    cache_ = std::make_unique<engine::QueryResultCache>(16);
    serve::MatchServiceConfig config;
    config.engine_options.num_threads = 1;
    index::AdaptiveCandidatePolicy policy;
    policy.min_provable_completeness = 0.9;
    config.engine_options.adaptive = policy;
    config.cache = cache_.get();
    config.shed.base_target = 0.9;
    config.shed.min_target = 0.8;
    service_ = std::make_unique<serve::MatchService>(*index,
                                                     std::move(config));
  }

  serve::MatchService& service() { return *service_; }

 private:
  std::unique_ptr<engine::QueryResultCache> cache_;
  std::unique_ptr<serve::MatchService> service_;
};

eval::ReplayOptions ClosedLoop(size_t threads) {
  eval::ReplayOptions options;
  options.num_threads = threads;
  options.open_loop = false;
  return options;
}

TEST(LoadHarnessIntegrationTest, LiveReplayIsByteIdenticalToOffline) {
  const std::string query_dir = FreshDir("harness_queries");
  WriteQueryFiles(query_dir);
  const eval::WorkloadTrace trace = MakeTrace(24);

  // Offline ground truth: direct MatchService execution at pressure 0.
  const std::string offline_answers = FreshDir("harness_offline");
  OfflineFixture offline;
  InProcessTraceExecutor offline_executor(
      &offline.service(),
      ResolveTraceBindings(trace, query_dir, offline_answers));
  auto offline_report =
      eval::ReplayTrace(trace, &offline_executor, ClosedLoop(2));
  ASSERT_TRUE(offline_report.ok()) << offline_report.status();
  ASSERT_EQ(offline_report->errors, 0u)
      << offline_report->outcomes[0].error;

  // Live replay: same trace, same bindings shape, over real sockets.
  const std::string live_answers = FreshDir("harness_live");
  LiveFixture live;
  LiveTraceExecutor live_executor(
      "127.0.0.1", live.port(),
      ResolveTraceBindings(trace, query_dir, live_answers));
  auto live_report = eval::ReplayTrace(trace, &live_executor, ClosedLoop(2));
  ASSERT_TRUE(live_report.ok()) << live_report.status();
  ASSERT_EQ(live_report->errors, 0u) << live_report->outcomes[0].error;

  // Outcome-identical: per request, both paths certify the same bound and
  // return the same number of answers.
  ASSERT_EQ(live_report->outcomes.size(), offline_report->outcomes.size());
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    EXPECT_EQ(live_report->outcomes[i].answers,
              offline_report->outcomes[i].answers)
        << "request " << i;
    EXPECT_EQ(live_report->outcomes[i].certified,
              offline_report->outcomes[i].certified)
        << "request " << i;
    EXPECT_EQ(live_report->outcomes[i].shed, offline_report->outcomes[i].shed)
        << "request " << i;
  }

  // Byte-identical answer files, request by request.
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    const std::string name = "/req-" + std::to_string(i) + ".csv";
    auto offline_csv = io::ReadTextFile(offline_answers + name);
    auto live_csv = io::ReadTextFile(live_answers + name);
    ASSERT_TRUE(offline_csv.ok()) << offline_csv.status();
    ASSERT_TRUE(live_csv.ok()) << live_csv.status();
    EXPECT_EQ(*offline_csv, *live_csv) << "request " << i << " diverged";
  }
}

TEST(LoadHarnessIntegrationTest, LiveCountersReconcileWithServerStats) {
  const std::string query_dir = FreshDir("harness_stats_queries");
  WriteQueryFiles(query_dir);

  // Add a third query file that does not exist on disk: its requests must
  // come back as `err` lines and be counted on both sides.
  eval::WorkloadTrace trace = MakeTrace(20);
  trace.query_files.push_back("missing.txt");
  for (size_t i = 0; i < 3; ++i) {
    eval::TraceRequest request;
    request.query_index = 2;
    request.arrival_us = trace.requests.back().arrival_us;
    trace.requests.push_back(request);
  }

  LiveFixture live;
  LiveTraceExecutor executor(
      "127.0.0.1", live.port(),
      ResolveTraceBindings(trace, query_dir, /*answers_dir=*/""));
  auto report = eval::ReplayTrace(trace, &executor, ClosedLoop(3));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->requests, 23u);
  EXPECT_EQ(report->errors, 3u);
  EXPECT_EQ(report->ok, 20u);

  // The server's own accounting must tell the same story the client-side
  // report does: served/failed totals, shed count and engine cache hits.
  const std::map<std::string, std::string> stats = live.Stats();
  EXPECT_EQ(stats.at("served"), std::to_string(report->ok));
  EXPECT_EQ(stats.at("failed"), std::to_string(report->errors));
  EXPECT_EQ(stats.at("shed"), std::to_string(report->shed));
  EXPECT_EQ(stats.at("cache_hits"), std::to_string(report->cache_hits));
}

TEST(LoadHarnessIntegrationTest, FixedPolicyServiceRejectsPerRequestTargets) {
  const std::string query_dir = FreshDir("harness_fixed_queries");
  WriteQueryFiles(query_dir);

  // A fixed-candidate (non-bound-driven) service: per-request target= asks
  // are contract violations, not silent no-ops.
  auto index = serve::BuildServingIndex(MakeRepo(),
                                        serve::ServingIndexOptions{},
                                        /*generation=*/1);
  ASSERT_TRUE(index.ok()) << index.status();
  engine::QueryResultCache cache(16);
  serve::MatchServiceConfig config;
  config.engine_options.num_threads = 1;
  config.engine_options.adaptive = testing::FixedPolicy(16);
  config.cache = &cache;
  serve::MatchService service(*index, std::move(config));
  EXPECT_FALSE(service.bound_driven());

  // Its `ok` lines carry none of the bound-driven fields.
  serve::Request direct;
  direct.query_path = query_dir + "/q0.txt";
  auto served = service.Execute(direct, /*pressure=*/0.0);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_FALSE(served->cache_hit);
  const std::string line = serve::FormatMatchResponse(*served);
  EXPECT_NE(line.find("index_ms="), std::string::npos) << line;
  for (const char* field : {"target=", "shed=", "budget=", "rounds="}) {
    EXPECT_EQ(line.find(field), std::string::npos) << field << " in " << line;
  }

  direct.target_bound = 0.9;
  auto rejected = service.Execute(direct, /*pressure=*/0.0);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition)
      << rejected.status();

  // Replaying a mixed-bound trace against it: the explicit-bound half
  // errors, the server-default half still answers.
  const eval::WorkloadTrace trace = MakeTrace(10);
  InProcessTraceExecutor executor(
      &service, ResolveTraceBindings(trace, query_dir, ""));
  auto report = eval::ReplayTrace(trace, &executor, ClosedLoop(2));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->errors, 5u);  // odd indices carry target_bound=0.9
  EXPECT_EQ(report->ok, 5u);
  EXPECT_NE(report->outcomes[1].error.find("target"), std::string::npos)
      << report->outcomes[1].error;
}

}  // namespace
}  // namespace smb::harness
