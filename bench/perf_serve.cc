// Perf-6: serve frontend throughput — requests per second through the full
// network stack (loopback TCP, line protocol, bounded admission queue,
// worker pool, concurrent result cache) as a function of the number of
// concurrent client connections. The cache makes the steady state
// replay-dominated, so this measures the serving overhead the paper's
// effectiveness certificates ride on, not matcher time.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "engine/query_cache.h"
#include "serve/replay_client.h"
#include "io/csv.h"
#include "schema/text_format.h"
#include "serve/match_service.h"
#include "serve/server.h"
#include "serve/serving_index.h"
#include "synth/generator.h"

namespace {

using namespace smb;

/// One running server over a synthetic collection, shared by all
/// iterations of one benchmark run.
struct ServeSetup {
  synth::SyntheticCollection collection;
  std::unique_ptr<engine::QueryResultCache> cache;
  std::unique_ptr<serve::MatchService> service;
  std::unique_ptr<serve::MatchServer> server;
  std::string query_path;
};

ServeSetup* GetServeSetup(size_t num_schemas) {
  static std::map<size_t, std::unique_ptr<ServeSetup>> cache;
  auto it = cache.find(num_schemas);
  if (it != cache.end()) return it->second.get();

  auto setup = std::make_unique<ServeSetup>();
  Rng rng(1234 + num_schemas);
  synth::SynthOptions sopts;
  sopts.num_schemas = num_schemas;
  setup->collection = synth::GenerateProblem(4, sopts, &rng).value();
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();

  setup->cache = std::make_unique<engine::QueryResultCache>(64);

  serve::MatchServiceConfig config;
  config.match_options.delta_threshold = 0.25;
  config.match_options.objective.name.synonyms = &kTable;
  config.engine_options.num_threads = 1;
  config.engine_options.adaptive = index::AdaptiveCandidatePolicy{
      .min_provable_completeness = 0.0, .initial_limit = 8};
  config.cache = setup->cache.get();
  // The index must be built with the same name options the queries match
  // with (folding and synonyms feed the candidate generator).
  serve::ServingIndexOptions index_options;
  index_options.name_options = config.match_options.objective.name;
  auto index = serve::BuildServingIndex(setup->collection.repository,
                                        index_options, /*generation=*/1);
  if (!index.ok()) {
    std::fprintf(stderr, "serve bench: %s\n",
                 index.status().ToString().c_str());
    std::abort();
  }
  setup->service =
      std::make_unique<serve::MatchService>(*index, std::move(config));

  serve::MatchServerConfig server_config;
  server_config.workers = 2;
  server_config.queue_depth = 32;
  setup->server = std::make_unique<serve::MatchServer>(setup->service.get(),
                                                       server_config);
  if (Status st = setup->server->Start(); !st.ok()) {
    std::fprintf(stderr, "serve bench: %s\n", st.ToString().c_str());
    std::abort();
  }

  setup->query_path = "/tmp/perf_serve_query.txt";
  if (Status st = io::WriteTextFile(
          setup->query_path,
          schema::WriteSchemaText(setup->collection.query));
      !st.ok()) {
    std::fprintf(stderr, "serve bench: %s\n", st.ToString().c_str());
    std::abort();
  }
  return cache.emplace(num_schemas, std::move(setup)).first->second.get();
}

/// Requests/second over N concurrent connections (state.range(0)), 16
/// requests per connection per iteration. UseRealTime: the work happens in
/// server threads, not this one.
void BM_ServeThroughput(benchmark::State& state) {
  ServeSetup* setup = GetServeSetup(100);
  const size_t connections = static_cast<size_t>(state.range(0));
  constexpr size_t kRequestsPerConnection = 16;
  std::vector<std::string> requests(connections * kRequestsPerConnection,
                                    "match " + setup->query_path);

  serve::ReplayClientOptions options;
  options.port = setup->server->port();
  options.connections = connections;
  uint64_t served = 0;
  for (auto _ : state) {
    auto outcome = serve::ReplayRequests(options, requests);
    if (!outcome.ok() || outcome->err_count > 0) {
      if (!outcome.ok()) {
        std::fprintf(stderr, "serve bench: %s\n",
                     outcome.status().ToString().c_str());
      } else {
        for (const std::string& line : outcome->responses) {
          if (line.rfind("ok ", 0) != 0) {
            std::fprintf(stderr, "serve bench: %s\n", line.c_str());
            break;
          }
        }
      }
      state.SkipWithError("replay failed");
      break;
    }
    served += outcome->ok_count;
  }
  state.SetItemsProcessed(static_cast<int64_t>(served));
  state.counters["connections"] = static_cast<double>(connections);
}
BENCHMARK(BM_ServeThroughput)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
