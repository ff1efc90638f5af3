// Perf-1: matcher wall time vs repository size — the paper's efficiency
// motivation (§1, §2.3: "exhaustive search of schema mappings needs
// exponential time; efficient techniques restrict the search space").
// Compares the exhaustive system against its two non-exhaustive
// improvements on identical collections.

#include <cstdio>
#include <cstdlib>
#include <map>

#include <benchmark/benchmark.h>

#include <filesystem>

#include "engine/batch_match_engine.h"
#include "index/prepared_repository.h"
#include "index/snapshot.h"
#include "match/beam_matcher.h"
#include "match/cluster_matcher.h"
#include "match/exhaustive_matcher.h"
#include "match/matcher_factory.h"
#include "match/topk_matcher.h"
#include "synth/generator.h"

namespace {

using namespace smb;

struct Setup {
  synth::SyntheticCollection collection;
  match::MatchOptions mopts;
  std::shared_ptr<const cluster::ElementClustering> clustering;
};

const Setup& GetSetup(size_t num_schemas) {
  static std::map<size_t, Setup> cache;
  auto it = cache.find(num_schemas);
  if (it != cache.end()) return it->second;

  Rng rng(1234 + num_schemas);
  synth::SynthOptions sopts;
  sopts.num_schemas = num_schemas;
  Setup setup;
  setup.collection = synth::GenerateProblem(4, sopts, &rng).value();
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  setup.mopts.delta_threshold = 0.25;
  setup.mopts.objective.name.synonyms = &kTable;
  cluster::ElementClusteringOptions copts;
  copts.num_clusters = 16;
  setup.clustering = std::make_shared<cluster::ElementClustering>(
      cluster::ElementClustering::Build(setup.collection.repository, copts,
                                        &rng)
          .value());
  return cache.emplace(num_schemas, std::move(setup)).first->second;
}

void BM_ExhaustiveMatcher(benchmark::State& state) {
  const Setup& setup = GetSetup(static_cast<size_t>(state.range(0)));
  match::ExhaustiveMatcher matcher;
  size_t answers = 0;
  match::MatchStats stats;
  for (auto _ : state) {
    stats = match::MatchStats();
    auto result = matcher.Match(setup.collection.query,
                                setup.collection.repository, setup.mopts,
                                &stats);
    answers = result->size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["states"] = static_cast<double>(stats.states_explored);
  state.counters["elements"] =
      static_cast<double>(setup.collection.repository.total_elements());
}
BENCHMARK(BM_ExhaustiveMatcher)->Arg(50)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_BeamMatcher(benchmark::State& state) {
  const Setup& setup = GetSetup(static_cast<size_t>(state.range(0)));
  match::BeamMatcher matcher(match::BeamMatcherOptions{6});
  size_t answers = 0;
  for (auto _ : state) {
    auto result = matcher.Match(setup.collection.query,
                                setup.collection.repository, setup.mopts);
    answers = result->size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_BeamMatcher)->Arg(50)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_ClusterMatcher(benchmark::State& state) {
  const Setup& setup = GetSetup(static_cast<size_t>(state.range(0)));
  match::ClusterMatcherOptions copts;
  copts.top_m_clusters = 10;
  match::ClusterMatcher matcher(setup.clustering, copts);
  size_t answers = 0;
  for (auto _ : state) {
    auto result = matcher.Match(setup.collection.query,
                                setup.collection.repository, setup.mopts);
    answers = result->size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_ClusterMatcher)->Arg(50)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

// --- Sharded batch engine vs the single-threaded seed path ---------------
//
// Same matcher, same collection; the only variable is the thread count of
// the batch engine (Arg). Arg(0) is the direct single-threaded matcher run
// without the engine — the seed baseline. Each batch variant asserts once
// that its answer set is identical (keys and Δ) to the baseline, so the
// reported speedup is for *identical* output.

void CheckAnswersIdentical(const match::AnswerSet& batch,
                           const match::AnswerSet& direct,
                           const char* label) {
  bool same = batch.size() == direct.size();
  for (size_t i = 0; same && i < batch.size(); ++i) {
    const match::Mapping& a = batch.mappings()[i];
    const match::Mapping& b = direct.mappings()[i];
    same = a.key() == b.key() && a.delta == b.delta;
  }
  if (!same) {
    std::fprintf(stderr,
                 "%s: sharded answers differ from single-threaded answers "
                 "(%zu vs %zu)\n",
                 label, batch.size(), direct.size());
    std::abort();
  }
}

void BM_TopKMatcherSingleThread(benchmark::State& state) {
  const Setup& setup = GetSetup(static_cast<size_t>(state.range(0)));
  match::TopKMatcher matcher(match::TopKMatcherOptions{10, 100000});
  size_t answers = 0;
  for (auto _ : state) {
    auto result = matcher.Match(setup.collection.query,
                                setup.collection.repository, setup.mopts);
    answers = result->size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_TopKMatcherSingleThread)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_BatchTopKMatcher(benchmark::State& state) {
  const size_t kSchemas = 400;
  const Setup& setup = GetSetup(kSchemas);
  match::TopKMatcher matcher(match::TopKMatcherOptions{10, 100000});
  engine::BatchMatchOptions bopts;
  bopts.num_threads = static_cast<size_t>(state.range(0));
  engine::BatchMatchEngine batch(bopts);

  auto direct = matcher.Match(setup.collection.query,
                              setup.collection.repository, setup.mopts);
  auto check = batch.Run(matcher, setup.collection.query,
                         setup.collection.repository, setup.mopts);
  CheckAnswersIdentical(*check, *direct, "BM_BatchTopKMatcher");

  size_t answers = 0;
  for (auto _ : state) {
    auto result = batch.Run(matcher, setup.collection.query,
                            setup.collection.repository, setup.mopts);
    answers = result->size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_BatchTopKMatcher)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_BatchExhaustiveMatcher(benchmark::State& state) {
  const size_t kSchemas = 400;
  const Setup& setup = GetSetup(kSchemas);
  match::ExhaustiveMatcher matcher;
  engine::BatchMatchOptions bopts;
  bopts.num_threads = static_cast<size_t>(state.range(0));
  engine::BatchMatchEngine batch(bopts);

  auto direct = matcher.Match(setup.collection.query,
                              setup.collection.repository, setup.mopts);
  auto check = batch.Run(matcher, setup.collection.query,
                         setup.collection.repository, setup.mopts);
  CheckAnswersIdentical(*check, *direct, "BM_BatchExhaustiveMatcher");

  size_t answers = 0;
  for (auto _ : state) {
    auto result = batch.Run(matcher, setup.collection.query,
                            setup.collection.repository, setup.mopts);
    answers = result->size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_BatchExhaustiveMatcher)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SimilarityPoolBuild(benchmark::State& state) {
  const Setup& setup = GetSetup(400);
  for (auto _ : state) {
    auto pool = engine::SimilarityMatrixPool::Build(
        setup.collection.query, setup.collection.repository,
        setup.mopts.objective, static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(pool);
  }
}
BENCHMARK(BM_SimilarityPoolBuild)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// --- Sparse candidate index vs the dense pool --------------------------
//
// The prepare-once/serve-many story: BM_PreparedRepositoryBuild is the
// one-time index cost; BM_DensePerQuery is the per-query cost of the dense
// path (pool fill + match); BM_SparsePerQuery/C is the per-query cost of
// candidate generation + sparse match over a prebuilt index, at candidate
// cutoffs C ∈ {4, 16, 64}. Each sparse variant reports the recall of the
// dense run's answers (counter "recall") and whether the dense top-1
// answer survived (counter "top1"), so the speedup is priced in measured
// effectiveness. Both paths run the factory-made exhaustive matcher on one
// thread over the 200-schema collection — the only variable is the index.

constexpr size_t kIndexSchemas = 200;

void BM_PreparedRepositoryBuild(benchmark::State& state) {
  const Setup& setup = GetSetup(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto prepared = index::PreparedRepository::Build(
        setup.collection.repository, setup.mopts.objective.name);
    benchmark::DoNotOptimize(prepared);
  }
  state.counters["elements"] =
      static_cast<double>(setup.collection.repository.total_elements());
}
BENCHMARK(BM_PreparedRepositoryBuild)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

// The persistence counterpart of BM_PreparedRepositoryBuild: deserialize
// the same index from its snapshot instead of re-deriving it from the
// schemas. The ratio of the two is the "restart tax" a resident serve
// process avoids paying (CI gates it at >= 2.5x via tools/bench_diff.py;
// ~2.9x measured single-core, more with cores for the chunked decode).
void BM_SnapshotLoad(benchmark::State& state) {
  const Setup& setup = GetSetup(static_cast<size_t>(state.range(0)));
  auto prepared = index::PreparedRepository::Build(
                      setup.collection.repository, setup.mopts.objective.name)
                      .value();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("smb_bench_snapshot_" + std::to_string(state.range(0)) + ".bin"))
          .string();
  if (auto saved = index::SaveSnapshot(prepared, path); !saved.ok()) {
    state.SkipWithError(saved.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto loaded = index::LoadSnapshot(path, setup.collection.repository,
                                      setup.mopts.objective.name,
                                      /*num_threads=*/0);
    if (!loaded.ok()) {
      state.SkipWithError(loaded.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(loaded);
  }
  std::error_code ec;
  state.counters["bytes"] =
      static_cast<double>(std::filesystem::file_size(path, ec));
  std::filesystem::remove(path, ec);
}
BENCHMARK(BM_SnapshotLoad)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

// Prices one sparse engine configuration against the dense run at the
// same options: reports the answers produced, the matcher's search states
// ("states"), the candidate entries the index generated ("candidates" —
// the budget), the certified completeness
// ("bound") and the measured recall/top-1 retention of the dense answers.
// Shared by the fixed-C and adaptive benchmarks.
void ReportSparseCounters(benchmark::State& state, const Setup& setup,
                          const match::MatchOptions& mopts,
                          engine::BatchMatchEngine& batch,
                          const match::Matcher& matcher) {
  engine::BatchMatchEngine dense_engine;
  auto dense = dense_engine.Run(matcher, setup.collection.query,
                                setup.collection.repository, mopts);
  engine::BatchMatchStats stats;
  auto sparse = batch.Run(matcher, setup.collection.query,
                          setup.collection.repository, mopts, &stats);
  auto in_sparse = [&](const match::Mapping::Key& key) {
    for (const match::Mapping& candidate : sparse->mappings()) {
      if (candidate.key() == key) return true;
    }
    return false;
  };
  size_t retained = 0;
  for (const match::Mapping& mapping : dense->mappings()) {
    if (in_sparse(mapping.key())) ++retained;
  }
  state.counters["answers"] = static_cast<double>(sparse->size());
  state.counters["states"] = static_cast<double>(stats.match.states_explored);
  state.counters["candidates"] =
      static_cast<double>(stats.match.candidates_generated);
  state.counters["bound"] = stats.provably_complete_fraction;
  state.counters["recall"] =
      dense->empty() ? 1.0
                     : static_cast<double>(retained) /
                           static_cast<double>(dense->size());
  state.counters["top1"] =
      (dense->empty() || in_sparse(dense->mappings().front().key())) ? 1.0
                                                                    : 0.0;
}

void BM_DensePerQuery(benchmark::State& state) {
  const Setup& setup = GetSetup(kIndexSchemas);
  auto matcher =
      match::MakeMatcher("exhaustive", setup.collection.repository).value();
  engine::BatchMatchEngine batch;
  size_t answers = 0;
  engine::BatchMatchStats stats;
  for (auto _ : state) {
    auto result = batch.Run(*matcher, setup.collection.query,
                            setup.collection.repository, setup.mopts, &stats);
    answers = result->size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["states"] = static_cast<double>(stats.match.states_explored);
}
BENCHMARK(BM_DensePerQuery)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SparsePerQuery(benchmark::State& state) {
  const Setup& setup = GetSetup(kIndexSchemas);
  auto matcher =
      match::MakeMatcher("exhaustive", setup.collection.repository).value();
  // Built once, amortized over every query — outside the timed loop.
  auto prepared = index::PreparedRepository::Build(
                      setup.collection.repository,
                      setup.mopts.objective.name)
                      .value();
  engine::BatchMatchOptions bopts;
  bopts.candidate_limit = static_cast<size_t>(state.range(0));
  bopts.prepared_repository = &prepared;
  engine::BatchMatchEngine batch(bopts);

  for (auto _ : state) {
    auto result = batch.Run(*matcher, setup.collection.query,
                            setup.collection.repository, setup.mopts);
    benchmark::DoNotOptimize(result);
  }
  ReportSparseCounters(state, setup, setup.mopts, batch, *matcher);
}
BENCHMARK(BM_SparsePerQuery)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// --- Block-max (WAND) vs classic postings traversal ---------------------
//
// Candidate generation alone (no matching), same prebuilt index and
// limits: the only variable is the trigram traversal. The classic path
// walks and scores every posting of every query gram; the block-max path
// skips posting blocks that provably cannot enter the top-C, so it wins
// exactly where postings are long and C is small. Selection is identical
// by construction (tests/index/block_max_test.cc pins it).

void BM_CandidateGenClassic(benchmark::State& state) {
  const Setup& setup = GetSetup(kIndexSchemas);
  auto prepared = index::PreparedRepository::Build(
                      setup.collection.repository,
                      setup.mopts.objective.name)
                      .value();
  index::CandidateGenerator generator(&prepared, setup.mopts.objective);
  generator.set_block_max_enabled(false);
  const auto limit = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto candidates = generator.Generate(setup.collection.query, limit);
    benchmark::DoNotOptimize(candidates);
  }
}
BENCHMARK(BM_CandidateGenClassic)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CandidateGenBlockMax(benchmark::State& state) {
  const Setup& setup = GetSetup(kIndexSchemas);
  auto prepared = index::PreparedRepository::Build(
                      setup.collection.repository,
                      setup.mopts.objective.name)
                      .value();
  index::CandidateGenerator generator(&prepared, setup.mopts.objective);
  const auto limit = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto candidates = generator.Generate(setup.collection.query, limit);
    benchmark::DoNotOptimize(candidates);
  }
}
BENCHMARK(BM_CandidateGenBlockMax)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Wide variant: few schemas, each several hundred elements, so a cell's
// posting ranges span many 64-posting blocks — the regime the block
// metadata exists for. (The narrow collection above never leaves the
// dense small-cell fast path; this one pivots and skips.)
const Setup& GetWideSetup() {
  static const Setup* setup = [] {
    Rng rng(4321);
    synth::SynthOptions sopts;
    sopts.num_schemas = 12;
    sopts.min_schema_elements = 400;
    sopts.max_schema_elements = 600;
    auto* s = new Setup;
    s->collection = synth::GenerateProblem(4, sopts, &rng).value();
    static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
    s->mopts.delta_threshold = 0.25;
    s->mopts.objective.name.synonyms = &kTable;
    return s;
  }();
  return *setup;
}

void BM_CandidateGenClassicWide(benchmark::State& state) {
  const Setup& setup = GetWideSetup();
  auto prepared = index::PreparedRepository::Build(
                      setup.collection.repository,
                      setup.mopts.objective.name)
                      .value();
  index::CandidateGenerator generator(&prepared, setup.mopts.objective);
  generator.set_block_max_enabled(false);
  const auto limit = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto candidates = generator.Generate(setup.collection.query, limit);
    benchmark::DoNotOptimize(candidates);
  }
}
BENCHMARK(BM_CandidateGenClassicWide)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CandidateGenBlockMaxWide(benchmark::State& state) {
  const Setup& setup = GetWideSetup();
  auto prepared = index::PreparedRepository::Build(
                      setup.collection.repository,
                      setup.mopts.objective.name)
                      .value();
  index::CandidateGenerator generator(&prepared, setup.mopts.objective);
  const auto limit = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto candidates = generator.Generate(setup.collection.query, limit);
    benchmark::DoNotOptimize(candidates);
  }
}
BENCHMARK(BM_CandidateGenBlockMaxWide)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// --- Bound-driven adaptive budgets vs a fixed candidate budget ----------
//
// The adaptive policy grows each (query element, schema) cell only until
// the skip-bound certifies the target completeness, so easy cells stop at
// C=4 while hard ones climb. Both variants run at a tight Δ threshold
// (0.02 — the regime where the analytic bound tiers can certify cells
// without full coverage; at loose thresholds certification degenerates to
// full coverage and a fixed C is the right tool). Counters price the
// comparison: "candidates" (entries generated — the budget), "bound" (the
// certified completeness), "recall"/"top1" (measured against the dense run
// at the same threshold). CI gates candidates(Fixed/64) /
// candidates(Adaptive) ≥ 2 via tools/bench_diff.py --metric candidates.

constexpr double kTightDelta = 0.02;

match::MatchOptions TightDeltaOptions(const Setup& setup) {
  match::MatchOptions mopts = setup.mopts;
  mopts.delta_threshold = kTightDelta;
  return mopts;
}

void BM_FixedPerQuery(benchmark::State& state) {
  const Setup& setup = GetSetup(kIndexSchemas);
  const match::MatchOptions mopts = TightDeltaOptions(setup);
  auto matcher =
      match::MakeMatcher("exhaustive", setup.collection.repository).value();
  auto prepared = index::PreparedRepository::Build(
                      setup.collection.repository, mopts.objective.name)
                      .value();
  engine::BatchMatchOptions bopts;
  bopts.candidate_limit = static_cast<size_t>(state.range(0));
  bopts.prepared_repository = &prepared;
  engine::BatchMatchEngine batch(bopts);
  for (auto _ : state) {
    auto result = batch.Run(*matcher, setup.collection.query,
                            setup.collection.repository, mopts);
    benchmark::DoNotOptimize(result);
  }
  ReportSparseCounters(state, setup, mopts, batch, *matcher);
}
BENCHMARK(BM_FixedPerQuery)->Arg(64)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_AdaptivePerQuery(benchmark::State& state) {
  const Setup& setup = GetSetup(kIndexSchemas);
  const match::MatchOptions mopts = TightDeltaOptions(setup);
  auto matcher =
      match::MakeMatcher("exhaustive", setup.collection.repository).value();
  auto prepared = index::PreparedRepository::Build(
                      setup.collection.repository, mopts.objective.name)
                      .value();
  engine::BatchMatchOptions bopts;
  index::AdaptiveCandidatePolicy policy;
  policy.min_provable_completeness = 0.9;
  bopts.adaptive = policy;
  bopts.prepared_repository = &prepared;
  engine::BatchMatchEngine batch(bopts);
  for (auto _ : state) {
    auto result = batch.Run(*matcher, setup.collection.query,
                            setup.collection.repository, mopts);
    benchmark::DoNotOptimize(result);
  }
  ReportSparseCounters(state, setup, mopts, batch, *matcher);
}
BENCHMARK(BM_AdaptivePerQuery)->Unit(benchmark::kMillisecond)->UseRealTime();

// Bound-driven generation alone on N worker threads (the argument), at
// target 0.9 and the default Δ = 0.25, where most cells escalate over
// several rounds. At that Δ only full coverage certifies, so the rounds
// are planned from schema sizes and every cell is scored once at its final
// limit. Output is the same for every N (tests/index/
// parallel_generation_test.cc); counters "scored" (committed budget, equal
// across N), "computed" (node costs actually evaluated, equal across N and
// here equal to "scored") and "speculative" (scored past a round's stop
// point and discarded; 0 when the rounds are planned) show what the work
// and the threads cost. "names" counts the name similarities computed: a
// full cost whose element name was already scored at the same query
// position takes the memoized similarity, so "names" is well below
// "computed". Each worker keeps its own memo, so it grows with N.
void BM_AdaptiveGenerate(benchmark::State& state) {
  const Setup& setup = GetSetup(kIndexSchemas);
  auto prepared = index::PreparedRepository::Build(
                      setup.collection.repository,
                      setup.mopts.objective.name)
                      .value();
  index::CandidateGenerator generator(&prepared, setup.mopts.objective);
  generator.set_num_threads(static_cast<size_t>(state.range(0)));
  index::AdaptiveCandidatePolicy policy;
  policy.min_provable_completeness = 0.9;
  index::AdaptiveGenerationStats stats;
  for (auto _ : state) {
    auto candidates =
        generator.GenerateAdaptive(setup.collection.query, policy,
                                   setup.mopts.delta_threshold, &stats);
    benchmark::DoNotOptimize(candidates);
  }
  state.counters["scored"] = static_cast<double>(stats.budget_spent);
  state.counters["computed"] = static_cast<double>(stats.costs_computed);
  state.counters["names"] = static_cast<double>(stats.names_scored);
  state.counters["speculative"] =
      static_cast<double>(stats.speculative_scored);
  state.counters["bound"] = stats.achieved_completeness;
}
BENCHMARK(BM_AdaptiveGenerate)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ClusteringBuild(benchmark::State& state) {
  const Setup& setup = GetSetup(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Rng rng(99);
    cluster::ElementClusteringOptions copts;
    copts.num_clusters = 16;
    auto clustering = cluster::ElementClustering::Build(
        setup.collection.repository, copts, &rng);
    benchmark::DoNotOptimize(clustering);
  }
}
BENCHMARK(BM_ClusteringBuild)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMillisecond);

}  // namespace
