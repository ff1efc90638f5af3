#include "engine/batch_match_engine.h"

#include <gtest/gtest.h>

#include "match/beam_matcher.h"
#include "match/cluster_matcher.h"
#include "match/exhaustive_matcher.h"
#include "match/topk_matcher.h"
#include "synth/generator.h"
#include "../testing/fixtures.h"

namespace smb::engine {
namespace {

using testing::MakeQuery;
using testing::MakeRepo;

void ExpectSameAnswers(const match::AnswerSet& a, const match::AnswerSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const match::Mapping& ma = a.mappings()[i];
    const match::Mapping& mb = b.mappings()[i];
    EXPECT_EQ(ma.schema_index, mb.schema_index) << "rank " << i;
    EXPECT_EQ(ma.targets, mb.targets) << "rank " << i;
    EXPECT_EQ(ma.delta, mb.delta) << "rank " << i;
  }
}

synth::SyntheticCollection MakeLargeCollection() {
  Rng rng(7);
  synth::SynthOptions sopts;
  sopts.num_schemas = 40;
  return synth::GenerateProblem(4, sopts, &rng).value();
}

TEST(BatchMatchEngineTest, DeterministicAcrossThreadCountsOnFixtures) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  match::MatchOptions mopts;
  match::TopKMatcher matcher(match::TopKMatcherOptions{5, 0});

  auto reference = matcher.Match(query, repo, mopts);
  ASSERT_TRUE(reference.ok()) << reference.status();

  for (size_t threads : {1u, 2u, 8u}) {
    BatchMatchOptions bopts;
    bopts.num_threads = threads;
    bopts.shard_size = 1;  // more shards than schemas is fine
    BatchMatchEngine engine(bopts);
    auto batched = engine.Run(matcher, query, repo, mopts);
    ASSERT_TRUE(batched.ok()) << batched.status();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameAnswers(*batched, *reference);
  }
}

TEST(BatchMatchEngineTest, DeterministicAcrossThreadCountsOnSynthetic) {
  synth::SyntheticCollection collection = MakeLargeCollection();
  match::MatchOptions mopts;
  mopts.delta_threshold = 0.25;

  match::ExhaustiveMatcher exhaustive;
  match::TopKMatcher topk(match::TopKMatcherOptions{10, 100000});
  match::BeamMatcher beam(match::BeamMatcherOptions{6});
  for (const match::Matcher* matcher :
       {static_cast<const match::Matcher*>(&exhaustive),
        static_cast<const match::Matcher*>(&topk),
        static_cast<const match::Matcher*>(&beam)}) {
    auto reference =
        matcher->Match(collection.query, collection.repository, mopts);
    ASSERT_TRUE(reference.ok()) << reference.status();
    for (size_t threads : {1u, 2u, 8u}) {
      BatchMatchOptions bopts;
      bopts.num_threads = threads;
      BatchMatchEngine engine(bopts);
      auto batched =
          engine.Run(*matcher, collection.query, collection.repository, mopts);
      ASSERT_TRUE(batched.ok()) << batched.status();
      SCOPED_TRACE(matcher->name() + " threads=" + std::to_string(threads));
      ExpectSameAnswers(*batched, *reference);
    }
  }
}

TEST(BatchMatchEngineTest, GlobalTopKMatchesDirectTopN) {
  synth::SyntheticCollection collection = MakeLargeCollection();
  match::MatchOptions mopts;
  match::ExhaustiveMatcher matcher;
  auto reference =
      matcher.Match(collection.query, collection.repository, mopts);
  ASSERT_TRUE(reference.ok()) << reference.status();

  BatchMatchOptions bopts;
  bopts.num_threads = 2;
  bopts.global_top_k = 7;
  BatchMatchEngine engine(bopts);
  auto batched =
      engine.Run(matcher, collection.query, collection.repository, mopts);
  ASSERT_TRUE(batched.ok()) << batched.status();
  ExpectSameAnswers(*batched, reference->TopN(7));
}

TEST(BatchMatchEngineTest, NonShardableMatcherFallsBackAndAgrees) {
  synth::SyntheticCollection collection = MakeLargeCollection();
  match::MatchOptions mopts;
  Rng rng(2006);
  match::ClusterMatcherOptions copts;
  copts.top_m_clusters = 4;
  auto matcher =
      match::ClusterMatcher::Create(collection.repository, copts, &rng);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  EXPECT_FALSE(matcher->SupportsSharding());

  auto reference =
      matcher->Match(collection.query, collection.repository, mopts);
  ASSERT_TRUE(reference.ok()) << reference.status();

  BatchMatchOptions bopts;
  bopts.num_threads = 4;
  BatchMatchEngine engine(bopts);
  BatchMatchStats stats;
  auto batched = engine.Run(*matcher, collection.query, collection.repository,
                            mopts, &stats);
  ASSERT_TRUE(batched.ok()) << batched.status();
  EXPECT_TRUE(stats.fell_back_to_single_run);
  ExpectSameAnswers(*batched, *reference);
}

TEST(BatchMatchEngineTest, StatsMatchSingleThreadedRun) {
  synth::SyntheticCollection collection = MakeLargeCollection();
  match::MatchOptions mopts;
  match::ExhaustiveMatcher matcher;
  match::MatchStats direct_stats;
  auto reference = matcher.Match(collection.query, collection.repository,
                                 mopts, &direct_stats);
  ASSERT_TRUE(reference.ok()) << reference.status();

  BatchMatchOptions bopts;
  bopts.num_threads = 4;
  BatchMatchEngine engine(bopts);
  BatchMatchStats stats;
  auto batched = engine.Run(matcher, collection.query, collection.repository,
                            mopts, &stats);
  ASSERT_TRUE(batched.ok()) << batched.status();
  // The shards partition the per-schema work exactly, so the accumulated
  // counters equal the single-threaded run's.
  EXPECT_EQ(stats.match.states_explored, direct_stats.states_explored);
  EXPECT_EQ(stats.match.mappings_emitted, direct_stats.mappings_emitted);
  EXPECT_EQ(stats.match.states_pruned, direct_stats.states_pruned);
  EXPECT_GE(stats.shard_count, 1u);
  EXPECT_GE(stats.threads_used, 1u);
  EXPECT_FALSE(stats.fell_back_to_single_run);
}

TEST(BatchMatchEngineTest, PropagatesMatcherErrors) {
  schema::Schema query("empty-query");  // no root: matchers reject it
  schema::SchemaRepository repo = MakeRepo();
  match::MatchOptions mopts;
  match::ExhaustiveMatcher matcher;
  BatchMatchOptions bopts;
  bopts.num_threads = 4;
  bopts.shard_size = 1;
  BatchMatchEngine engine(bopts);
  auto batched = engine.Run(matcher, query, repo, mopts);
  ASSERT_FALSE(batched.ok());
  EXPECT_EQ(batched.status().code(), StatusCode::kInvalidArgument);
}

TEST(BatchMatchEngineTest, EmptyRepositoryErrorsLikeDirectRun) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo;
  match::MatchOptions mopts;
  match::ExhaustiveMatcher matcher;
  auto direct = matcher.Match(query, repo, mopts);
  BatchMatchEngine engine;
  auto batched = engine.Run(matcher, query, repo, mopts);
  ASSERT_FALSE(batched.ok());
  EXPECT_EQ(batched.status().code(), direct.status().code());
}

TEST(BatchMatchEngineTest, MatcherWithProviderAgreesWithoutProvider) {
  // A matcher run over an objective with the pool attached directly (no
  // engine) must produce the same answers as the plain lazy-cache run.
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  match::MatchOptions mopts;
  auto pool = SimilarityMatrixPool::Build(query, repo, mopts.objective);
  ASSERT_TRUE(pool.ok()) << pool.status();

  match::ExhaustiveMatcher matcher;
  auto lazy = matcher.Match(query, repo, mopts);
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  match::ObjectiveFunction with_pool(&query, &repo, mopts.objective, &*pool);
  auto shared = testing::MatchWithObjective(matcher, with_pool, mopts);
  ASSERT_TRUE(shared.ok()) << shared.status();
  ExpectSameAnswers(*shared, *lazy);
}

}  // namespace
}  // namespace smb::engine
