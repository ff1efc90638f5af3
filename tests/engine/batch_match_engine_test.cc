#include "engine/batch_match_engine.h"

#include <gtest/gtest.h>

#include "index/candidate_generator.h"
#include "index/prepared_repository.h"
#include "match/beam_matcher.h"
#include "match/cluster_matcher.h"
#include "match/exhaustive_matcher.h"
#include "match/matcher_factory.h"
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
  // A direct run: no index, no candidate lists.
  EXPECT_EQ(stats.precompute_seconds, 0.0);
  EXPECT_EQ(stats.index_seconds, 0.0);
  EXPECT_EQ(stats.match.candidates_generated, 0u);
  EXPECT_TRUE(stats.shard_candidates_generated.empty());
  ExpectSameAnswers(*batched, *reference);
}

TEST(BatchMatchEngineTest, StatsMatchSingleThreadedRun) {
  synth::SyntheticCollection collection = MakeLargeCollection();
  match::MatchOptions mopts;
  match::ExhaustiveMatcher matcher;
  // The engine's exact run reads target-1.0 candidate lists, so its work
  // is that of one whole-repository run over the same lists.
  auto prepared = index::PreparedRepository::Build(collection.repository,
                                                   mopts.objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto candidates =
      index::CandidateGenerator(&*prepared, mopts.objective)
          .GenerateAdaptive(collection.query, index::AdaptiveCandidatePolicy{},
                            mopts.delta_threshold);
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  const match::ObjectiveFunction objective(
      &collection.query, &collection.repository, mopts.objective,
      &*candidates);
  match::MatchStats whole_stats;
  auto reference =
      testing::MatchWithObjective(matcher, objective, mopts, &whole_stats);
  ASSERT_TRUE(reference.ok()) << reference.status();

  BatchMatchOptions bopts;
  bopts.num_threads = 4;
  BatchMatchEngine engine(bopts);
  BatchMatchStats stats;
  auto batched = engine.Run(matcher, collection.query, collection.repository,
                            mopts, &stats);
  ASSERT_TRUE(batched.ok()) << batched.status();
  ExpectSameAnswers(*batched, *reference);
  // The shards partition the per-schema work exactly, so the accumulated
  // counters equal the whole run's.
  EXPECT_EQ(stats.match.states_explored, whole_stats.states_explored);
  EXPECT_EQ(stats.match.mappings_emitted, whole_stats.mappings_emitted);
  EXPECT_EQ(stats.match.states_pruned, whole_stats.states_pruned);
  EXPECT_EQ(stats.match.candidates_generated,
            candidates->candidates_generated());
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

/// An engine run without a budget is the exact run: target-1.0 candidate
/// lists over the repository index, built by the engine or handed to it.
/// For every shard-safe matcher, thread count, shard size and injectivity
/// its answers equal the direct `Matcher::Match` run byte for byte, and
/// every cell is certified.
class ExactRunTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ExactRunTest, NoBudgetEqualsTheDirectRun) {
  synth::SyntheticCollection collection = MakeLargeCollection();
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  auto matcher = match::MakeMatcher(GetParam(), collection.repository);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  size_t nonempty = 0;
  for (bool injective : {true, false}) {
    match::MatchOptions mopts;
    mopts.delta_threshold = 0.25;
    mopts.injective = injective;
    mopts.objective.name.synonyms = &kTable;
    auto direct =
        (*matcher)->Match(collection.query, collection.repository, mopts);
    ASSERT_TRUE(direct.ok()) << direct.status();
    if (!direct->empty()) ++nonempty;
    auto prepared = index::PreparedRepository::Build(collection.repository,
                                                     mopts.objective.name);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    for (size_t threads : {1u, 2u, 4u}) {
      for (size_t shard_size : {1u, 7u, 0u}) {
        for (bool prebuilt : {false, true}) {
          BatchMatchOptions bopts;
          bopts.num_threads = threads;
          bopts.shard_size = shard_size;
          if (prebuilt) bopts.prepared_repository = &*prepared;
          BatchMatchStats stats;
          auto batched = BatchMatchEngine(bopts).Run(
              **matcher, collection.query, collection.repository, mopts,
              &stats);
          ASSERT_TRUE(batched.ok()) << batched.status();
          SCOPED_TRACE(std::string(GetParam()) +
                       " injective=" + std::to_string(injective) +
                       " threads=" + std::to_string(threads) +
                       " shard_size=" + std::to_string(shard_size) +
                       " prebuilt=" + std::to_string(prebuilt));
          ExpectSameAnswers(*batched, *direct);
          EXPECT_EQ(stats.provably_complete_fraction, 1.0);
          EXPECT_EQ(stats.adaptive.cells_certified,
                    stats.adaptive.cells_total);
          EXPECT_FALSE(stats.fell_back_to_single_run);
          // Only the engine's own index build counts as precompute.
          if (prebuilt) {
            EXPECT_EQ(stats.precompute_seconds, 0.0);
          }
        }
      }
    }
  }
  EXPECT_EQ(nonempty, 2u);
}

INSTANTIATE_TEST_SUITE_P(Matchers, ExactRunTest,
                         ::testing::Values("exhaustive", "beam", "topk"));

}  // namespace
}  // namespace smb::engine
