#include "engine/batch_match_engine.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

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
  // The engine's exact run reads target-1.0 candidate lists from the
  // matching entry, so its work is that of one whole-repository run over
  // the same lists.
  auto prepared = index::PreparedRepository::Build(collection.repository,
                                                   mopts.objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto candidates =
      index::CandidateGenerator(&*prepared, mopts.objective)
          .GenerateForMatching(collection.query,
                               index::AdaptiveCandidatePolicy{},
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

/// Where the rounds are planned the engine generates through
/// `GenerateForMatching`, which empties every cell of a schema that holds
/// no mapping within Δ. Matching over those lists must equal matching over
/// `GenerateAdaptive`'s unfiltered ones, byte for byte, with the same
/// certified fraction, for every matcher, injectivity, thread count, shard
/// size, Δ and target; no unfiltered answer may lie in a pruned schema.
class SchemaFilterTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SchemaFilterTest, PrunedSchemasLoseNoAnswer) {
  synth::SyntheticCollection collection = MakeLargeCollection();
  const schema::SchemaRepository& repo = collection.repository;
  const schema::Schema& query = collection.query;
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  auto matcher = match::MakeMatcher(GetParam(), repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  match::MatchOptions base;
  base.objective.name.synonyms = &kTable;
  auto prepared =
      index::PreparedRepository::Build(repo, base.objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const index::CandidateGenerator generator(&*prepared, base.objective);

  uint64_t pruned_total = 0;
  size_t answers_total = 0;
  for (bool injective : {true, false}) {
    for (double delta : {0.1, 0.25, 0.4}) {
      for (double target : {0.0, 0.9, 1.0}) {
        match::MatchOptions mopts = base;
        mopts.delta_threshold = delta;
        mopts.injective = injective;
        index::AdaptiveCandidatePolicy policy;
        policy.min_provable_completeness = target;
        const std::string config =
            std::string(GetParam()) + " injective=" +
            std::to_string(injective) + " delta=" + std::to_string(delta) +
            " target=" + std::to_string(target);
        SCOPED_TRACE(config);

        // The reference: the matcher over the unfiltered lists.
        auto lists = generator.GenerateAdaptive(query, policy, delta);
        ASSERT_TRUE(lists.ok()) << lists.status();
        const match::ObjectiveFunction objective(&query, &repo,
                                                 mopts.objective, &*lists);
        match::AnswerSet reference;
        ASSERT_TRUE((*matcher)
                        ->MatchSchemas(objective, 0, repo.schema_count(),
                                       mopts, &reference, nullptr)
                        .ok());
        reference.Finalize();
        answers_total += reference.size();

        // A pruned schema has every cell empty; none may hold an answer.
        auto filtered = generator.GenerateForMatching(query, policy, delta);
        ASSERT_TRUE(filtered.ok()) << filtered.status();
        for (const match::Mapping& mapping : reference.mappings()) {
          EXPECT_FALSE(
              filtered->CandidatesFor(0, mapping.schema_index)->empty());
        }

        std::optional<uint64_t> pruned;
        for (size_t threads : {1u, 2u, 4u}) {
          for (size_t shard_size : {1u, 7u, 0u}) {
            BatchMatchOptions bopts;
            bopts.num_threads = threads;
            bopts.shard_size = shard_size;
            bopts.prepared_repository = &*prepared;
            bopts.adaptive = policy;
            BatchMatchStats stats;
            auto batched =
                BatchMatchEngine(bopts).Run(**matcher, query, repo, mopts,
                                            &stats);
            ASSERT_TRUE(batched.ok()) << batched.status();
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " shard_size=" + std::to_string(shard_size));
            ExpectSameAnswers(*batched, reference);
            EXPECT_EQ(stats.provably_complete_fraction,
                      lists->ProvablyCompleteFraction(delta));
            // The same schemas are pruned at every thread count.
            if (!pruned) pruned = stats.adaptive.schemas_pruned;
            EXPECT_EQ(stats.adaptive.schemas_pruned, *pruned);
          }
        }
        pruned_total += *pruned;
      }
    }
  }
  // The matrix exercises the filter and still finds answers.
  EXPECT_GT(pruned_total, 0u);
  EXPECT_GT(answers_total, 0u);
}

INSTANTIATE_TEST_SUITE_P(Matchers, SchemaFilterTest,
                         ::testing::Values("exhaustive", "beam", "topk"));

TEST(SchemaFilterRegimeTest, OutsideThePlannedRegimeListsAreUnfiltered) {
  // At Δ 0.02 finite skip-bounds can certify, so escalation reads them and
  // no schema is dropped: the lists are `GenerateAdaptive`'s, cell for
  // cell.
  synth::SyntheticCollection collection = MakeLargeCollection();
  match::ObjectiveOptions objective;
  auto prepared = index::PreparedRepository::Build(collection.repository,
                                                   objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  index::CandidateGenerator generator(&*prepared, objective);
  for (size_t threads : {1u, 4u}) {
    generator.set_num_threads(threads);
    for (double target : {0.0, 0.9, 1.0}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " target=" + std::to_string(target));
      index::AdaptiveCandidatePolicy policy;
      policy.min_provable_completeness = target;
      index::AdaptiveGenerationStats stats;
      auto filtered = generator.GenerateForMatching(collection.query, policy,
                                                    0.02, &stats);
      auto full = generator.GenerateAdaptive(collection.query, policy, 0.02);
      ASSERT_TRUE(filtered.ok() && full.ok());
      EXPECT_EQ(stats.schemas_pruned, 0u);
      ASSERT_EQ(filtered->positions(), full->positions());
      for (size_t pos = 0; pos < full->positions(); ++pos) {
        for (size_t si = 0; si < full->schema_count(); ++si) {
          const auto schema_index = static_cast<int32_t>(si);
          const auto& a = *filtered->CandidatesFor(pos, schema_index);
          const auto& b = *full->CandidatesFor(pos, schema_index);
          ASSERT_EQ(a.size(), b.size()) << pos << "," << si;
          for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].node, b[i].node);
            EXPECT_EQ(a[i].cost, b[i].cost);
          }
          EXPECT_EQ(filtered->SkipLowerBound(pos, schema_index),
                    full->SkipLowerBound(pos, schema_index));
        }
      }
    }
  }
}

}  // namespace
}  // namespace smb::engine
