#include <gtest/gtest.h>

#include <limits>

#include "engine/batch_match_engine.h"
#include "index/candidate_generator.h"
#include "index/prepared_repository.h"
#include "match/exhaustive_matcher.h"
#include "match/topk_matcher.h"
#include "../testing/fixtures.h"

/// \file engine_edge_cases_test.cc
/// \brief Empty-input edge cases of the batch engine and the candidate
/// generator: empty repository, empty query, and zero-candidate cells
/// (an empty schema inside the repository) must produce well-defined
/// errors *and* well-defined stats — never stale counters, 0/0 fractions
/// or out-of-range accesses in the shard merge.

namespace smb::engine {
namespace {

using testing::MakeQuery;
using testing::MakeRepo;

/// Stats pre-filled with garbage: any field that survives a Run call was
/// left stale by the engine.
BatchMatchStats GarbageStats() {
  BatchMatchStats stats;
  stats.match.states_explored = 0xDEAD;
  stats.shard_count = 77;
  stats.threads_used = 99;
  stats.fell_back_to_single_run = true;
  stats.precompute_seconds = 123.0;
  stats.match_seconds = 456.0;
  stats.index_seconds = 789.0;
  stats.provably_complete_fraction = -2.0;
  return stats;
}

TEST(EngineEdgeCasesTest, EmptyRepositoryFailsWithDefinedStats) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository empty_repo;
  match::ExhaustiveMatcher matcher;
  BatchMatchEngine engine(BatchMatchOptions{});
  BatchMatchStats stats = GarbageStats();
  auto result = engine.Run(matcher, query, empty_repo, {}, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // The failed run wrote stats describing *this* run, not the garbage.
  EXPECT_EQ(stats.shard_count, 0u);
  EXPECT_EQ(stats.threads_used, 1u);
  EXPECT_FALSE(stats.fell_back_to_single_run);
  EXPECT_EQ(stats.provably_complete_fraction, 1.0);
  EXPECT_EQ(stats.index_seconds, 0.0);
}

TEST(EngineEdgeCasesTest, EmptyRepositorySparseModeFailsCleanly) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository empty_repo;
  match::ExhaustiveMatcher matcher;
  BatchMatchOptions options;
  options.adaptive = testing::FixedPolicy(4);
  options.num_threads = 4;
  BatchMatchEngine engine(options);
  BatchMatchStats stats = GarbageStats();
  auto result = engine.Run(matcher, query, empty_repo, {}, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stats.match.candidates_generated, 0u);
  EXPECT_EQ(stats.match.candidates_skipped, 0u);
}

TEST(EngineEdgeCasesTest, EmptyQueryFailsWithDefinedStats) {
  schema::Schema empty_query;
  schema::SchemaRepository repo = MakeRepo();
  match::ExhaustiveMatcher matcher;
  for (size_t candidates : {size_t{0}, size_t{4}}) {
    BatchMatchOptions options;
    if (candidates > 0) options.adaptive = testing::FixedPolicy(candidates);
    options.num_threads = 2;
    BatchMatchEngine engine(options);
    BatchMatchStats stats = GarbageStats();
    auto result = engine.Run(matcher, empty_query, repo, {}, &stats);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    // The sparse phase never ran (empty query cannot be prepared), so its
    // counters must be zero, not stale.
    EXPECT_EQ(stats.match.candidates_generated, 0u);
    EXPECT_EQ(stats.provably_complete_fraction, 1.0);
  }
}

TEST(EngineEdgeCasesTest, InvalidOptionCombinationsStillWriteStats) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  match::ExhaustiveMatcher matcher;

  // Prebuilt index over a *different* repository object.
  schema::SchemaRepository other = MakeRepo();
  auto prepared = index::PreparedRepository::Build(other, {});
  ASSERT_TRUE(prepared.ok());
  BatchMatchOptions options;
  options.adaptive = testing::FixedPolicy(4);
  options.prepared_repository = &*prepared;
  BatchMatchEngine engine(options);
  BatchMatchStats stats = GarbageStats();
  auto result = engine.Run(matcher, query, repo, {}, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(stats.shard_count, 0u);
  EXPECT_EQ(stats.match.states_explored, 0u);
}

TEST(EngineEdgeCasesTest, EmptySchemasCannotEnterARepository) {
  // Zero-size schemas are rejected at the repository boundary with a clear
  // error — the one place that keeps "every cell offers ≥ 1 candidate"
  // true for every layer above.
  schema::SchemaRepository repo;
  auto added = repo.Add(schema::Schema("empty"));
  ASSERT_FALSE(added.ok());
  EXPECT_EQ(added.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(repo.schema_count(), 0u);
}

/// A provider that lists zero candidates for every cell — the "no viable
/// target anywhere" extreme of the sparse contract.
class EmptyCandidateProvider : public match::CandidateProvider {
 public:
  const std::vector<match::CandidateEntry>* CandidatesFor(
      size_t, int32_t) const override {
    return &empty_;
  }
  double SkipLowerBound(size_t, int32_t) const override {
    return std::numeric_limits<double>::infinity();
  }

 private:
  std::vector<match::CandidateEntry> empty_;
};

TEST(EngineEdgeCasesTest, ZeroCandidateCellsYieldNoAnswersAndCleanStats) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  EmptyCandidateProvider provider;
  match::MatchOptions options;
  match::ObjectiveFunction objective(&query, &repo, options.objective,
                                     &provider);
  match::ExhaustiveMatcher exhaustive;
  match::TopKMatcher topk(match::TopKMatcherOptions{5, 0});
  for (const match::Matcher* matcher :
       {static_cast<const match::Matcher*>(&exhaustive),
        static_cast<const match::Matcher*>(&topk)}) {
    match::MatchStats stats;
    auto result =
        testing::MatchWithObjective(*matcher, objective, options, &stats);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->empty());
    EXPECT_EQ(stats.mappings_emitted, 0u);
  }
}

TEST(EngineEdgeCasesTest, GeneratorRejectsEmptyQueryAndZeroLimit) {
  schema::SchemaRepository repo = MakeRepo();
  auto prepared = index::PreparedRepository::Build(repo, {});
  ASSERT_TRUE(prepared.ok());
  index::CandidateGenerator generator(&*prepared, {});
  schema::Schema empty_query;
  EXPECT_FALSE(generator.Generate(empty_query, 4).ok());
  EXPECT_FALSE(generator.Generate(MakeQuery(), 0).ok());
}

TEST(EngineEdgeCasesTest, SingleElementShardsSurviveTheMerge) {
  // One shard per schema on several threads: every merge path (index
  // translation, stats accumulation, completeness fraction) runs on the
  // smallest possible shards, for both the exact and the fixed-C run.
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  match::TopKMatcher matcher(match::TopKMatcherOptions{10, 0});
  auto direct = matcher.Match(query, repo, {});
  ASSERT_TRUE(direct.ok()) << direct.status();

  for (size_t candidates : {size_t{0}, size_t{8}}) {
    BatchMatchOptions options;
    options.num_threads = 4;
    options.shard_size = 1;
    if (candidates > 0) options.adaptive = testing::FixedPolicy(candidates);
    BatchMatchEngine engine(options);
    BatchMatchStats stats = GarbageStats();
    auto batch = engine.Run(matcher, query, repo, {}, &stats);
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_EQ(batch->size(), direct->size());
    for (size_t i = 0; i < batch->size(); ++i) {
      EXPECT_EQ(batch->mappings()[i].key(), direct->mappings()[i].key());
      EXPECT_EQ(batch->mappings()[i].delta, direct->mappings()[i].delta);
    }
    EXPECT_EQ(stats.shard_count, repo.schema_count());
    EXPECT_GE(stats.provably_complete_fraction, 0.0);
    EXPECT_LE(stats.provably_complete_fraction, 1.0);
  }
}

}  // namespace
}  // namespace smb::engine
