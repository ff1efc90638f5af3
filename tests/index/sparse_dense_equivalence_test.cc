#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "engine/batch_match_engine.h"
#include "index/candidate_generator.h"
#include "index/prepared_repository.h"
#include "match/matcher_factory.h"
#include "synth/generator.h"
#include "../testing/fixtures.h"

/// Sparse candidate matching vs the dense path.
///
/// With C ≥ every schema size the candidate lists cover every node, so each
/// matcher must return *byte-identical* answers (keys and Δ) through the
/// sparse path — directly and through the engine, at any thread count. At
/// small C the sparse answers must be a subset of the dense ones with
/// identical Δ on every shared key (same objective function, §2.3).

namespace smb::index {
namespace {

struct EquivSetup {
  schema::Schema query;
  schema::SchemaRepository repo;
  match::MatchOptions options;
  size_t max_schema_size = 0;
};

EquivSetup MakeSetup(size_t num_schemas, uint64_t seed) {
  Rng rng(seed);
  synth::SynthOptions sopts;
  sopts.num_schemas = num_schemas;
  auto collection = synth::GenerateProblem(4, sopts, &rng).value();
  EquivSetup setup;
  setup.query = std::move(collection.query);
  setup.repo = std::move(collection.repository);
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  setup.options.delta_threshold = 0.25;
  setup.options.objective.name.synonyms = &kTable;
  for (const schema::Schema& s : setup.repo.schemas()) {
    setup.max_schema_size = std::max(setup.max_schema_size, s.size());
  }
  return setup;
}

void ExpectIdentical(const match::AnswerSet& sparse,
                     const match::AnswerSet& dense, const std::string& label) {
  ASSERT_EQ(sparse.size(), dense.size()) << label;
  for (size_t i = 0; i < sparse.size(); ++i) {
    EXPECT_EQ(sparse.mappings()[i].key(), dense.mappings()[i].key())
        << label << " rank " << i;
    EXPECT_EQ(sparse.mappings()[i].delta, dense.mappings()[i].delta)
        << label << " rank " << i;
  }
}

class SparseDenseEquivalenceTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(SparseDenseEquivalenceTest, FullLimitReproducesDenseAnswers) {
  EquivSetup setup = MakeSetup(25, 11);
  auto matcher = match::MakeMatcher(GetParam(), setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();

  auto dense = (*matcher)->Match(setup.query, setup.repo, setup.options);
  ASSERT_TRUE(dense.ok()) << dense.status();

  auto prepared =
      PreparedRepository::Build(setup.repo, setup.options.objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  CandidateGenerator generator(&*prepared, setup.options.objective);
  auto candidates =
      generator.Generate(setup.query, setup.max_schema_size + 3);
  ASSERT_TRUE(candidates.ok()) << candidates.status();

  match::ObjectiveFunction sparse_objective(&setup.query, &setup.repo,
                                            setup.options.objective,
                                            &*candidates);
  auto sparse = smb::testing::MatchWithObjective(**matcher, sparse_objective,
                                                 setup.options);
  ASSERT_TRUE(sparse.ok()) << sparse.status();
  ExpectIdentical(*sparse, *dense, GetParam());
}

TEST_P(SparseDenseEquivalenceTest, FullLimitThroughEngineAnyThreadCount) {
  EquivSetup setup = MakeSetup(25, 12);
  auto matcher = match::MakeMatcher(GetParam(), setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();

  auto dense = (*matcher)->Match(setup.query, setup.repo, setup.options);
  ASSERT_TRUE(dense.ok()) << dense.status();

  auto prepared =
      PreparedRepository::Build(setup.repo, setup.options.objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  for (size_t threads : {1u, 3u}) {
    engine::BatchMatchOptions bopts;
    bopts.num_threads = threads;
    bopts.adaptive = testing::FixedPolicy(setup.max_schema_size + 1);
    bopts.prepared_repository = &*prepared;
    engine::BatchMatchEngine engine(bopts);
    engine::BatchMatchStats stats;
    auto sparse =
        engine.Run(**matcher, setup.query, setup.repo, setup.options, &stats);
    ASSERT_TRUE(sparse.ok()) << sparse.status();
    ExpectIdentical(*sparse, *dense,
                    std::string(GetParam()) + " threads=" +
                        std::to_string(threads));
    EXPECT_GT(stats.match.candidates_generated, 0u);
    EXPECT_EQ(stats.match.candidates_skipped, 0u);
    EXPECT_EQ(stats.provably_complete_fraction, 1.0);
  }
}

TEST_P(SparseDenseEquivalenceTest, SmallLimitIsSubsetWithSameObjective) {
  EquivSetup setup = MakeSetup(25, 13);
  auto matcher = match::MakeMatcher(GetParam(), setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();

  auto dense = (*matcher)->Match(setup.query, setup.repo, setup.options);
  ASSERT_TRUE(dense.ok()) << dense.status();

  engine::BatchMatchOptions bopts;
  bopts.num_threads = 2;
  bopts.adaptive = testing::FixedPolicy(3);
  engine::BatchMatchEngine engine(bopts);
  engine::BatchMatchStats stats;
  auto sparse =
      engine.Run(**matcher, setup.query, setup.repo, setup.options, &stats);
  ASSERT_TRUE(sparse.ok()) << sparse.status();

  EXPECT_LE(sparse->size(), dense->size());
  EXPECT_GT(stats.match.candidates_skipped, 0u);
  // Only the exhaustive matcher is subset-monotone under candidate
  // restriction: beam frees slots for other partials and topk back-fills
  // its per-schema k with mappings the dense run cut. Identical Δ on
  // shared keys holds for all of them (same objective function).
  if (std::string(GetParam()) == "exhaustive") {
    EXPECT_TRUE(match::AnswerSet::IsSubsetOf(*sparse, *dense)) << GetParam();
  }
  match::AnswerSet shared;
  for (const match::Mapping& mapping : sparse->mappings()) {
    for (const match::Mapping& dense_mapping : dense->mappings()) {
      if (mapping.key() == dense_mapping.key()) {
        shared.Add(mapping);
        break;
      }
    }
  }
  shared.Finalize();
  EXPECT_TRUE(
      match::AnswerSet::VerifySameObjective(shared, *dense).ok());
}

TEST_P(SparseDenseEquivalenceTest, NonInjectiveFullLimitReproducesDense) {
  EquivSetup setup = MakeSetup(8, 14);
  setup.options.injective = false;
  setup.options.delta_threshold = 0.15;
  auto matcher = match::MakeMatcher(GetParam(), setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();

  auto dense = (*matcher)->Match(setup.query, setup.repo, setup.options);
  ASSERT_TRUE(dense.ok()) << dense.status();

  engine::BatchMatchOptions bopts;
  bopts.num_threads = 2;
  bopts.adaptive = testing::FixedPolicy(setup.max_schema_size + 1);
  engine::BatchMatchEngine engine(bopts);
  auto sparse = engine.Run(**matcher, setup.query, setup.repo, setup.options);
  ASSERT_TRUE(sparse.ok()) << sparse.status();
  ExpectIdentical(*sparse, *dense, GetParam());
}

TEST_P(SparseDenseEquivalenceTest, FixedPolicyEqualsMatchingOverGenerate) {
  // `--candidates=C` is the target-0 policy: through the engine, at every
  // thread count and shard size, its answers are those of matching over
  // `Generate(C)`'s lists directly.
  EquivSetup setup = MakeSetup(25, 18);
  auto matcher = match::MakeMatcher(GetParam(), setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  auto prepared =
      PreparedRepository::Build(setup.repo, setup.options.objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  CandidateGenerator generator(&*prepared, setup.options.objective);
  for (size_t limit : {size_t{3}, setup.max_schema_size + 1}) {
    auto candidates = generator.Generate(setup.query, limit);
    ASSERT_TRUE(candidates.ok()) << candidates.status();
    match::ObjectiveFunction objective(&setup.query, &setup.repo,
                                       setup.options.objective, &*candidates);
    auto direct = smb::testing::MatchWithObjective(**matcher, objective,
                                                   setup.options);
    ASSERT_TRUE(direct.ok()) << direct.status();
    for (size_t threads : {1u, 2u, 4u}) {
      for (size_t shard_size : {1u, 7u, 0u}) {
        engine::BatchMatchOptions bopts;
        bopts.num_threads = threads;
        bopts.shard_size = shard_size;
        bopts.prepared_repository = &*prepared;
        bopts.adaptive = testing::FixedPolicy(limit);
        engine::BatchMatchStats stats;
        auto sparse = engine::BatchMatchEngine(bopts).Run(
            **matcher, setup.query, setup.repo, setup.options, &stats);
        ASSERT_TRUE(sparse.ok()) << sparse.status();
        ExpectIdentical(*sparse, *direct,
                        std::string(GetParam()) +
                            " C=" + std::to_string(limit) +
                            " threads=" + std::to_string(threads) +
                            " shard_size=" + std::to_string(shard_size));
        EXPECT_EQ(stats.match.candidates_generated,
                  candidates->candidates_generated());
        EXPECT_EQ(stats.adaptive.rounds, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Matchers, SparseDenseEquivalenceTest,
                         ::testing::Values("exhaustive", "beam", "topk"));

TEST(SparseEngineTest, RejectsForeignIndex) {
  EquivSetup setup = MakeSetup(6, 15);
  auto matcher = match::MakeMatcher("exhaustive", setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();

  auto prepared =
      PreparedRepository::Build(setup.repo, setup.options.objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  // A prebuilt index over a different repository object is rejected.
  EquivSetup other = MakeSetup(6, 16);
  engine::BatchMatchOptions bopts;
  bopts.adaptive = testing::FixedPolicy(4);
  bopts.prepared_repository = &*prepared;
  engine::BatchMatchEngine mismatched(bopts);
  EXPECT_FALSE(
      mismatched.Run(**matcher, other.query, other.repo, other.options)
          .ok());
}

TEST(SparseEngineTest, ClusterMatcherFallsBackIgnoringCandidates) {
  EquivSetup setup = MakeSetup(10, 17);
  auto matcher = match::MakeMatcher("cluster", setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();

  auto direct = (*matcher)->Match(setup.query, setup.repo, setup.options);
  ASSERT_TRUE(direct.ok()) << direct.status();

  engine::BatchMatchOptions bopts;
  bopts.adaptive = testing::FixedPolicy(4);
  engine::BatchMatchEngine engine(bopts);
  engine::BatchMatchStats stats;
  auto run =
      engine.Run(**matcher, setup.query, setup.repo, setup.options, &stats);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(stats.fell_back_to_single_run);
  ExpectIdentical(*run, *direct, "cluster fallback");
}

}  // namespace
}  // namespace smb::index
