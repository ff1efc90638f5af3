#include "engine/similarity_matrix_pool.h"

#include <gtest/gtest.h>

#include "match/objective.h"
#include "synth/generator.h"
#include "../testing/fixtures.h"

namespace smb::engine {
namespace {

using testing::MakeQuery;
using testing::MakeRepo;

TEST(SimilarityMatrixPoolTest, MatchesObjectiveNodeCostExactly) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  match::ObjectiveOptions options;
  auto pool = SimilarityMatrixPool::Build(query, repo, options);
  ASSERT_TRUE(pool.ok()) << pool.status();

  // Fresh objective per check so its lazy cache starts cold.
  match::ObjectiveFunction objective(&query, &repo, options);
  ASSERT_EQ(pool->query_positions(), objective.query_preorder().size());
  for (int32_t si = 0; si < static_cast<int32_t>(repo.schema_count()); ++si) {
    const schema::Schema& s = repo.schema(si);
    for (size_t pos = 0; pos < pool->query_positions(); ++pos) {
      for (size_t node = 0; node < s.size(); ++node) {
        auto target = static_cast<schema::NodeId>(node);
        EXPECT_EQ(pool->cost(pos, si, target),
                  objective.NodeCost(pos, si, target))
            << "schema " << si << " pos " << pos << " node " << node;
      }
    }
  }
}

TEST(SimilarityMatrixPoolTest, MatchesNodeCostWithSynonymsAndTypes) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  match::ObjectiveOptions options;
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  options.name.synonyms = &kTable;
  options.type_aware = true;
  auto pool = SimilarityMatrixPool::Build(query, repo, options);
  ASSERT_TRUE(pool.ok()) << pool.status();

  match::ObjectiveFunction objective(&query, &repo, options);
  for (int32_t si = 0; si < static_cast<int32_t>(repo.schema_count()); ++si) {
    const schema::Schema& s = repo.schema(si);
    for (size_t pos = 0; pos < pool->query_positions(); ++pos) {
      for (size_t node = 0; node < s.size(); ++node) {
        auto target = static_cast<schema::NodeId>(node);
        EXPECT_EQ(pool->cost(pos, si, target),
                  objective.NodeCost(pos, si, target));
      }
    }
  }
}

TEST(SimilarityMatrixPoolTest, ParallelBuildIsIdenticalToSerialBuild) {
  Rng rng(42);
  synth::SynthOptions sopts;
  sopts.num_schemas = 24;
  auto collection = synth::GenerateProblem(4, sopts, &rng);
  ASSERT_TRUE(collection.ok()) << collection.status();

  match::ObjectiveOptions options;
  auto serial = SimilarityMatrixPool::Build(collection->query,
                                            collection->repository, options,
                                            /*num_threads=*/1);
  auto parallel = SimilarityMatrixPool::Build(collection->query,
                                              collection->repository, options,
                                              /*num_threads=*/8);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ASSERT_EQ(serial->schema_count(), parallel->schema_count());
  for (int32_t si = 0; si < static_cast<int32_t>(serial->schema_count());
       ++si) {
    const schema::Schema& s = collection->repository.schema(si);
    for (size_t pos = 0; pos < serial->query_positions(); ++pos) {
      for (size_t node = 0; node < s.size(); ++node) {
        auto target = static_cast<schema::NodeId>(node);
        EXPECT_EQ(serial->cost(pos, si, target),
                  parallel->cost(pos, si, target));
      }
    }
  }
}

TEST(SimilarityMatrixPoolTest, ObjectiveWithProviderAgreesWithLazyPath) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  match::ObjectiveOptions options;
  auto pool = SimilarityMatrixPool::Build(query, repo, options);
  ASSERT_TRUE(pool.ok()) << pool.status();

  match::ObjectiveFunction shared(&query, &repo, options, &*pool);
  match::ObjectiveFunction lazy(&query, &repo, options);
  // Full-Δ equality over some assignments exercises NodeCost through both
  // paths inside AssignCost. Targets must be valid nodes of the schema.
  std::vector<std::vector<schema::NodeId>> assignments = {
      {1, 2, 3}, {0, 1, 2}, {2, 1, 0}};
  for (const auto& targets : assignments) {
    for (int32_t si = 0; si < static_cast<int32_t>(repo.schema_count());
         ++si) {
      EXPECT_EQ(shared.Delta(si, targets), lazy.Delta(si, targets));
    }
  }
  // And one assignment using the deeper nodes of the first schema.
  EXPECT_EQ(shared.Delta(0, {0, 4, 5}), lazy.Delta(0, {0, 4, 5}));
}

TEST(SimilarityMatrixPoolTest, StatsReportShapes) {
  schema::Schema query = MakeQuery();  // 3 elements
  schema::SchemaRepository repo = MakeRepo();
  auto pool = SimilarityMatrixPool::Build(query, repo, {});
  ASSERT_TRUE(pool.ok()) << pool.status();
  EXPECT_EQ(pool->stats().schema_count, repo.schema_count());
  size_t expected_entries = 0;
  for (const auto& s : repo.schemas()) expected_entries += 3 * s.size();
  EXPECT_EQ(pool->stats().total_entries, expected_entries);
  EXPECT_GE(pool->stats().threads_used, 1u);
}

TEST(SimilarityMatrixPoolTest, RejectsEmptyQuery) {
  schema::Schema query("empty");
  schema::SchemaRepository repo = MakeRepo();
  auto pool = SimilarityMatrixPool::Build(query, repo, {});
  EXPECT_FALSE(pool.ok());
  EXPECT_EQ(pool.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace smb::engine
