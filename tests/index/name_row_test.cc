#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "index/candidate_generator.h"
#include "index/prepared_repository.h"
#include "match/objective.h"
#include "name_row_collection.h"

/// Name rows and the gather (candidate_generator.h): a cell whose limit
/// reaches its schema size is filled from one batched similarity row per
/// query position instead of retrieval, the WAND walk and the heap.
///
/// The collection repeats a small vocabulary within and across schemas of
/// mixed sizes (3 to 72 nodes), so one query position has both full and
/// partial cells, and the large schemas hold many nodes of equal cost whose
/// order only the node tie-break decides. Schemas of exactly 4, 8 and 16
/// nodes put a cell on the `limit ≥ |schema|` boundary. Every full cell must
/// equal an oracle that costs every node through the unmemoized
/// `match::ComputeNodeCost` and sorts by (cost, node), with skip-bound
/// +infinity; every partial cell must equal a fresh single-threaded `Generate`
/// at its limit, and each of its costs the oracle's.

namespace smb::index {
namespace {

using name_row_testing::ExpectSameList;
using name_row_testing::MakeMixedSizeRepo;
using name_row_testing::MakeObjective;
using name_row_testing::MakeQuery;
using name_row_testing::OracleCosts;
using name_row_testing::OracleList;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// How many cells of one output were full and partial, and whether some
/// position had both.
struct CellCensus {
  size_t full = 0;
  size_t partial = 0;
  bool mixed_position = false;
};

TEST(NameRowTest, GatheredCellsMatchOracleAndPartialCellsMatchGenerate) {
  const schema::SchemaRepository repo = MakeMixedSizeRepo();
  const match::ObjectiveOptions objective = MakeObjective();
  auto prepared = PreparedRepository::Build(repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const schema::Schema query = MakeQuery();
  const size_t m = query.PreOrder().size();
  const size_t schema_count = repo.schema_count();
  const std::vector<std::vector<double>> oracle =
      OracleCosts(repo, query, objective);
  size_t max_size = 0;
  for (size_t si = 0; si < schema_count; ++si) {
    max_size = std::max(max_size, repo.schema(static_cast<int32_t>(si)).size());
  }

  // Partial cells are checked against a fresh single-threaded `Generate`
  // at their limit with the same traversal and cutoff settings (both may
  // lower a skip-bound), cached by (block_max, cutoff, limit).
  std::map<std::tuple<bool, bool, size_t>, QueryCandidates> references;
  auto reference_at = [&](bool block_max, bool cutoff,
                          size_t limit) -> const QueryCandidates& {
    auto it = references.find({block_max, cutoff, limit});
    if (it == references.end()) {
      CandidateGenerator fresh(&*prepared, objective);
      fresh.set_block_max_enabled(block_max);
      fresh.set_cutoff_enabled(cutoff);
      auto generated = fresh.Generate(query, limit);
      EXPECT_TRUE(generated.ok()) << generated.status();
      it = references
               .emplace(std::make_tuple(block_max, cutoff, limit),
                        std::move(generated).value())
               .first;
    }
    return it->second;
  };

  bool block_max = true;
  bool cutoff = true;
  auto check = [&](const QueryCandidates& candidates,
                   const std::string& label) {
    CellCensus census;
    for (size_t pos = 0; pos < m; ++pos) {
      bool any_full = false;
      bool any_partial = false;
      for (size_t si = 0; si < schema_count; ++si) {
        const auto schema_index = static_cast<int32_t>(si);
        const std::string cell = label + " cell (" + std::to_string(pos) +
                                 ", " + std::to_string(si) + ")";
        const auto& entries = *candidates.CandidatesFor(pos, schema_index);
        const std::vector<double>& costs = oracle[pos * schema_count + si];
        if (entries.size() == costs.size()) {
          any_full = true;
          ++census.full;
          ExpectSameList(entries, OracleList(costs), cell);
          EXPECT_EQ(candidates.SkipLowerBound(pos, schema_index), kInf)
              << cell;
          continue;
        }
        any_partial = true;
        ++census.partial;
        for (const match::CandidateEntry& entry : entries) {
          EXPECT_EQ(entry.cost, costs[static_cast<size_t>(entry.node)])
              << cell << " node " << entry.node;
        }
        const QueryCandidates& want =
            reference_at(block_max, cutoff, entries.size());
        ExpectSameList(entries, *want.CandidatesFor(pos, schema_index), cell);
        EXPECT_EQ(candidates.SkipLowerBound(pos, schema_index),
                  want.SkipLowerBound(pos, schema_index))
            << cell;
      }
      census.mixed_position |= any_full && any_partial;
    }
    return census;
  };

  for (size_t threads : {1u, 2u, 3u}) {
    for (bool block_max_on : {true, false}) {
      for (bool cutoff_on : {true, false}) {
        block_max = block_max_on;
        cutoff = cutoff_on;
        const std::string label = "threads=" + std::to_string(threads) +
                                  " block_max=" + std::to_string(block_max) +
                                  " cutoff=" + std::to_string(cutoff);
        CandidateGenerator generator(&*prepared, objective);
        generator.set_num_threads(threads);
        generator.set_block_max_enabled(block_max);
        generator.set_cutoff_enabled(cutoff);

        // Planned adaptive generation: limits 4, 8, 16, … per cell.
        AdaptiveCandidatePolicy policy;
        policy.min_provable_completeness = 0.9;
        policy.initial_limit = 4;
        AdaptiveGenerationStats stats;
        auto adaptive = generator.GenerateAdaptive(query, policy, 0.25, &stats);
        ASSERT_TRUE(adaptive.ok()) << adaptive.status();
        const CellCensus planned = check(*adaptive, label + " adaptive");
        EXPECT_GT(planned.full, 0u) << label;
        EXPECT_GT(planned.partial, 0u) << label;
        EXPECT_TRUE(planned.mixed_position) << label;

        // A uniform limit equal to one schema's size (16 nodes; the
        // 17-node schema stays partial).
        auto fixed = generator.Generate(query, 16);
        ASSERT_TRUE(fixed.ok()) << fixed.status();
        const CellCensus at_16 = check(*fixed, label + " C=16");
        EXPECT_TRUE(at_16.mixed_position) << label;
        for (size_t pos = 0; pos < m; ++pos) {
          EXPECT_EQ(fixed->CandidatesFor(pos, 2)->size(), 16u) << label;
          EXPECT_EQ(fixed->SkipLowerBound(pos, 2), kInf) << label;
          EXPECT_EQ(fixed->CandidatesFor(pos, 3)->size(), 16u) << label;
        }

        // Every cell full, by a fixed limit and by target 1.0.
        auto everything = generator.Generate(query, max_size);
        ASSERT_TRUE(everything.ok()) << everything.status();
        EXPECT_EQ(check(*everything, label + " C=max").partial, 0u) << label;
        policy.min_provable_completeness = 1.0;
        auto complete = generator.GenerateAdaptive(query, policy, 0.25, &stats);
        ASSERT_TRUE(complete.ok()) << complete.status();
        EXPECT_EQ(check(*complete, label + " target=1").partial, 0u) << label;
        EXPECT_EQ(stats.names_scored, m * prepared->name_count()) << label;
      }
    }
  }
}

}  // namespace
}  // namespace smb::index
