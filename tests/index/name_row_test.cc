#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "index/candidate_generator.h"
#include "index/prepared_repository.h"
#include "match/objective.h"
#include "sim/synonyms.h"

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

constexpr double kInf = std::numeric_limits<double>::infinity();

/// (raw name, declared type) pairs: case variants fold together,
/// "customer"/"client" and "order"/"purchase" are whole-name synonyms, and
/// "price" is declared under three types.
const std::vector<std::pair<std::string, std::string>>& Vocabulary() {
  static const std::vector<std::pair<std::string, std::string>> kVocabulary = {
      {"customer", ""},      {"Customer", "string"}, {"client", ""},
      {"order", ""},         {"purchase", ""},       {"orderId", "string"},
      {"price", "decimal"},  {"price", "string"},    {"Price", ""},
      {"cost", "decimal"},   {"item", ""},           {"qty", "int"},
      {"zipCode", "string"}, {"name", "string"},     {"note", ""},
  };
  return kVocabulary;
}

schema::SchemaRepository MakeMixedSizeRepo() {
  const std::vector<size_t> fixed_sizes = {4, 8, 16, 17, 64, 3, 72, 33};
  schema::SchemaRepository repo;
  Rng rng(77);
  const auto& vocabulary = Vocabulary();
  for (size_t si = 0; si < 30; ++si) {
    const size_t size = si < fixed_sizes.size()
                            ? fixed_sizes[si]
                            : 3 + rng.UniformIndex(70);
    schema::Schema schema("s" + std::to_string(si));
    const auto& [root_name, root_type] =
        vocabulary[rng.UniformIndex(vocabulary.size())];
    std::vector<schema::NodeId> nodes = {
        schema.AddRoot(root_name, root_type).value()};
    while (nodes.size() < size) {
      const auto& [name, type] =
          vocabulary[rng.UniformIndex(vocabulary.size())];
      const schema::NodeId parent = nodes[rng.UniformIndex(nodes.size())];
      nodes.push_back(schema.AddChild(parent, name, type).value());
    }
    repo.Add(std::move(schema)).value();
  }
  return repo;
}

/// order { customer, price :decimal, orderId :string, zipCode }: five
/// positions, so at Δ 0.25 only full coverage certifies and the adaptive
/// rounds are planned.
schema::Schema MakeQuery() {
  schema::Schema q("query");
  const schema::NodeId root = q.AddRoot("order").value();
  q.AddChild(root, "customer").value();
  q.AddChild(root, "price", "decimal").value();
  q.AddChild(root, "orderId", "string").value();
  q.AddChild(root, "zipCode").value();
  return q;
}

match::ObjectiveOptions MakeObjective() {
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  match::ObjectiveOptions objective;
  objective.name.synonyms = &kTable;
  objective.type_mismatch_penalty = 0.3;
  return objective;
}

/// Per (position, schema), the unmemoized cost of every node, by node id.
std::vector<std::vector<double>> OracleCosts(
    const schema::SchemaRepository& repo, const schema::Schema& query,
    const match::ObjectiveOptions& objective) {
  const std::vector<schema::NodeId> preorder = query.PreOrder();
  std::vector<std::vector<double>> costs(preorder.size() *
                                         repo.schema_count());
  for (size_t pos = 0; pos < preorder.size(); ++pos) {
    const schema::SchemaNode& qnode = query.node(preorder[pos]);
    for (size_t si = 0; si < repo.schema_count(); ++si) {
      const schema::Schema& schema = repo.schema(static_cast<int32_t>(si));
      std::vector<double>& cell = costs[pos * repo.schema_count() + si];
      for (size_t n = 0; n < schema.size(); ++n) {
        cell.push_back(match::ComputeNodeCost(
            qnode, schema.node(static_cast<schema::NodeId>(n)), objective));
      }
    }
  }
  return costs;
}

/// The oracle's full list: every node, sorted by (cost, node).
std::vector<match::CandidateEntry> OracleList(
    const std::vector<double>& costs) {
  std::vector<match::CandidateEntry> list;
  for (size_t n = 0; n < costs.size(); ++n) {
    list.push_back({static_cast<schema::NodeId>(n), costs[n]});
  }
  std::sort(list.begin(), list.end(),
            [](const match::CandidateEntry& a, const match::CandidateEntry& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              return a.node < b.node;
            });
  return list;
}

void ExpectSameList(const std::vector<match::CandidateEntry>& got,
                    const std::vector<match::CandidateEntry>& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << label << " rank " << i;
    EXPECT_EQ(got[i].cost, want[i].cost) << label << " rank " << i;
  }
}

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
