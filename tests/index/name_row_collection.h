#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "index/candidate_generator.h"
#include "match/objective.h"
#include "schema/repository.h"
#include "schema/schema.h"
#include "sim/synonyms.h"

/// \file name_row_collection.h
/// \brief The collection the name-row tests share: a small vocabulary
/// repeated within and across schemas of mixed sizes (3 to 72 nodes), so
/// one query position has both full and partial cells, and the large
/// schemas hold many nodes of equal cost whose order only the node
/// tie-break decides. Schemas of exactly 4, 8 and 16 nodes put a cell on
/// the `limit ≥ |schema|` boundary. Plus the unmemoized cost oracle.

namespace smb::index::name_row_testing {

/// (raw name, declared type) pairs: case variants fold together,
/// "customer"/"client" and "order"/"purchase" are whole-name synonyms, and
/// "price" is declared under three types.
inline const std::vector<std::pair<std::string, std::string>>& Vocabulary() {
  static const std::vector<std::pair<std::string, std::string>> kVocabulary = {
      {"customer", ""},      {"Customer", "string"}, {"client", ""},
      {"order", ""},         {"purchase", ""},       {"orderId", "string"},
      {"price", "decimal"},  {"price", "string"},    {"Price", ""},
      {"cost", "decimal"},   {"item", ""},           {"qty", "int"},
      {"zipCode", "string"}, {"name", "string"},     {"note", ""},
  };
  return kVocabulary;
}

inline schema::SchemaRepository MakeMixedSizeRepo() {
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
inline schema::Schema MakeQuery() {
  schema::Schema q("query");
  const schema::NodeId root = q.AddRoot("order").value();
  q.AddChild(root, "customer").value();
  q.AddChild(root, "price", "decimal").value();
  q.AddChild(root, "orderId", "string").value();
  q.AddChild(root, "zipCode").value();
  return q;
}

inline match::ObjectiveOptions MakeObjective() {
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  match::ObjectiveOptions objective;
  objective.name.synonyms = &kTable;
  objective.type_mismatch_penalty = 0.3;
  return objective;
}

/// Per (position, schema), the unmemoized cost of every node, by node id.
inline std::vector<std::vector<double>> OracleCosts(
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
inline std::vector<match::CandidateEntry> OracleList(
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

inline void ExpectSameList(const std::vector<match::CandidateEntry>& got,
                    const std::vector<match::CandidateEntry>& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << label << " rank " << i;
    EXPECT_EQ(got[i].cost, want[i].cost) << label << " rank " << i;
  }
}

}  // namespace smb::index::name_row_testing
