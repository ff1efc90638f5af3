#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "index/candidate_generator.h"
#include "index/prepared_repository.h"
#include "index/snapshot.h"
#include "match/objective.h"
#include "sim/synonyms.h"

/// The name dictionary of `PreparedRepository` (`name_id`, `name_count`)
/// and the per-position name memo of candidate generation built on it.
///
/// The collection reuses names heavily: the same folded name across
/// schemas and within one schema, raw spellings that differ only in case,
/// whole-name synonyms, and one name declared under different types. Every
/// cell whose list covers its whole schema must equal a brute-force oracle
/// that costs every node through the unmemoized
/// `match::ComputeNodeCost(q, qp, t, tp, options)`; every kept cost of any
/// other cell must equal that oracle's cost of the same node, and the cell
/// must equal `Generate` at its list size in a fresh generator.

namespace smb::index {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// (raw name, declared type) pairs the schemas draw from. Case variants
/// fold together; "customer"/"client"/"buyer" and "order"/"purchase" are
/// whole-name synonyms; "price" is declared decimal, string and untyped.
const std::vector<std::pair<std::string, std::string>>& Vocabulary() {
  static const std::vector<std::pair<std::string, std::string>> kVocabulary = {
      {"customer", ""},     {"Customer", "string"}, {"CUSTOMER", ""},
      {"client", ""},       {"buyer", "string"},    {"order", ""},
      {"Order", ""},        {"purchase", ""},       {"orderId", "string"},
      {"OrderID", "int"},   {"price", "decimal"},   {"price", "string"},
      {"Price", ""},        {"cost", "decimal"},    {"item", ""},
      {"product", ""},      {"qty", "int"},         {"quantity", "int"},
      {"address", "string"}, {"zipCode", "string"}, {"name", "string"},
      {"title", "string"},  {"shipDate", "date"},   {"note", ""},
  };
  return kVocabulary;
}

schema::SchemaRepository MakeRepeatedNameRepo() {
  schema::SchemaRepository repo;
  Rng rng(2024);
  const auto& vocabulary = Vocabulary();
  for (size_t si = 0; si < 24; ++si) {
    schema::Schema schema("s" + std::to_string(si));
    const auto& [root_name, root_type] =
        vocabulary[rng.UniformIndex(vocabulary.size())];
    std::vector<schema::NodeId> nodes = {
        schema.AddRoot(root_name, root_type).value()};
    const size_t children = 3 + rng.UniformIndex(8);
    for (size_t c = 0; c < children; ++c) {
      const auto& [name, type] =
          vocabulary[rng.UniformIndex(vocabulary.size())];
      const schema::NodeId parent = nodes[rng.UniformIndex(nodes.size())];
      nodes.push_back(schema.AddChild(parent, name, type).value());
    }
    if (si == 0) {
      // The same name twice within one schema, and the same folded name
      // under a different declared type.
      schema.AddChild(nodes[0], "price", "decimal").value();
      schema.AddChild(nodes[0], "price", "decimal").value();
      schema.AddChild(nodes[0], "PRICE", "string").value();
    }
    repo.Add(std::move(schema)).value();
  }
  return repo;
}

/// order { customer, price :decimal, orderId :string, zipCode }: typed
/// positions see the type penalty vary among elements sharing a name.
schema::Schema MakeQuery() {
  schema::Schema q("query");
  const schema::NodeId root = q.AddRoot("order").value();
  q.AddChild(root, "customer").value();
  q.AddChild(root, "price", "decimal").value();
  q.AddChild(root, "orderId", "string").value();
  q.AddChild(root, "zipCode").value();
  return q;
}

/// One typed position: with m = 1 the round loop runs even at Δ 0.25, and
/// its escalation rounds revisit the same position.
schema::Schema MakeOneNodeQuery() {
  schema::Schema q("one");
  q.AddRoot("Price", "decimal").value();
  return q;
}

match::ObjectiveOptions MakeObjective(double type_mismatch_penalty) {
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  match::ObjectiveOptions objective;
  objective.name.synonyms = &kTable;
  objective.type_mismatch_penalty = type_mismatch_penalty;
  return objective;
}

/// Checks that `name_id` partitions the elements exactly by folded name,
/// with ids dense in [0, name_count()).
void ExpectNamePartition(const PreparedRepository& prepared,
                         const std::string& label) {
  std::unordered_map<std::string, uint32_t> id_of_folded;
  std::unordered_map<uint32_t, std::string> folded_of_id;
  for (uint32_t o = 0; o < prepared.element_count(); ++o) {
    const std::string& folded = prepared.element(o).name.folded;
    const uint32_t id = prepared.name_id(o);
    ASSERT_LT(id, prepared.name_count()) << label << " ordinal " << o;
    auto [by_name, new_name] = id_of_folded.try_emplace(folded, id);
    EXPECT_EQ(by_name->second, id) << label << " ordinal " << o;
    auto [by_id, new_id] = folded_of_id.try_emplace(id, folded);
    EXPECT_EQ(by_id->second, folded) << label << " ordinal " << o;
  }
  EXPECT_EQ(id_of_folded.size(), prepared.name_count()) << label;
  EXPECT_EQ(folded_of_id.size(), prepared.name_count()) << label;
}

TEST(NameDictionaryTest, IdsPartitionElementsByFoldedName) {
  const schema::SchemaRepository repo = MakeRepeatedNameRepo();
  const match::ObjectiveOptions objective = MakeObjective(0.1);
  auto prepared = PreparedRepository::Build(repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ExpectNamePartition(*prepared, "build");
  // Heavy reuse: far fewer names than elements.
  EXPECT_LT(prepared->name_count() * 4, prepared->element_count());

  // Raw spellings that differ only in case share one id; whole-name
  // synonyms do not.
  const int32_t s0 = 0;
  const schema::Schema& schema = repo.schema(s0);
  std::map<std::string, std::vector<uint32_t>> ids_by_raw;
  for (size_t n = 0; n < schema.size(); ++n) {
    const auto node = static_cast<schema::NodeId>(n);
    ids_by_raw[schema.node(node).name].push_back(
        prepared->name_id(prepared->OrdinalOf(s0, node)));
  }
  const std::vector<uint32_t>& price = ids_by_raw["price"];
  ASSERT_GE(price.size(), 2u);
  ASSERT_FALSE(ids_by_raw["PRICE"].empty());
  for (uint32_t id : price) EXPECT_EQ(id, price.front());
  EXPECT_EQ(ids_by_raw["PRICE"].front(), price.front());

  const auto customer = prepared->NameBucket("customer");
  const auto client = prepared->NameBucket("client");
  ASSERT_NE(customer, nullptr);
  ASSERT_NE(client, nullptr);
  EXPECT_NE(prepared->name_id(customer->front()),
            prepared->name_id(client->front()));

  // The ids survive every snapshot format and a file round-trip.
  for (uint32_t version = kSnapshotMinFormatVersion;
       version <= kSnapshotFormatVersion; ++version) {
    auto bytes = EncodeSnapshotForVersion(*prepared, version);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    for (size_t threads : {1u, 3u}) {
      auto loaded = DecodeSnapshot(*bytes, repo, objective.name, threads);
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      const std::string label = "v" + std::to_string(version) +
                                " threads=" + std::to_string(threads);
      ExpectNamePartition(*loaded, label);
      ASSERT_EQ(loaded->name_count(), prepared->name_count()) << label;
      for (uint32_t o = 0; o < prepared->element_count(); ++o) {
        EXPECT_EQ(loaded->name_id(o), prepared->name_id(o)) << label;
      }
    }
  }
  const std::string path = ::testing::TempDir() + "/smb_name_dictionary.bin";
  ASSERT_TRUE(SaveSnapshot(*prepared, path).ok());
  auto loaded = LoadSnapshot(path, repo, objective.name);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectNamePartition(*loaded, "file");
  EXPECT_EQ(loaded->name_count(), prepared->name_count());
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
}

/// The unmemoized node cost of every node of `schema_index` for query
/// position `pos`, by node id.
std::vector<double> OracleCosts(const PreparedRepository& prepared,
                                const schema::Schema& query, size_t pos,
                                int32_t schema_index,
                                const match::ObjectiveOptions& objective) {
  const schema::SchemaNode& qnode = query.node(query.PreOrder()[pos]);
  const sim::PreparedName qp =
      sim::PrepareName(qnode.name, objective.name, prepared.token_table());
  const schema::Schema& schema = prepared.repo().schema(schema_index);
  std::vector<double> costs(schema.size());
  for (size_t n = 0; n < schema.size(); ++n) {
    const auto node = static_cast<schema::NodeId>(n);
    const PreparedElement& element =
        prepared.element(prepared.OrdinalOf(schema_index, node));
    costs[n] = match::ComputeNodeCost(qnode, qp, schema.node(node),
                                      element.name, objective);
  }
  return costs;
}

TEST(NameDictionaryTest, MemoizedCostsMatchUnmemoizedOracle) {
  const schema::SchemaRepository repo = MakeRepeatedNameRepo();
  size_t full_cells = 0;
  size_t partial_cells = 0;
  for (double penalty : {0.1, 0.6}) {
    const match::ObjectiveOptions objective = MakeObjective(penalty);
    auto prepared = PreparedRepository::Build(repo, objective.name);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    for (const schema::Schema& query : {MakeQuery(), MakeOneNodeQuery()}) {
      // Oracle costs per (position, schema), computed once.
      const size_t m = query.PreOrder().size();
      std::vector<std::vector<double>> oracle(m * repo.schema_count());
      for (size_t pos = 0; pos < m; ++pos) {
        for (size_t si = 0; si < repo.schema_count(); ++si) {
          oracle[pos * repo.schema_count() + si] = OracleCosts(
              *prepared, query, pos, static_cast<int32_t>(si), objective);
        }
      }
      for (double delta : {0.02, 0.25}) {
        for (double target : {0.9, 1.0}) {
          for (bool block_max : {true, false}) {
            for (bool cutoff : {true, false}) {
              for (size_t threads : {1u, 3u}) {
                const std::string label =
                    "penalty=" + std::to_string(penalty) +
                    " m=" + std::to_string(m) +
                    " delta=" + std::to_string(delta) +
                    " target=" + std::to_string(target) +
                    " block_max=" + std::to_string(block_max) +
                    " cutoff=" + std::to_string(cutoff) +
                    " threads=" + std::to_string(threads);
                auto configure = [&](CandidateGenerator* generator) {
                  generator->set_block_max_enabled(block_max);
                  generator->set_cutoff_enabled(cutoff);
                  generator->set_num_threads(threads);
                };
                CandidateGenerator generator(&*prepared, objective);
                configure(&generator);
                AdaptiveCandidatePolicy policy;
                policy.min_provable_completeness = target;
                policy.initial_limit = 2;
                AdaptiveGenerationStats stats;
                auto candidates =
                    generator.GenerateAdaptive(query, policy, delta, &stats);
                ASSERT_TRUE(candidates.ok()) << candidates.status();
                EXPECT_LE(stats.names_scored, stats.costs_computed) << label;

                // Fixed-limit lists from a fresh generator, by limit.
                std::map<size_t, QueryCandidates> fixed;
                for (size_t pos = 0; pos < m; ++pos) {
                  for (size_t si = 0; si < repo.schema_count(); ++si) {
                    const auto schema_index = static_cast<int32_t>(si);
                    const std::string cell =
                        label + " cell (" + std::to_string(pos) + ", " +
                        std::to_string(si) + ")";
                    const auto& entries =
                        *candidates->CandidatesFor(pos, schema_index);
                    const std::vector<double>& costs =
                        oracle[pos * repo.schema_count() + si];
                    // Every kept cost is the unmemoized cost of its node.
                    for (const match::CandidateEntry& entry : entries) {
                      EXPECT_EQ(entry.cost,
                                costs[static_cast<size_t>(entry.node)])
                          << cell << " node " << entry.node;
                    }
                    if (entries.size() == costs.size()) {
                      ++full_cells;
                      std::vector<match::CandidateEntry> expected;
                      for (size_t n = 0; n < costs.size(); ++n) {
                        expected.push_back(
                            {static_cast<schema::NodeId>(n), costs[n]});
                      }
                      std::sort(expected.begin(), expected.end(),
                                [](const match::CandidateEntry& a,
                                   const match::CandidateEntry& b) {
                                  if (a.cost != b.cost) return a.cost < b.cost;
                                  return a.node < b.node;
                                });
                      for (size_t i = 0; i < expected.size(); ++i) {
                        EXPECT_EQ(entries[i].node, expected[i].node)
                            << cell << " rank " << i;
                        EXPECT_EQ(entries[i].cost, expected[i].cost)
                            << cell << " rank " << i;
                      }
                      EXPECT_EQ(candidates->SkipLowerBound(pos, schema_index),
                                kInf)
                          << cell;
                      continue;
                    }
                    ++partial_cells;
                    auto it = fixed.find(entries.size());
                    if (it == fixed.end()) {
                      CandidateGenerator fresh(&*prepared, objective);
                      configure(&fresh);
                      auto generated = fresh.Generate(query, entries.size());
                      ASSERT_TRUE(generated.ok()) << generated.status();
                      it = fixed.emplace(entries.size(),
                                         std::move(generated).value())
                               .first;
                    }
                    const auto& want = *it->second.CandidatesFor(pos,
                                                                 schema_index);
                    ASSERT_EQ(entries.size(), want.size()) << cell;
                    for (size_t i = 0; i < want.size(); ++i) {
                      EXPECT_EQ(entries[i].node, want[i].node)
                          << cell << " rank " << i;
                      EXPECT_EQ(entries[i].cost, want[i].cost)
                          << cell << " rank " << i;
                    }
                    EXPECT_EQ(candidates->SkipLowerBound(pos, schema_index),
                              it->second.SkipLowerBound(pos, schema_index))
                        << cell;
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(full_cells, 0u);
  EXPECT_GT(partial_cells, 0u);
}

TEST(NameDictionaryTest, MemoAbsorbsRepeatedNames) {
  const schema::SchemaRepository repo = MakeRepeatedNameRepo();
  const match::ObjectiveOptions objective = MakeObjective(0.1);
  auto prepared = PreparedRepository::Build(repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const schema::Schema query = MakeQuery();
  const size_t m = query.PreOrder().size();
  // Full coverage: every cell is gathered from its position's name row,
  // which scores each distinct name once, whatever the thread count.
  for (size_t threads : {1u, 2u, 3u}) {
    CandidateGenerator generator(&*prepared, objective);
    generator.set_cutoff_enabled(false);
    generator.set_num_threads(threads);
    AdaptiveCandidatePolicy policy;
    policy.min_provable_completeness = 1.0;
    AdaptiveGenerationStats stats;
    ASSERT_TRUE(generator.GenerateAdaptive(query, policy, 0.25, &stats).ok());
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(stats.costs_computed, m * prepared->element_count()) << label;
    EXPECT_EQ(stats.names_scored, m * prepared->name_count()) << label;
  }
  // A partial target with one thread: the rows hold the names of the
  // full cells and the memo scores each other name at most once per
  // position.
  CandidateGenerator generator(&*prepared, objective);
  AdaptiveCandidatePolicy policy;
  policy.min_provable_completeness = 0.9;
  policy.initial_limit = 2;
  AdaptiveGenerationStats stats;
  ASSERT_TRUE(generator.GenerateAdaptive(query, policy, 0.25, &stats).ok());
  EXPECT_LT(stats.cells_certified, stats.cells_total);
  EXPECT_LE(stats.names_scored, m * prepared->name_count());
}

}  // namespace
}  // namespace smb::index
