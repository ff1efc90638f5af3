#include "match/objective.h"

#include <gtest/gtest.h>

#include "../testing/fixtures.h"

namespace smb::match {
namespace {

using testing::MakeHostWithExactCopy;
using testing::MakeQuery;
using testing::MakeRepo;

TEST(ObjectiveTest, PreorderAndParentPositions) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  ObjectiveFunction obj(&query, &repo);
  ASSERT_EQ(obj.query_preorder().size(), 3u);
  EXPECT_EQ(obj.parent_position()[0], ObjectiveFunction::kNoParent);
  EXPECT_EQ(obj.parent_position()[1], 0u);
  EXPECT_EQ(obj.parent_position()[2], 0u);
}

TEST(ObjectiveTest, NormalizerFormula) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  ObjectiveOptions options;
  options.weight_name = 0.6;
  options.weight_structure = 0.4;
  ObjectiveFunction obj(&query, &repo, options);
  // m=3: 0.6*3 + 0.4*2 = 2.6
  EXPECT_NEAR(obj.normalizer(), 2.6, 1e-12);
}

TEST(ObjectiveTest, SingleElementQueryNormalizer) {
  schema::Schema query("q");
  query.AddRoot("order").value();
  schema::SchemaRepository repo = MakeRepo();
  ObjectiveFunction obj(&query, &repo);
  EXPECT_NEAR(obj.normalizer(), 0.6, 1e-12);
}

TEST(ObjectiveTest, ExactCopyHasDeltaZero) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  ObjectiveFunction obj(&query, &repo);
  // Schema 0 nodes 1,2,3 are the exact copy (order, orderId, customer).
  EXPECT_NEAR(obj.Delta(0, {1, 2, 3}), 0.0, 1e-12);
}

TEST(ObjectiveTest, SynonymCopyHasSmallDelta) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  ObjectiveOptions options;
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  options.name.synonyms = &kTable;
  ObjectiveFunction obj(&query, &repo, options);
  // Schema 1 nodes 1,2,3: purchase, purchaseId, client.
  double synonym_delta = obj.Delta(1, {1, 2, 3});
  EXPECT_GT(synonym_delta, 0.0);
  EXPECT_LT(synonym_delta, 0.2);
  // A mapping into the distractor scores far worse.
  double distractor_delta = obj.Delta(2, {1, 2, 3});
  EXPECT_GT(distractor_delta, synonym_delta + 0.2);
}

TEST(ObjectiveTest, EdgeCostPreservedEdgeIsZero) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  ObjectiveFunction obj(&query, &repo);
  // In schema 0: node 1 (order) is the parent of node 2 (orderId).
  EXPECT_DOUBLE_EQ(obj.EdgeCost(0, 1, 2), 0.0);
}

TEST(ObjectiveTest, EdgeCostRanking) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  ObjectiveOptions options;
  ObjectiveFunction obj(&query, &repo, options);
  // Schema 0: store(0){ order(1){orderId(2), customer(3)}, inventory(4){product(5)} }
  double preserved = obj.EdgeCost(0, 1, 2);    // parent-child
  double ancestor = obj.EdgeCost(0, 0, 2);     // grandparent
  double inverted = obj.EdgeCost(0, 2, 1);     // child above parent
  double unrelated = obj.EdgeCost(0, 2, 5);    // cousins
  double collapsed = obj.EdgeCost(0, 2, 2);    // same node
  EXPECT_LT(preserved, ancestor);
  EXPECT_LT(ancestor, unrelated);
  EXPECT_LT(unrelated, inverted);
  EXPECT_DOUBLE_EQ(collapsed, options.collapsed_penalty);
}

TEST(ObjectiveTest, AncestorPenaltyGrowsWithGap) {
  // Build a deep chain to compare ancestor gaps.
  schema::Schema deep("deep");
  auto a = deep.AddRoot("a").value();
  auto b = deep.AddChild(a, "b").value();
  auto c = deep.AddChild(b, "c").value();
  auto d = deep.AddChild(c, "d").value();
  schema::SchemaRepository repo;
  repo.Add(std::move(deep)).value();
  schema::Schema query = MakeQuery();
  ObjectiveFunction obj(&query, &repo);
  double gap2 = obj.EdgeCost(0, a, c);
  double gap3 = obj.EdgeCost(0, a, d);
  EXPECT_GT(gap3, gap2);
  EXPECT_LE(gap3, 1.0);
}

TEST(ObjectiveTest, TypeMismatchAddsPenalty) {
  schema::Schema query = MakeQuery();  // orderId :string
  schema::SchemaRepository repo;
  schema::Schema host("h");
  auto root = host.AddRoot("store").value();
  auto order = host.AddChild(root, "order").value();
  host.AddChild(order, "orderId", "int").value();     // type clash
  host.AddChild(order, "customer").value();
  repo.Add(std::move(host)).value();

  ObjectiveOptions with_types;
  with_types.type_aware = true;
  ObjectiveFunction obj(&query, &repo, with_types);
  double cost_clash = obj.NodeCost(1, 0, 2);

  ObjectiveOptions no_types;
  no_types.type_aware = false;
  ObjectiveFunction obj2(&query, &repo, no_types);
  double cost_ignored = obj2.NodeCost(1, 0, 2);
  EXPECT_NEAR(cost_clash, cost_ignored + with_types.type_mismatch_penalty,
              1e-12);
}

TEST(ObjectiveTest, DeltaMatchesSumOfAssignCosts) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  ObjectiveFunction obj(&query, &repo);
  std::vector<schema::NodeId> targets = {0, 4, 5};
  double manual = obj.AssignCost(0, 0, 0, nullptr) +
                  obj.AssignCost(1, 0, 4, obj.EdgeCodes(0, 0)) +
                  obj.AssignCost(2, 0, 5, obj.EdgeCodes(0, 0));
  EXPECT_NEAR(obj.Delta(0, targets), manual / obj.normalizer(), 1e-12);
}

TEST(ObjectiveTest, NodeCostCachedAcrossCalls) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  ObjectiveFunction obj(&query, &repo);
  double first = obj.NodeCost(0, 0, 1);
  double second = obj.NodeCost(0, 0, 1);
  EXPECT_DOUBLE_EQ(first, second);
}

TEST(ObjectiveTest, DeltaBoundedByOne) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  ObjectiveFunction obj(&query, &repo);
  for (int32_t s = 0; s < 3; ++s) {
    const auto& schema = repo.schema(s);
    size_t n = schema.size();
    // Probe a few arbitrary assignments.
    for (size_t i = 0; i + 2 < n; ++i) {
      double delta = obj.Delta(s, {static_cast<schema::NodeId>(i),
                                   static_cast<schema::NodeId>(i + 1),
                                   static_cast<schema::NodeId>(i + 2)});
      EXPECT_GE(delta, 0.0);
      EXPECT_LE(delta, 1.0 + 1e-12);
    }
  }
}

}  // namespace
}  // namespace smb::match
