#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../testing/fixtures.h"
#include "../testing/tree_shapes.h"
#include "../testing/tree_walk.h"
#include "match/objective.h"
#include "schema/repository.h"

/// \file edge_cost_table_test.cc
/// \brief The objective's edge cost, read from the repository's relation
/// codes, against the same penalties computed from parent-pointer walks, for
/// every ordered node pair of every schema. Compared with `EXPECT_EQ`: every
/// Δ rests on these values being bit-identical.

namespace smb::match {
namespace {

using schema::NodeId;
using schema::Schema;
using testing::MakeMixedRepo;

/// The edge cost by tree walks.
double WalkEdgeCost(const Schema& s, NodeId parent_target,
                    NodeId child_target, const ObjectiveOptions& o) {
  if (parent_target == child_target) return o.collapsed_penalty;
  const schema::SchemaNode& child = s.node(child_target);
  if (child.parent == parent_target) return 0.0;  // edge preserved
  if (testing::IsAncestor(s, parent_target, child_target)) {
    int gap = child.depth - s.node(parent_target).depth;
    return std::min(1.0, o.ancestor_penalty_base +
                             o.ancestor_penalty_step *
                                 static_cast<double>(gap - 1));
  }
  if (testing::IsAncestor(s, child_target, parent_target)) {
    return o.inverted_penalty;
  }
  int dist = testing::TreeDistance(s, parent_target, child_target);
  return std::min(1.0, o.unrelated_penalty_base +
                           o.unrelated_penalty_step *
                               static_cast<double>(std::max(0, dist - 2)));
}

void ExpectTableMatchesWalks(const schema::SchemaRepository& repo,
                             const ObjectiveOptions& options) {
  Schema query = testing::MakeQuery();
  ObjectiveFunction objective(&query, &repo, options);
  for (size_t si = 0; si < repo.schema_count(); ++si) {
    const auto schema_index = static_cast<int32_t>(si);
    const Schema& s = repo.schema(schema_index);
    const auto n = static_cast<NodeId>(s.size());
    for (NodeId p = 0; p < n; ++p) {
      const schema::RelationCode* codes =
          objective.EdgeCodes(schema_index, p);
      for (NodeId c = 0; c < n; ++c) {
        const double walked = WalkEdgeCost(s, p, c, options);
        ASSERT_EQ(objective.EdgeCost(schema_index, p, c), walked)
            << "schema " << si << " (" << s.name() << "), " << p << " -> "
            << c;
        // The enumerators' path: the parent's code row, then the child.
        ASSERT_EQ(objective.AssignCostWithNodeCost(codes, c, 0.5),
                  options.weight_name * 0.5 +
                      options.weight_structure * walked);
      }
    }
  }
}

TEST(EdgeCostTableTest, DefaultOptionsMatchWalks) {
  ExpectTableMatchesWalks(MakeMixedRepo(), ObjectiveOptions{});
}

TEST(EdgeCostTableTest, StepsThatNeverReachTheCapMatchWalks) {
  // With tiny steps, every gap and distance of the 40-deep chain gives its
  // own cost below 1: a saturated code would show here.
  ObjectiveOptions options;
  options.ancestor_penalty_step = 0.001;
  options.unrelated_penalty_step = 0.001;
  ExpectTableMatchesWalks(MakeMixedRepo(), options);
}

TEST(EdgeCostTableTest, StepsThatHitTheCapEarlyMatchWalks) {
  ObjectiveOptions options;
  options.ancestor_penalty_base = 0.7;
  options.ancestor_penalty_step = 0.3;
  options.unrelated_penalty_step = 0.45;
  options.collapsed_penalty = 0.9;
  ExpectTableMatchesWalks(MakeMixedRepo(), options);
}

TEST(EdgeCostTableTest, RootPositionHasNoEdgeRow) {
  schema::SchemaRepository repo = testing::MakeRepo();
  Schema query = testing::MakeQuery();
  ObjectiveFunction objective(&query, &repo);
  EXPECT_EQ(objective.EdgeCodes(0, schema::kInvalidNode), nullptr);
  EXPECT_EQ(objective.AssignCostWithNodeCost(nullptr, 2, 0.25),
            objective.options().weight_name * 0.25);
}

}  // namespace
}  // namespace smb::match
