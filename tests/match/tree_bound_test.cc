#include "match/tree_bound.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "../testing/tree_shapes.h"
#include "common/rng.h"
#include "index/candidate_generator.h"
#include "index/prepared_repository.h"
#include "match/answer_set.h"
#include "match/dfs_oracle.h"
#include "match/exhaustive_matcher.h"
#include "match/objective.h"
#include "schema/repository.h"
#include "synth/generator.h"

/// \file tree_bound_test.cc
/// \brief The tree bound against plain enumeration (`dfs_oracle.h`): with
/// targets allowed to repeat it is the cheapest Σ of any mapping, with
/// injectivity a lower bound on it; the lazy budget never changes a bound
/// within it; and the candidate generator's schema filter keeps a schema
/// whose cheapest mapping sits right at the matchers' budget, where the
/// bound's own summation order may round above it.

namespace smb::match {
namespace {

using schema::NodeId;
using schema::Schema;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A random `m`-element query tree (each element under a random earlier
/// one, so ids need not be pre-order) whose names and types are copied from
/// random elements of `repo`, so node costs spread over [0, 1].
Schema RandomQuery(const schema::SchemaRepository& repo, size_t m,
                   uint64_t seed) {
  Rng rng(seed);
  auto random_node = [&]() -> const schema::SchemaNode& {
    const Schema& s = repo.schema(
        static_cast<int32_t>(rng.UniformIndex(repo.schema_count())));
    return s.node(static_cast<NodeId>(rng.UniformIndex(s.size())));
  };
  Schema query("query");
  const schema::SchemaNode& root = random_node();
  query.AddRoot(root.name, root.type).value();
  for (size_t i = 1; i < m; ++i) {
    const schema::SchemaNode& node = random_node();
    query
        .AddChild(static_cast<NodeId>(rng.UniformIndex(i)), node.name,
                  node.type)
        .value();
  }
  return query;
}

/// Node costs of every (position, node) of schema `si`, position-major.
std::vector<double> NodeCosts(const ObjectiveFunction& objective, int32_t si) {
  const size_t n = objective.repo().schema(si).size();
  const size_t m = objective.query_preorder().size();
  std::vector<double> costs(m * n);
  for (size_t pos = 0; pos < m; ++pos) {
    for (size_t t = 0; t < n; ++t) {
      costs[pos * n + t] =
          objective.NodeCost(pos, si, static_cast<NodeId>(t));
    }
  }
  return costs;
}

/// Σ of a mapping added in the enumerators' order.
double EnumeratorSum(const ObjectiveFunction& objective, int32_t si,
                     const std::vector<NodeId>& targets) {
  double sum = 0.0;
  for (size_t pos = 0; pos < targets.size(); ++pos) {
    const size_t parent = objective.parent_position()[pos];
    sum += objective.AssignCost(
        pos, si, targets[pos],
        objective.EdgeCodes(si, parent == ObjectiveFunction::kNoParent
                                    ? schema::kInvalidNode
                                    : targets[parent]));
  }
  return sum;
}

/// The oracle's answers in schema `si` alone at `delta` (no pruning).
AnswerSet OracleInSchema(const ObjectiveFunction& objective, int32_t si,
                         double delta, bool injective) {
  MatchOptions options;
  options.delta_threshold = delta;
  options.injective = injective;
  options.objective = objective.options();
  AnswerSet answers;
  oracle_internal::OracleSearch search(objective, options, OraclePrune::kNone,
                                       &answers, nullptr);
  search.RunSchema(si);
  answers.Finalize();
  return answers;
}

/// Cheapest Σ among `answers`, re-added in the enumerators' order.
double MinEnumeratorSum(const ObjectiveFunction& objective, int32_t si,
                        const AnswerSet& answers) {
  double best = kInf;
  for (const Mapping& mapping : answers.mappings()) {
    best = std::min(best, EnumeratorSum(objective, si, mapping.targets));
  }
  return best;
}

/// The largest query size in [3, 7] whose full enumeration of an
/// `n`-node schema stays within a few million states (at least 3).
size_t QuerySizeFor(size_t n, uint64_t seed) {
  constexpr double kMaxStates = 3e6;
  size_t m = 3;
  while (m < 7 &&
         std::pow(static_cast<double>(n), static_cast<double>(m + 1)) <=
             kMaxStates) {
    ++m;
  }
  return 3 + seed % (m - 2);  // a seeded size in [3, m]
}

/// The mixed repository of the edge-cost test plus two more random trees
/// with non-pre-order ids.
schema::SchemaRepository MakeTreeRepo() {
  schema::SchemaRepository repo = testing::MakeMixedRepo();
  repo.Add(testing::RandomTree(25, 5)).value();
  repo.Add(testing::RandomTree(12, 9)).value();
  return repo;
}

TEST(TreeBoundTest, EqualsTheCheapestMappingWithoutInjectivity) {
  const schema::SchemaRepository repo = MakeTreeRepo();
  size_t checked = 0;
  size_t injective_above = 0;
  for (size_t si = 0; si < repo.schema_count(); ++si) {
    const auto schema_index = static_cast<int32_t>(si);
    const size_t n = repo.schema(schema_index).size();
    for (uint64_t seed = 0; seed < 3; ++seed) {
      const Schema query =
          RandomQuery(repo, QuerySizeFor(n, seed + si), 100 * si + seed);
      const ObjectiveFunction objective(&query, &repo);
      const std::vector<double> costs = NodeCosts(objective, schema_index);
      TreeBound tree(&objective);
      const double bound = tree.MinSum(schema_index, costs, kInf);
      ASSERT_TRUE(std::isfinite(bound));
      SCOPED_TRACE(repo.schema(schema_index).name() + " (schema " +
                   std::to_string(si) + "), query of " +
                   std::to_string(query.size()) + ", seed " +
                   std::to_string(seed));

      // Every mapping within a hair of the bound, by plain enumeration:
      // the cheapest is there and equals the bound.
      const double norm = objective.normalizer();
      const AnswerSet near = OracleInSchema(objective, schema_index,
                                            bound / norm + 1e-9, false);
      ASSERT_FALSE(near.empty());
      EXPECT_NEAR(MinEnumeratorSum(objective, schema_index, near), bound,
                  1e-12);

      // With injectivity the search space shrinks: nothing below the bound.
      const AnswerSet injective = OracleInSchema(objective, schema_index,
                                                 bound / norm + 0.05, true);
      for (const Mapping& mapping : injective.mappings()) {
        EXPECT_GE(EnumeratorSum(objective, schema_index, mapping.targets),
                  bound - 1e-12);
      }
      if (injective.empty() || MinEnumeratorSum(objective, schema_index,
                                                injective) > bound + 1e-12) {
        ++injective_above;
      }

      // The lazy budget: a bound within it is unchanged, one over it stays
      // over it.
      EXPECT_EQ(tree.MinSum(schema_index, costs, bound + 1e-9), bound);
      EXPECT_GT(tree.MinSum(schema_index, costs, bound - 1e-9), bound - 1e-9);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 3 * repo.schema_count());
  // Collapsing two positions onto one target costs a full edge penalty, yet
  // some cheapest mappings still reuse a target.
  EXPECT_GT(injective_above, 0u);
}

TEST(TreeBoundTest, SingleElementQueryIsTheCheapestNode) {
  const schema::SchemaRepository repo = MakeTreeRepo();
  Schema query("one");
  query.AddRoot("leaf7").value();
  const ObjectiveFunction objective(&query, &repo);
  TreeBound tree(&objective);
  for (size_t si = 0; si < repo.schema_count(); ++si) {
    const auto schema_index = static_cast<int32_t>(si);
    const std::vector<double> costs = NodeCosts(objective, schema_index);
    EXPECT_EQ(tree.MinSum(schema_index, costs, kInf),
              objective.options().weight_name *
                  *std::min_element(costs.begin(), costs.end()));
  }
}

/// Searches Δ near `sum / norm` for one whose plain budget
/// `Δ·norm + 1e-12` lands in [sum, bound); NaN when none does.
double BudgetBetween(double sum, double bound, double norm) {
  double delta = (sum - 1e-12) / norm;
  for (int step = 0; step < 64; ++step) {
    const double budget = delta * norm + 1e-12;
    if (budget >= sum && budget < bound) return delta;
    delta = std::nextafter(delta, budget < sum ? kInf : -kInf);
  }
  return std::nan("");
}

TEST(TreeBoundTest, SchemaFilterKeepsAnswersAtTheBudgetEdge) {
  // Cases where the tree bound, summed in its own order, rounds above the
  // enumerators' Σ of the cheapest mapping, run at a Δ whose plain budget
  // lies between the two: the matcher keeps that mapping, so the filter
  // must keep its schema (its budget carries `kLookaheadSlack`).
  Rng rng(11);
  synth::SynthOptions sopts;
  sopts.num_schemas = 40;
  const synth::SyntheticCollection collection =
      synth::GenerateProblem(4, sopts, &rng).value();
  const schema::SchemaRepository& repo = collection.repository;
  const index::PreparedRepository prepared =
      index::PreparedRepository::Build(repo, ObjectiveOptions{}.name).value();
  const index::CandidateGenerator generator(&prepared, ObjectiveOptions{});
  index::AdaptiveCandidatePolicy exact;  // target 1.0: every cell full

  size_t edge_cases = 0;
  for (uint64_t seed = 0; seed < 60 && edge_cases < 6; ++seed) {
    const Schema query = RandomQuery(repo, 3 + seed % 3, 7000 + seed);
    const ObjectiveFunction objective(&query, &repo);
    const double norm = objective.normalizer();
    TreeBound tree(&objective);
    for (size_t si = 0; si < repo.schema_count(); ++si) {
      const auto schema_index = static_cast<int32_t>(si);
      const double bound =
          tree.MinSum(schema_index, NodeCosts(objective, schema_index), kInf);
      const double sum = MinEnumeratorSum(
          objective, schema_index,
          OracleInSchema(objective, schema_index, bound / norm + 1e-9, false));
      if (!(sum < bound)) continue;
      const double delta = BudgetBetween(sum, bound, norm);
      // Outside the planned regime the filter does not run.
      if (std::isnan(delta) ||
          objective.options().weight_name / norm > delta + 1e-9) {
        continue;
      }
      SCOPED_TRACE("seed " + std::to_string(seed) + ", schema " +
                   std::to_string(si));
      auto filtered = generator.GenerateForMatching(query, exact, delta);
      auto full = generator.GenerateAdaptive(query, exact, delta);
      ASSERT_TRUE(filtered.ok() && full.ok());
      EXPECT_FALSE(filtered->CandidatesFor(0, schema_index)->empty());

      MatchOptions options;
      options.delta_threshold = delta;
      options.injective = false;
      ExhaustiveMatcher matcher;
      AnswerSet with_filter;
      AnswerSet without;
      const ObjectiveFunction over_filtered(&query, &repo, options.objective,
                                            &*filtered);
      const ObjectiveFunction over_full(&query, &repo, options.objective,
                                        &*full);
      ASSERT_TRUE(matcher
                      .MatchSchemas(over_filtered, 0, repo.schema_count(),
                                    options, &with_filter, nullptr)
                      .ok());
      ASSERT_TRUE(matcher
                      .MatchSchemas(over_full, 0, repo.schema_count(), options,
                                    &without, nullptr)
                      .ok());
      with_filter.Finalize();
      without.Finalize();
      const auto in_schema = [&](const AnswerSet& answers) {
        return std::count_if(answers.mappings().begin(),
                             answers.mappings().end(),
                             [&](const Mapping& mapping) {
                               return mapping.schema_index == schema_index;
                             });
      };
      EXPECT_GT(in_schema(without), 0);
      EXPECT_EQ(in_schema(with_filter), in_schema(without));
      ASSERT_EQ(with_filter.size(), without.size());
      for (size_t i = 0; i < without.size(); ++i) {
        EXPECT_EQ(with_filter.mappings()[i].targets,
                  without.mappings()[i].targets);
        EXPECT_EQ(with_filter.mappings()[i].delta,
                  without.mappings()[i].delta);
      }
      ++edge_cases;
      break;  // one edge case per query
    }
  }
  EXPECT_GT(edge_cases, 0u);
}

}  // namespace
}  // namespace smb::match
