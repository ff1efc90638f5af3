#include "index/candidate_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "index/prepared_repository.h"
#include "synth/generator.h"
#include "../testing/fixtures.h"

namespace smb::index {
namespace {

using testing::MakeQuery;
using testing::MakeRepo;

match::ObjectiveOptions SynonymObjective() {
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  match::ObjectiveOptions options;
  options.name.synonyms = &kTable;
  return options;
}

struct GeneratedSetup {
  schema::Schema query;
  schema::SchemaRepository repo;
};

GeneratedSetup MakeSynthetic(size_t num_schemas, uint64_t seed) {
  Rng rng(seed);
  synth::SynthOptions options;
  options.num_schemas = num_schemas;
  auto collection = synth::GenerateProblem(4, options, &rng).value();
  GeneratedSetup setup;
  setup.query = std::move(collection.query);
  setup.repo = std::move(collection.repository);
  return setup;
}

size_t MaxSchemaSize(const schema::SchemaRepository& repo) {
  size_t max_size = 0;
  for (const schema::Schema& s : repo.schemas()) {
    max_size = std::max(max_size, s.size());
  }
  return max_size;
}

/// Every candidate cost must reproduce the lazy objective's cost exactly, and
/// every skipped node's true cost must respect the skip-bound.
void CheckAgainstNodeCosts(const schema::Schema& query,
                           const schema::SchemaRepository& repo,
                           const match::ObjectiveOptions& objective,
                           const QueryCandidates& candidates) {
  const match::ObjectiveFunction lazy(&query, &repo, objective);

  for (size_t pos = 0; pos < candidates.positions(); ++pos) {
    for (int32_t si = 0; si < static_cast<int32_t>(repo.schema_count());
         ++si) {
      const schema::Schema& s = repo.schema(si);
      const std::vector<match::CandidateEntry>* list =
          candidates.CandidatesFor(pos, si);
      ASSERT_NE(list, nullptr);
      EXPECT_EQ(list->size(), std::min(candidates.limit(), s.size()));

      std::vector<bool> listed(s.size(), false);
      double previous_cost = -1.0;
      for (const match::CandidateEntry& entry : *list) {
        ASSERT_TRUE(s.IsValid(entry.node));
        EXPECT_FALSE(listed[static_cast<size_t>(entry.node)])
            << "duplicate candidate";
        listed[static_cast<size_t>(entry.node)] = true;
        // Bit-identical to the lazy path.
        EXPECT_EQ(entry.cost, lazy.NodeCost(pos, si, entry.node))
            << "pos " << pos << " schema " << si << " node " << entry.node;
        EXPECT_GE(entry.cost, previous_cost) << "list not sorted by cost";
        previous_cost = entry.cost;
      }

      const double bound = candidates.SkipLowerBound(pos, si);
      if (list->size() == s.size()) {
        EXPECT_EQ(bound, std::numeric_limits<double>::infinity());
        continue;
      }
      for (size_t n = 0; n < s.size(); ++n) {
        if (listed[n]) continue;
        const auto node = static_cast<schema::NodeId>(n);
        EXPECT_GE(lazy.NodeCost(pos, si, node), bound - 1e-12)
            << "inadmissible skip-bound: pos " << pos << " schema " << si
            << " node " << n;
      }
    }
  }
}

TEST(CandidateGeneratorTest, SmallRepoCandidatesMatchCostsAndBoundHolds) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  match::ObjectiveOptions objective = SynonymObjective();
  auto prepared = PreparedRepository::Build(repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  CandidateGenerator generator(&*prepared, objective);

  for (size_t limit : {1u, 2u, 4u, 100u}) {
    auto candidates = generator.Generate(query, limit);
    ASSERT_TRUE(candidates.ok()) << candidates.status();
    CheckAgainstNodeCosts(query, repo, objective, *candidates);
  }
}

TEST(CandidateGeneratorTest, SyntheticRepoCandidatesMatchCostsAndBoundHolds) {
  GeneratedSetup setup = MakeSynthetic(40, 77);
  match::ObjectiveOptions objective = SynonymObjective();
  auto prepared = PreparedRepository::Build(setup.repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  CandidateGenerator generator(&*prepared, objective);

  for (size_t limit : {3u, 8u, 64u}) {
    auto candidates = generator.Generate(setup.query, limit);
    ASSERT_TRUE(candidates.ok()) << candidates.status();
    CheckAgainstNodeCosts(setup.query, setup.repo, objective, *candidates);
  }
}

TEST(CandidateGeneratorTest, LimitAboveSchemaSizeCoversEveryNode) {
  GeneratedSetup setup = MakeSynthetic(12, 5);
  match::ObjectiveOptions objective = SynonymObjective();
  auto prepared = PreparedRepository::Build(setup.repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  CandidateGenerator generator(&*prepared, objective);

  const size_t limit = MaxSchemaSize(setup.repo) + 5;
  auto candidates = generator.Generate(setup.query, limit);
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  EXPECT_EQ(candidates->candidates_skipped(), 0u);
  EXPECT_EQ(candidates->ProvablyCompleteFraction(1.0), 1.0);
  for (size_t pos = 0; pos < candidates->positions(); ++pos) {
    for (int32_t si = 0;
         si < static_cast<int32_t>(setup.repo.schema_count()); ++si) {
      const std::vector<match::CandidateEntry>* list =
          candidates->CandidatesFor(pos, si);
      EXPECT_EQ(list->size(), setup.repo.schema(si).size());
      EXPECT_EQ(candidates->SkipLowerBound(pos, si),
                std::numeric_limits<double>::infinity());
    }
  }
}

TEST(CandidateGeneratorTest, CountersAccountForEveryCell) {
  GeneratedSetup setup = MakeSynthetic(15, 3);
  match::ObjectiveOptions objective = SynonymObjective();
  auto prepared = PreparedRepository::Build(setup.repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  CandidateGenerator generator(&*prepared, objective);

  const size_t limit = 4;
  auto candidates = generator.Generate(setup.query, limit);
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  uint64_t expected_generated = 0;
  for (const schema::Schema& s : setup.repo.schemas()) {
    expected_generated += std::min(limit, s.size());
  }
  expected_generated *= candidates->positions();
  EXPECT_EQ(candidates->candidates_generated(), expected_generated);
  EXPECT_EQ(candidates->candidates_generated() +
                candidates->candidates_skipped(),
            candidates->positions() * setup.repo.total_elements());
}

TEST(CandidateGeneratorTest, SingleNodeSchemasAndNoTokenNames) {
  schema::SchemaRepository repo;
  schema::Schema single("single");
  single.AddRoot("order").value();
  repo.Add(std::move(single)).value();
  schema::Schema odd("odd");
  auto root = odd.AddRoot("__").value();  // folds/tokenizes to nothing
  odd.AddChild(root, "x").value();       // single-char name
  repo.Add(std::move(odd)).value();

  match::ObjectiveOptions objective = SynonymObjective();
  auto prepared = PreparedRepository::Build(repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  CandidateGenerator generator(&*prepared, objective);

  schema::Schema query = MakeQuery();
  auto candidates = generator.Generate(query, 1);
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  CheckAgainstNodeCosts(query, repo, objective, *candidates);
}

TEST(CandidateGeneratorTest, CutoffPruningNeverChangesEntriesOrAdmissibility) {
  // The threshold-aware scoring loop must select bit-identical candidate
  // lists: pruning may only drop work whose exact cost provably cannot
  // enter the top-C. Skip-bounds may differ (a pruned candidate
  // contributes a lower bound instead of its exact cost) but only
  // downward — and they stay admissible, which CheckAgainstNodeCosts
  // already proves for the default (cutoff-enabled) generator above.
  GeneratedSetup setup = MakeSynthetic(30, 99);
  match::ObjectiveOptions objective = SynonymObjective();
  auto prepared = PreparedRepository::Build(setup.repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  CandidateGenerator with_cutoff(&*prepared, objective);
  CandidateGenerator without_cutoff(&*prepared, objective);
  without_cutoff.set_cutoff_enabled(false);

  for (size_t limit : {1u, 3u, 8u}) {
    auto fast = with_cutoff.Generate(setup.query, limit);
    auto slow = without_cutoff.Generate(setup.query, limit);
    ASSERT_TRUE(fast.ok()) << fast.status();
    ASSERT_TRUE(slow.ok()) << slow.status();
    ASSERT_EQ(fast->positions(), slow->positions());
    EXPECT_EQ(fast->candidates_generated(), slow->candidates_generated());
    EXPECT_EQ(fast->candidates_skipped(), slow->candidates_skipped());
    for (size_t pos = 0; pos < fast->positions(); ++pos) {
      for (int32_t si = 0;
           si < static_cast<int32_t>(setup.repo.schema_count()); ++si) {
        const auto* fast_list = fast->CandidatesFor(pos, si);
        const auto* slow_list = slow->CandidatesFor(pos, si);
        ASSERT_EQ(fast_list->size(), slow_list->size())
            << "pos " << pos << " schema " << si << " limit " << limit;
        for (size_t c = 0; c < fast_list->size(); ++c) {
          EXPECT_EQ((*fast_list)[c].node, (*slow_list)[c].node)
              << "pos " << pos << " schema " << si << " entry " << c;
          EXPECT_EQ((*fast_list)[c].cost, (*slow_list)[c].cost)
              << "pos " << pos << " schema " << si << " entry " << c;
        }
        // The exhaustively-scored truncation bound is the tightest the
        // cutoff path may report; pruning can only lower it.
        EXPECT_LE(fast->SkipLowerBound(pos, si),
                  slow->SkipLowerBound(pos, si) + 1e-12);
      }
    }
  }
}

TEST(CandidateGeneratorTest, RejectsBadInputs) {
  schema::SchemaRepository repo = MakeRepo();
  match::ObjectiveOptions objective = SynonymObjective();
  auto prepared = PreparedRepository::Build(repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  CandidateGenerator generator(&*prepared, objective);

  schema::Schema query = MakeQuery();
  EXPECT_FALSE(generator.Generate(query, 0).ok());
  EXPECT_FALSE(generator.Generate(schema::Schema("empty"), 4).ok());

  // Name options drifting from the index's are rejected, not silently
  // mis-scored.
  match::ObjectiveOptions drifted = objective;
  drifted.name.synonyms = nullptr;
  CandidateGenerator mismatched(&*prepared, drifted);
  EXPECT_FALSE(mismatched.Generate(query, 4).ok());
}

}  // namespace
}  // namespace smb::index
