#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "index/candidate_generator.h"
#include "index/prepared_repository.h"
#include "match/matcher_factory.h"
#include "synth/generator.h"
#include "../testing/fixtures.h"

/// \file block_max_test.cc
/// \brief The block-max (WAND) postings traversal against its oracle, the
/// classic retrieve-everything path.
///
/// The traversal only ever skips posting spans it can *prove* irrelevant,
/// so it must select exactly the same candidates — same nodes, bit-equal
/// costs — at every limit; only the skip-bound may differ (downward, from
/// the tighter skipped-Dice cap) and it must stay admissible against the
/// exact node costs. These tests pin that contract on the handcrafted
/// fixture, on synthetic collections across seeds and limits, and
/// end-to-end through a matcher reading the lists.

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

/// Schemas wide enough that cell ranges span many postings blocks —
/// forces the pivoting/skipping DAAT path (small cells short-circuit
/// into the dense fast path and never pivot).
GeneratedSetup MakeWideSynthetic(uint64_t seed) {
  Rng rng(seed);
  synth::SynthOptions options;
  options.num_schemas = 4;
  options.min_schema_elements = 300;
  options.max_schema_elements = 450;
  auto collection = synth::GenerateProblem(4, options, &rng).value();
  GeneratedSetup setup;
  setup.query = std::move(collection.query);
  setup.repo = std::move(collection.repository);
  return setup;
}

/// Entry lists bit-identical; block-max bound admissible and never above
/// the classic bound by more than float noise (it skips with a cap the
/// classic path bounds at zero, so it can only be equal or lower — a
/// larger bound would claim knowledge the traversal does not have).
void ExpectEquivalent(const QueryCandidates& classic,
                      const QueryCandidates& block_max,
                      const schema::SchemaRepository& repo) {
  ASSERT_EQ(classic.positions(), block_max.positions());
  ASSERT_EQ(classic.schema_count(), block_max.schema_count());
  EXPECT_EQ(classic.candidates_generated(), block_max.candidates_generated());
  EXPECT_EQ(classic.candidates_skipped(), block_max.candidates_skipped());
  for (size_t pos = 0; pos < classic.positions(); ++pos) {
    for (int32_t si = 0; si < static_cast<int32_t>(repo.schema_count());
         ++si) {
      const std::vector<match::CandidateEntry>* a =
          classic.CandidatesFor(pos, si);
      const std::vector<match::CandidateEntry>* b =
          block_max.CandidatesFor(pos, si);
      ASSERT_EQ(a->size(), b->size()) << "pos " << pos << " schema " << si;
      for (size_t i = 0; i < a->size(); ++i) {
        EXPECT_EQ((*a)[i].node, (*b)[i].node)
            << "pos " << pos << " schema " << si << " entry " << i;
        EXPECT_EQ((*a)[i].cost, (*b)[i].cost)
            << "pos " << pos << " schema " << si << " entry " << i;
      }
      const double classic_bound = classic.SkipLowerBound(pos, si);
      const double wand_bound = block_max.SkipLowerBound(pos, si);
      EXPECT_LE(wand_bound, classic_bound + 1e-12)
          << "pos " << pos << " schema " << si;
    }
  }
}

/// Admissibility of the block-max skip-bound, checked the hard way:
/// every node missing from a cell's list must truly cost at least the
/// bound (`match::ComputeNodeCost` as ground truth).
void CheckBoundAdmissible(const schema::Schema& query,
                          const schema::SchemaRepository& repo,
                          const match::ObjectiveOptions& objective,
                          const QueryCandidates& candidates) {
  const std::vector<schema::NodeId> preorder = query.PreOrder();
  for (size_t pos = 0; pos < candidates.positions(); ++pos) {
    for (int32_t si = 0; si < static_cast<int32_t>(repo.schema_count());
         ++si) {
      const schema::Schema& s = repo.schema(si);
      const std::vector<match::CandidateEntry>* list =
          candidates.CandidatesFor(pos, si);
      std::vector<bool> listed(s.size(), false);
      for (const match::CandidateEntry& entry : *list) {
        listed[static_cast<size_t>(entry.node)] = true;
      }
      const double bound = candidates.SkipLowerBound(pos, si);
      if (list->size() == s.size()) {
        EXPECT_EQ(bound, std::numeric_limits<double>::infinity());
        continue;
      }
      for (size_t n = 0; n < s.size(); ++n) {
        if (listed[n]) continue;
        EXPECT_GE(match::ComputeNodeCost(
                      query.node(preorder[pos]),
                      s.node(static_cast<schema::NodeId>(n)), objective),
                  bound - 1e-12)
            << "inadmissible block-max bound: pos " << pos << " schema "
            << si << " node " << n;
      }
    }
  }
}

TEST(BlockMaxTest, SmallRepoSelectionMatchesClassicAtEveryLimit) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  match::ObjectiveOptions objective = SynonymObjective();
  auto prepared = PreparedRepository::Build(repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  CandidateGenerator classic(&*prepared, objective);
  classic.set_block_max_enabled(false);
  CandidateGenerator block_max(&*prepared, objective);

  for (size_t limit : {1u, 2u, 3u, 4u, 7u, 100u}) {
    auto a = classic.Generate(query, limit);
    auto b = block_max.Generate(query, limit);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    ExpectEquivalent(*a, *b, repo);
    CheckBoundAdmissible(query, repo, objective, *b);
  }
}

TEST(BlockMaxTest, SyntheticSelectionMatchesClassicAcrossSeedsAndLimits) {
  for (uint64_t seed : {7u, 77u, 1234u}) {
    GeneratedSetup setup = MakeSynthetic(40, seed);
    match::ObjectiveOptions objective = SynonymObjective();
    auto prepared = PreparedRepository::Build(setup.repo, objective.name);
    ASSERT_TRUE(prepared.ok()) << prepared.status();

    CandidateGenerator classic(&*prepared, objective);
    classic.set_block_max_enabled(false);
    CandidateGenerator block_max(&*prepared, objective);

    for (size_t limit : {1u, 2u, 5u, 13u, 64u}) {
      auto a = classic.Generate(setup.query, limit);
      auto b = block_max.Generate(setup.query, limit);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      ExpectEquivalent(*a, *b, setup.repo);
    }
    // Full admissibility sweep at one mid-size limit per seed (the dense
    // pool check is quadratic).
    auto b = block_max.Generate(setup.query, 5);
    ASSERT_TRUE(b.ok()) << b.status();
    CheckBoundAdmissible(setup.query, setup.repo, objective, *b);
  }
}

TEST(BlockMaxTest, WideSchemasExerciseThePivotPathAndMatchClassic) {
  for (uint64_t seed : {11u, 4321u}) {
    GeneratedSetup setup = MakeWideSynthetic(seed);
    match::ObjectiveOptions objective = SynonymObjective();
    auto prepared = PreparedRepository::Build(setup.repo, objective.name);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    // The point of this fixture: ranges wide enough to pivot over.
    size_t max_elements = 0;
    for (size_t si = 0; si < setup.repo.schema_count(); ++si) {
      max_elements = std::max(max_elements, setup.repo.schema(si).size());
    }
    ASSERT_GT(max_elements, 2 * kTrigramBlockSize);

    CandidateGenerator classic(&*prepared, objective);
    classic.set_block_max_enabled(false);
    CandidateGenerator block_max(&*prepared, objective);

    for (size_t limit : {1u, 3u, 8u, 32u, 200u}) {
      auto a = classic.Generate(setup.query, limit);
      auto b = block_max.Generate(setup.query, limit);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      ExpectEquivalent(*a, *b, setup.repo);
    }
    auto b = block_max.Generate(setup.query, 3);
    ASSERT_TRUE(b.ok()) << b.status();
    CheckBoundAdmissible(setup.query, setup.repo, objective, *b);
  }
}

TEST(BlockMaxTest, CutoffTogglesComposeWithBlockMax) {
  GeneratedSetup setup = MakeSynthetic(30, 99);
  match::ObjectiveOptions objective = SynonymObjective();
  auto prepared = PreparedRepository::Build(setup.repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  // All four (cutoff × block-max) combinations select identical entries.
  std::vector<QueryCandidates> results;
  for (bool cutoff : {false, true}) {
    for (bool block : {false, true}) {
      CandidateGenerator generator(&*prepared, objective);
      generator.set_cutoff_enabled(cutoff);
      generator.set_block_max_enabled(block);
      auto candidates = generator.Generate(setup.query, 6);
      ASSERT_TRUE(candidates.ok()) << candidates.status();
      results.push_back(std::move(candidates).value());
    }
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ExpectEquivalent(results[0], results[i], setup.repo);
  }
}

TEST(BlockMaxTest, AdaptiveBlockMaxStillReproducesDenseAtFullTarget) {
  GeneratedSetup setup = MakeSynthetic(25, 55);
  match::ObjectiveOptions objective = SynonymObjective();
  auto prepared = PreparedRepository::Build(setup.repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  CandidateGenerator generator(&*prepared, objective);  // block-max default
  AdaptiveCandidatePolicy policy;
  policy.min_provable_completeness = 1.0;
  policy.initial_limit = 2;
  AdaptiveGenerationStats stats;
  auto candidates = generator.GenerateAdaptive(setup.query, policy, 0.35,
                                               &stats);
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  EXPECT_EQ(stats.cells_certified, stats.cells_total);
  CheckBoundAdmissible(setup.query, setup.repo, objective, *candidates);
}

TEST(BlockMaxTest, MatchAnswersIdenticalWithAndWithoutBlockMax) {
  GeneratedSetup setup = MakeSynthetic(30, 11);
  match::MatchOptions mopts;
  mopts.delta_threshold = 0.3;
  mopts.objective = SynonymObjective();
  auto prepared = PreparedRepository::Build(setup.repo, mopts.objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  CandidateGenerator classic(&*prepared, mopts.objective);
  classic.set_block_max_enabled(false);
  CandidateGenerator block_max(&*prepared, mopts.objective);
  auto classic_lists = classic.Generate(setup.query, 6);
  auto block_max_lists = block_max.Generate(setup.query, 6);
  ASSERT_TRUE(classic_lists.ok()) << classic_lists.status();
  ASSERT_TRUE(block_max_lists.ok()) << block_max_lists.status();

  for (const char* kind : {"exhaustive", "topk"}) {
    auto matcher = match::MakeMatcher(kind, setup.repo);
    ASSERT_TRUE(matcher.ok()) << matcher.status();
    const match::ObjectiveFunction classic_objective(
        &setup.query, &setup.repo, mopts.objective, &*classic_lists);
    const match::ObjectiveFunction block_max_objective(
        &setup.query, &setup.repo, mopts.objective, &*block_max_lists);
    auto a =
        smb::testing::MatchWithObjective(**matcher, classic_objective, mopts);
    auto b = smb::testing::MatchWithObjective(**matcher, block_max_objective,
                                              mopts);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    ASSERT_EQ(a->size(), b->size()) << kind;
    for (size_t i = 0; i < a->size(); ++i) {
      const match::Mapping& ma = a->mappings()[i];
      const match::Mapping& mb = b->mappings()[i];
      EXPECT_EQ(ma.schema_index, mb.schema_index);
      EXPECT_EQ(ma.targets, mb.targets);
      EXPECT_EQ(ma.delta, mb.delta);  // bit-identical Δ
    }
  }
  EXPECT_EQ(classic_lists->candidates_generated(),
            block_max_lists->candidates_generated());
}

TEST(BlockMaxTest, BlockMetadataCoversEveryPostingAdmissibly) {
  GeneratedSetup setup = MakeSynthetic(40, 3);
  sim::NameSimilarityOptions options;
  auto prepared = PreparedRepository::Build(setup.repo, options);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  const size_t lists = prepared->stats().distinct_trigrams;
  size_t postings_seen = 0;
  for (size_t li = 0; li < lists; ++li) {
    const auto list_index = static_cast<int32_t>(li);
    const std::span<const TrigramPosting> postings =
        prepared->TrigramListPostings(list_index);
    const TrigramBlockSpans blocks = prepared->TrigramBlocks(list_index);
    ASSERT_EQ(blocks.size(),
              (postings.size() + kTrigramBlockSize - 1) / kTrigramBlockSize);
    for (size_t p = 0; p < postings.size(); ++p) {
      const size_t b = p / kTrigramBlockSize;
      // Every posting is dominated by its block's metadata — the
      // admissibility contract of the WAND skip decisions.
      EXPECT_LE(postings[p].ordinal, blocks.last_ordinals[b]);
      EXPECT_LE(postings[p].count, blocks.max_counts[b]);
      EXPECT_GE(prepared->element(postings[p].ordinal).trigram_count,
                blocks.tc_floors[b]);
    }
    // The fence is tight: the block's last posting defines it.
    for (size_t b = 0; b < blocks.size(); ++b) {
      const size_t last =
          std::min(postings.size(), (b + 1) * kTrigramBlockSize) - 1;
      EXPECT_EQ(blocks.last_ordinals[b], postings[last].ordinal);
    }
    postings_seen += postings.size();
  }
  EXPECT_EQ(postings_seen, prepared->stats().trigram_posting_entries);
}

}  // namespace
}  // namespace smb::index
