// `Matcher::MatchSchemas` over schema ranges: for every matcher, the ranges
// of a random partition of [0, N) (one-schema ranges included), run against
// one shared objective, concatenated and finalized, must equal the
// whole-repository run mapping by mapping, with bit-equal Δ and work
// counters that sum to the whole run's. Checked with the lazy cache, the
// complete target-1.0 lists of an engine run without a budget and sparse
// C = 4 candidate lists attached to the objective.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/candidate_generator.h"
#include "index/prepared_repository.h"
#include "match/matcher_factory.h"
#include "synth/generator.h"
#include "../testing/fixtures.h"

namespace smb::match {
namespace {

enum class CostPath { kLazy, kTargetOne, kSparseC4 };

const char* CostPathName(CostPath path) {
  switch (path) {
    case CostPath::kLazy: return "lazy";
    case CostPath::kTargetOne: return "target-1.0";
    case CostPath::kSparseC4: return "sparse-C4";
  }
  return "?";
}

/// Range sizes covering [0, n): a random mix of one-schema ranges and
/// longer ones, always starting with a single schema.
std::vector<size_t> RandomPartition(size_t n, Rng* rng) {
  std::vector<size_t> sizes;
  size_t covered = 0;
  while (covered < n) {
    size_t size = sizes.empty() || rng->Bernoulli(0.4)
                      ? 1
                      : 2 + rng->UniformIndex(6);
    size = std::min(size, n - covered);
    sizes.push_back(size);
    covered += size;
  }
  return sizes;
}

void ExpectSameStats(const MatchStats& actual, const MatchStats& expected,
                     const std::string& label) {
  EXPECT_EQ(actual.states_explored, expected.states_explored) << label;
  EXPECT_EQ(actual.mappings_emitted, expected.mappings_emitted) << label;
  EXPECT_EQ(actual.states_pruned, expected.states_pruned) << label;
}

class MatchSchemasTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MatchSchemasTest, RangesOfAPartitionEqualTheWholeRun) {
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  Rng rng(97);
  synth::SynthOptions sopts;
  sopts.num_schemas = 30;
  auto collection = synth::GenerateProblem(4, sopts, &rng).value();
  const schema::Schema& query = collection.query;
  const schema::SchemaRepository& repo = collection.repository;
  MatchOptions options;
  options.delta_threshold = 0.25;
  options.objective.name.synonyms = &kTable;

  auto matcher = MakeMatcher(GetParam(), repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  auto prepared =
      index::PreparedRepository::Build(repo, options.objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  index::CandidateGenerator generator(&*prepared, options.objective);
  auto complete = generator.GenerateAdaptive(
      query, index::AdaptiveCandidatePolicy{}, options.delta_threshold);
  ASSERT_TRUE(complete.ok()) << complete.status();
  auto candidates = generator.Generate(query, 4);
  ASSERT_TRUE(candidates.ok()) << candidates.status();

  size_t nonempty = 0;
  for (CostPath path :
       {CostPath::kLazy, CostPath::kTargetOne, CostPath::kSparseC4}) {
    auto make_objective = [&] {
      const CandidateProvider* lists = nullptr;
      if (path == CostPath::kTargetOne) lists = &*complete;
      if (path == CostPath::kSparseC4) lists = &*candidates;
      return ObjectiveFunction(&query, &repo, options.objective, lists);
    };
    // The whole run: `Match` itself on the lazy path; over candidate
    // lists, the one whole-repository run that reads them.
    MatchStats whole_stats;
    Result<AnswerSet> whole =
        path == CostPath::kLazy
            ? (*matcher)->Match(query, repo, options, &whole_stats)
            : smb::testing::MatchWithObjective(**matcher, make_objective(),
                                               options, &whole_stats);
    ASSERT_TRUE(whole.ok()) << whole.status();
    if (!whole->empty()) ++nonempty;

    for (int trial = 0; trial < 3; ++trial) {
      const std::string label = std::string(GetParam()) + " " +
                                CostPathName(path) + " trial " +
                                std::to_string(trial);
      const ObjectiveFunction objective = make_objective();
      AnswerSet ranged;
      MatchStats ranged_stats;
      size_t first = 0;
      for (size_t count : RandomPartition(repo.schema_count(), &rng)) {
        AnswerSet part;
        MatchStats part_stats;
        Status status = (*matcher)->MatchSchemas(objective, first, count,
                                                 options, &part, &part_stats);
        ASSERT_TRUE(status.ok()) << label << ": " << status;
        for (const Mapping& m : part.mappings()) {
          ASSERT_GE(static_cast<size_t>(m.schema_index), first) << label;
          ASSERT_LT(static_cast<size_t>(m.schema_index), first + count)
              << label;
        }
        ranged.Append(std::move(part));
        ranged_stats += part_stats;
        first += count;
      }
      ranged.Finalize();

      ASSERT_EQ(ranged.size(), whole->size()) << label;
      for (size_t i = 0; i < ranged.size(); ++i) {
        const Mapping& a = ranged.mappings()[i];
        const Mapping& e = whole->mappings()[i];
        ASSERT_EQ(a.key(), e.key()) << label << " rank " << i;
        ASSERT_EQ(std::bit_cast<uint64_t>(a.delta),
                  std::bit_cast<uint64_t>(e.delta))
            << label << " rank " << i;
      }
      ExpectSameStats(ranged_stats, whole_stats, label);
    }
  }
  // The comparison must not be vacuous.
  EXPECT_GT(nonempty, 0u);
}

INSTANTIATE_TEST_SUITE_P(Matchers, MatchSchemasTest,
                         ::testing::Values("exhaustive", "beam", "topk",
                                           "cluster"));

}  // namespace
}  // namespace smb::match
