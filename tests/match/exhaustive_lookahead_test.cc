// The exhaustive matcher's admissible lookahead against the test-side
// oracle (dfs_oracle.h): over seeds, Δ thresholds, injective on and off and
// every way costs reach the matcher, the answers must be the oracle's
// mapping by mapping, with bit-equal Δ values. A mapping whose Δ equals the
// threshold exactly must survive. On a served-collection-shaped stream the
// lookahead must also cut the search to at most a third of the states the
// budget-only prune explores.

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dfs_oracle.h"
#include "engine/batch_match_engine.h"
#include "index/candidate_generator.h"
#include "index/prepared_repository.h"
#include "match/exhaustive_matcher.h"
#include "synth/generator.h"
#include "synth/stream.h"
#include "../testing/fixtures.h"

namespace smb::match {
namespace {

const sim::SynonymTable& Synonyms() {
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  return kTable;
}

void ExpectBitIdentical(const AnswerSet& actual, const AnswerSet& expected,
                        const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    const Mapping& a = actual.mappings()[i];
    const Mapping& e = expected.mappings()[i];
    ASSERT_EQ(a.schema_index, e.schema_index) << label << " rank " << i;
    ASSERT_EQ(a.targets, e.targets) << label << " rank " << i;
    ASSERT_EQ(std::bit_cast<uint64_t>(a.delta),
              std::bit_cast<uint64_t>(e.delta))
        << label << " rank " << i << ": " << a.delta << " vs " << e.delta;
  }
}

/// How the costs reach the matcher.
enum class CostPath {
  kExactEngine,
  kDenseLazy,
  kSparseFixed,
  kAdaptiveEngine
};

const char* CostPathName(CostPath path) {
  switch (path) {
    case CostPath::kExactEngine: return "exact-engine";
    case CostPath::kDenseLazy: return "dense-lazy";
    case CostPath::kSparseFixed: return "sparse-C4";
    case CostPath::kAdaptiveEngine: return "adaptive-0.9";
  }
  return "?";
}

struct Problem {
  schema::Schema query;
  schema::SchemaRepository repo;
  MatchOptions options;
};

/// Small schemas keep the unpruned oracle's |schema|^m enumeration cheap.
Problem MakeProblem(uint64_t seed) {
  Rng rng(seed);
  synth::SynthOptions sopts;
  sopts.num_schemas = 10;
  sopts.min_schema_elements = 5;
  sopts.max_schema_elements = 10;
  auto collection = synth::GenerateProblem(4, sopts, &rng).value();
  Problem problem;
  problem.query = std::move(collection.query);
  problem.repo = std::move(collection.repository);
  problem.options.objective.name.synonyms = &Synonyms();
  return problem;
}

index::AdaptiveCandidatePolicy TargetPolicy(double target) {
  index::AdaptiveCandidatePolicy policy;
  policy.min_provable_completeness = target;
  return policy;
}

/// Runs the matcher on `path` and the unpruned oracle on the same costs,
/// and expects bit-identical answers. Returns the matcher's answers.
AnswerSet ExpectMatchesOracle(const Problem& problem,
                              const index::PreparedRepository& prepared,
                              const MatchOptions& options, CostPath path,
                              const std::string& label) {
  ExhaustiveMatcher matcher;
  Result<AnswerSet> actual = Status::Internal("not run");
  std::optional<index::QueryCandidates> candidates;
  index::CandidateGenerator generator(&prepared, options.objective);
  // The costs of `path`, attached to an objective the matcher (directly)
  // and the oracle read alike.
  auto objective = [&] {
    return ObjectiveFunction(&problem.query, &problem.repo, options.objective,
                             candidates ? &*candidates : nullptr);
  };
  switch (path) {
    case CostPath::kExactEngine: {
      // No budget: target-1.0 lists; the oracle reads the lazy costs.
      engine::BatchMatchOptions bopts;
      bopts.num_threads = 2;
      bopts.prepared_repository = &prepared;
      actual = engine::BatchMatchEngine(bopts).Run(matcher, problem.query,
                                                   problem.repo, options);
      break;
    }
    case CostPath::kDenseLazy:
      actual = matcher.Match(problem.query, problem.repo, options);
      break;
    case CostPath::kSparseFixed:
      candidates.emplace(generator.Generate(problem.query, 4).value());
      actual = smb::testing::MatchWithObjective(matcher, objective(), options);
      break;
    case CostPath::kAdaptiveEngine: {
      engine::BatchMatchOptions bopts;
      bopts.num_threads = 2;
      bopts.adaptive = TargetPolicy(0.9);
      bopts.prepared_repository = &prepared;
      actual = engine::BatchMatchEngine(bopts).Run(matcher, problem.query,
                                                   problem.repo, options);
      // The engine generates the same lists from the same inputs.
      candidates.emplace(generator
                             .GenerateAdaptive(problem.query, *bopts.adaptive,
                                               options.delta_threshold)
                             .value());
      break;
    }
  }
  EXPECT_TRUE(actual.ok()) << label << ": " << actual.status();
  if (!actual.ok()) return AnswerSet();
  ExpectBitIdentical(*actual, OracleMatch(objective(), options), label);
  return std::move(*actual);
}

TEST(ExhaustiveLookaheadTest, AnswersBitIdenticalToUnprunedOracle) {
  size_t nonempty = 0;
  for (uint64_t seed : {11u, 12u, 13u}) {
    Problem problem = MakeProblem(seed);
    auto prepared = index::PreparedRepository::Build(
        problem.repo, problem.options.objective.name);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    for (double delta : {0.05, 0.25, 0.4}) {
      for (bool injective : {true, false}) {
        for (CostPath path :
             {CostPath::kExactEngine, CostPath::kDenseLazy,
              CostPath::kSparseFixed, CostPath::kAdaptiveEngine}) {
          MatchOptions options = problem.options;
          options.delta_threshold = delta;
          options.injective = injective;
          const std::string label =
              "seed=" + std::to_string(seed) +
              " delta=" + std::to_string(delta) +
              " injective=" + std::to_string(injective) + " " +
              CostPathName(path);
          AnswerSet answers =
              ExpectMatchesOracle(problem, *prepared, options, path, label);
          if (!answers.empty()) ++nonempty;
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
  // The comparison must not be vacuous: most runs find answers.
  EXPECT_GT(nonempty, 48u);
}

TEST(ExhaustiveLookaheadTest, MappingAtExactlyTheThresholdSurvives) {
  for (uint64_t seed : {21u, 22u}) {
    Problem problem = MakeProblem(seed);
    auto prepared = index::PreparedRepository::Build(
        problem.repo, problem.options.objective.name);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    MatchOptions wide = problem.options;
    wide.delta_threshold = 0.4;
    ExhaustiveMatcher matcher;
    auto reference = matcher.Match(problem.query, problem.repo, wide);
    ASSERT_TRUE(reference.ok()) << reference.status();
    ASSERT_GE(reference->size(), 4u);
    ObjectiveFunction objective(&problem.query, &problem.repo,
                                problem.options.objective);
    const size_t n = reference->size();
    for (size_t rank : {size_t{0}, size_t{1}, n / 3, n / 2, n - 1}) {
      const Mapping& edge = reference->mappings()[rank];
      MatchOptions options = problem.options;
      options.delta_threshold =
          objective.Delta(edge.schema_index, edge.targets);
      for (CostPath path : {CostPath::kDenseLazy, CostPath::kSparseFixed}) {
        const std::string label = "seed=" + std::to_string(seed) +
                                  " rank=" + std::to_string(rank) + " " +
                                  CostPathName(path);
        AnswerSet answers =
            ExpectMatchesOracle(problem, *prepared, options, path, label);
        if (::testing::Test::HasFatalFailure()) return;
        if (path == CostPath::kSparseFixed) continue;  // may not list it
        bool found = false;
        for (const Mapping& m : answers.mappings()) {
          if (m.key() == edge.key()) {
            found = true;
            EXPECT_EQ(std::bit_cast<uint64_t>(m.delta),
                      std::bit_cast<uint64_t>(edge.delta))
                << label;
          }
        }
        EXPECT_TRUE(found) << label << ": the mapping with Δ = threshold = "
                           << options.delta_threshold << " was cut";
      }
    }
  }
}

TEST(ExhaustiveLookaheadTest, ColdBoundStreamExploresAThirdOfTheBudgetOnlyDfs) {
  // Shaped like the served cold path: 6–14-node schemas over a 512-word
  // vocabulary, 5-element queries, Δ = 0.25, bound-driven target 0.9.
  synth::StreamOptions sopts;
  sopts.num_schemas = 200;
  sopts.vocabulary_size = 512;
  sopts.min_schema_elements = 6;
  sopts.max_schema_elements = 14;
  sopts.seed = 5;
  auto stream = synth::SchemaStream::Create(sopts);
  ASSERT_TRUE(stream.ok()) << stream.status();
  auto repo = synth::BuildStreamRepository(*stream);
  ASSERT_TRUE(repo.ok()) << repo.status();

  MatchOptions options;
  options.delta_threshold = 0.25;
  options.objective.name.synonyms = &Synonyms();
  auto prepared =
      index::PreparedRepository::Build(*repo, options.objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  index::CandidateGenerator generator(&*prepared, options.objective);

  engine::BatchMatchOptions bopts;
  bopts.num_threads = 2;
  bopts.adaptive = TargetPolicy(0.9);
  bopts.prepared_repository = &*prepared;
  const engine::BatchMatchEngine engine(bopts);
  ExhaustiveMatcher matcher;

  MatchStats lookahead;
  MatchStats budget_only;
  Rng rng(29);
  for (int q = 0; q < 4; ++q) {
    auto query = stream->GenerateQuery(5, &rng);
    ASSERT_TRUE(query.ok()) << query.status();
    engine::BatchMatchStats stats;
    auto served = engine.Run(matcher, *query, *repo, options, &stats);
    ASSERT_TRUE(served.ok()) << served.status();
    lookahead += stats.match;

    auto candidates = generator.GenerateAdaptive(*query, *bopts.adaptive,
                                                 options.delta_threshold);
    ASSERT_TRUE(candidates.ok()) << candidates.status();
    const ObjectiveFunction objective(&*query, &*repo, options.objective,
                                      &*candidates);
    AnswerSet reference =
        OracleMatch(objective, options, OraclePrune::kBudget, &budget_only);
    ExpectBitIdentical(*served, reference, "query " + std::to_string(q));
  }
  ASSERT_GT(lookahead.mappings_emitted, 0u);
  EXPECT_EQ(lookahead.mappings_emitted, budget_only.mappings_emitted);
  EXPECT_LE(3 * lookahead.states_explored, budget_only.states_explored)
      << "lookahead explored " << lookahead.states_explored
      << " states, the budget-only search " << budget_only.states_explored;
}

}  // namespace
}  // namespace smb::match
