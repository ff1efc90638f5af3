#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/batch_match_engine.h"
#include "index/candidate_generator.h"
#include "index/prepared_repository.h"
#include "match/matcher_factory.h"
#include "synth/generator.h"
#include "synth/stream.h"

/// Candidate generation on worker threads
/// (`CandidateGenerator::set_num_threads`) must not depend on the thread
/// count: every cell's entries and skip-bound, every
/// `AdaptiveGenerationStats` field except `speculative_scored` and
/// `names_scored` (each worker keeps its own name memo), and the
/// engine's answers are the same at 1, 2, 3 and 8 threads. Partial targets
/// matter most: there an escalation round stops mid-round at the first
/// cell, in (position, schema) order, where the target is met, and the
/// threaded path must stop at that same cell.

namespace smb::index {
namespace {

struct Collection {
  schema::Schema query;
  schema::SchemaRepository repo;
  match::MatchOptions options;
};

Collection MakeSetup(size_t num_schemas, uint64_t seed, double delta) {
  Rng rng(seed);
  synth::SynthOptions sopts;
  sopts.num_schemas = num_schemas;
  auto collection = synth::GenerateProblem(5, sopts, &rng).value();
  Collection setup;
  setup.query = std::move(collection.query);
  setup.repo = std::move(collection.repository);
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  setup.options.delta_threshold = delta;
  setup.options.objective.name.synonyms = &kTable;
  return setup;
}

void ExpectSameCells(const QueryCandidates& actual,
                     const QueryCandidates& expected,
                     const std::string& label) {
  ASSERT_EQ(actual.positions(), expected.positions()) << label;
  ASSERT_EQ(actual.schema_count(), expected.schema_count()) << label;
  EXPECT_EQ(actual.limit(), expected.limit()) << label;
  EXPECT_EQ(actual.candidates_generated(), expected.candidates_generated())
      << label;
  EXPECT_EQ(actual.candidates_skipped(), expected.candidates_skipped())
      << label;
  for (size_t pos = 0; pos < expected.positions(); ++pos) {
    for (size_t si = 0; si < expected.schema_count(); ++si) {
      const auto schema_index = static_cast<int32_t>(si);
      const std::string cell = label + " cell (" + std::to_string(pos) +
                               ", " + std::to_string(si) + ")";
      EXPECT_EQ(actual.SkipLowerBound(pos, schema_index),
                expected.SkipLowerBound(pos, schema_index))
          << cell;
      const auto& a = *actual.CandidatesFor(pos, schema_index);
      const auto& e = *expected.CandidatesFor(pos, schema_index);
      ASSERT_EQ(a.size(), e.size()) << cell;
      for (size_t i = 0; i < e.size(); ++i) {
        EXPECT_EQ(a[i].node, e[i].node) << cell << " rank " << i;
        EXPECT_EQ(a[i].cost, e[i].cost) << cell << " rank " << i;
      }
    }
  }
}

void ExpectSameStats(const AdaptiveGenerationStats& actual,
                     const AdaptiveGenerationStats& expected,
                     const std::string& label) {
  EXPECT_EQ(actual.rounds, expected.rounds) << label;
  EXPECT_EQ(actual.cells_total, expected.cells_total) << label;
  EXPECT_EQ(actual.cells_certified, expected.cells_certified) << label;
  EXPECT_EQ(actual.cells_escalated, expected.cells_escalated) << label;
  EXPECT_EQ(actual.cells_at_cap, expected.cells_at_cap) << label;
  EXPECT_EQ(actual.budget_spent, expected.budget_spent) << label;
  EXPECT_EQ(actual.costs_computed, expected.costs_computed) << label;
  EXPECT_EQ(actual.achieved_completeness, expected.achieved_completeness)
      << label;
  EXPECT_EQ(actual.final_limit_distribution,
            expected.final_limit_distribution)
      << label;
}

TEST(ParallelGenerationTest, AdaptiveOutputIsTheSameForEveryThreadCount) {
  // Counts configurations whose escalation ended on the target check with
  // cells still able to grow: the stop that the threaded path must place
  // at the same cell as the serial loop.
  size_t stopped_on_target = 0;
  for (double delta : {0.02, 0.25}) {
    Collection setup = MakeSetup(60, 131, delta);
    auto prepared =
        PreparedRepository::Build(setup.repo, setup.options.objective.name);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    for (bool block_max : {true, false}) {
      for (size_t max_limit : {size_t{0}, size_t{12}}) {
        for (double target : {0.3, 0.6, 0.9}) {
          AdaptiveCandidatePolicy policy;
          policy.min_provable_completeness = target;
          policy.initial_limit = 2;
          policy.max_limit = max_limit;
          const std::string config =
              "delta=" + std::to_string(delta) +
              " block_max=" + std::to_string(block_max) +
              " max_limit=" + std::to_string(max_limit) +
              " target=" + std::to_string(target);

          CandidateGenerator serial(&*prepared, setup.options.objective);
          serial.set_block_max_enabled(block_max);
          AdaptiveGenerationStats serial_stats;
          auto expected =
              serial.GenerateAdaptive(setup.query, policy, delta,
                                      &serial_stats);
          ASSERT_TRUE(expected.ok()) << expected.status();
          EXPECT_EQ(serial_stats.speculative_scored, 0u) << config;
          if (serial_stats.rounds > 0 &&
              serial_stats.cells_certified + serial_stats.cells_at_cap <
                  serial_stats.cells_total) {
            ++stopped_on_target;
          }

          for (size_t threads : {2u, 3u, 8u}) {
            const std::string label =
                config + " threads=" + std::to_string(threads);
            CandidateGenerator parallel(&*prepared, setup.options.objective);
            parallel.set_block_max_enabled(block_max);
            parallel.set_num_threads(threads);
            AdaptiveGenerationStats stats;
            auto actual =
                parallel.GenerateAdaptive(setup.query, policy, delta, &stats);
            ASSERT_TRUE(actual.ok()) << actual.status();
            ExpectSameCells(*actual, *expected, label);
            ExpectSameStats(stats, serial_stats, label);
          }
        }
      }
    }
  }
  EXPECT_GT(stopped_on_target, 0u)
      << "no configuration stopped escalating on the target check";
}

TEST(ParallelGenerationTest, FixedGenerateIsTheSameForEveryThreadCount) {
  Collection setup = MakeSetup(60, 137, 0.25);
  auto prepared =
      PreparedRepository::Build(setup.repo, setup.options.objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  for (bool block_max : {true, false}) {
    CandidateGenerator serial(&*prepared, setup.options.objective);
    serial.set_block_max_enabled(block_max);
    for (size_t limit : {1u, 4u, 16u}) {
      auto expected = serial.Generate(setup.query, limit);
      ASSERT_TRUE(expected.ok()) << expected.status();
      for (size_t threads : {2u, 3u, 8u}) {
        CandidateGenerator parallel(&*prepared, setup.options.objective);
        parallel.set_block_max_enabled(block_max);
        parallel.set_num_threads(threads);
        auto actual = parallel.Generate(setup.query, limit);
        ASSERT_TRUE(actual.ok()) << actual.status();
        ExpectSameCells(*actual, *expected,
                        "block_max=" + std::to_string(block_max) +
                            " limit=" + std::to_string(limit) +
                            " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(ParallelGenerationTest, EscalationCostsTrackCoverageNotRounds) {
  // A served-collection-shaped stream: small (6–14-node) schemas, target
  // 0.9 at Δ = 0.25, where cells escalate over several rounds toward full
  // coverage. There only full coverage certifies, so the rounds are
  // planned and every cell is scored once at its final limit: the
  // candidates considered and the costs evaluated are the same single
  // pass, at most one per (cell, node) pair, however many rounds ran.
  // The stream reuses names heavily, so the name memo absorbs most of the
  // full costs: each engine scores a name at most once per position it
  // visits, and each engine visits a position in one run.
  synth::StreamOptions sopts;
  sopts.num_schemas = 150;
  sopts.vocabulary_size = 512;
  sopts.min_schema_elements = 6;
  sopts.max_schema_elements = 14;
  sopts.seed = 7;
  auto stream = synth::SchemaStream::Create(sopts);
  ASSERT_TRUE(stream.ok()) << stream.status();
  auto repo = synth::BuildStreamRepository(*stream);
  ASSERT_TRUE(repo.ok()) << repo.status();
  Rng rng(17);
  auto query = stream->GenerateQuery(5, &rng);
  ASSERT_TRUE(query.ok()) << query.status();

  match::ObjectiveOptions objective;
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  objective.name.synonyms = &kTable;
  auto prepared = PreparedRepository::Build(*repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  uint64_t cell_nodes = 0;
  for (size_t si = 0; si < repo->schema_count(); ++si) {
    cell_nodes += repo->schema(static_cast<int32_t>(si)).size();
  }
  cell_nodes *= query->PreOrder().size();

  AdaptiveCandidatePolicy policy;
  policy.min_provable_completeness = 0.9;
  for (size_t threads : {1u, 3u}) {
    CandidateGenerator generator(&*prepared, objective);
    generator.set_num_threads(threads);
    AdaptiveGenerationStats stats;
    ASSERT_TRUE(generator.GenerateAdaptive(*query, policy, 0.25, &stats).ok());
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_GE(stats.rounds, 2u) << label;
    EXPECT_LE(stats.budget_spent, cell_nodes) << label;
    EXPECT_EQ(stats.costs_computed, stats.budget_spent) << label;
    EXPECT_LE(stats.names_scored,
              threads * query->PreOrder().size() * prepared->name_count())
        << label;
    EXPECT_LT(stats.names_scored, stats.costs_computed) << label;
  }
  EXPECT_LT(prepared->name_count(), prepared->element_count());
}

class ParallelEngineTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelEngineTest, PartialTargetAnswersAreTheSameAtOneAndFourThreads) {
  Collection setup = MakeSetup(40, 139, 0.05);
  auto matcher = match::MakeMatcher(GetParam(), setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  auto prepared =
      PreparedRepository::Build(setup.repo, setup.options.objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  auto run = [&](size_t threads, engine::BatchMatchStats* stats) {
    engine::BatchMatchOptions bopts;
    bopts.num_threads = threads;
    bopts.prepared_repository = &*prepared;
    AdaptiveCandidatePolicy policy;
    policy.min_provable_completeness = 0.9;
    bopts.adaptive = policy;
    return engine::BatchMatchEngine(bopts).Run(
        **matcher, setup.query, setup.repo, setup.options, stats);
  };
  engine::BatchMatchStats serial_stats;
  auto expected = run(1, &serial_stats);
  ASSERT_TRUE(expected.ok()) << expected.status();
  engine::BatchMatchStats stats;
  auto actual = run(4, &stats);
  ASSERT_TRUE(actual.ok()) << actual.status();

  ASSERT_EQ(actual->size(), expected->size()) << GetParam();
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ(actual->mappings()[i].key(), expected->mappings()[i].key())
        << GetParam() << " rank " << i;
    EXPECT_EQ(actual->mappings()[i].delta, expected->mappings()[i].delta)
        << GetParam() << " rank " << i;
  }
  EXPECT_EQ(stats.provably_complete_fraction,
            serial_stats.provably_complete_fraction);
  EXPECT_EQ(stats.match.candidates_generated,
            serial_stats.match.candidates_generated);
  ExpectSameStats(stats.adaptive, serial_stats.adaptive, GetParam());
  EXPECT_EQ(serial_stats.adaptive.speculative_scored, 0u);
}

INSTANTIATE_TEST_SUITE_P(Matchers, ParallelEngineTest,
                         ::testing::Values("exhaustive", "beam", "topk"));

}  // namespace
}  // namespace smb::index
