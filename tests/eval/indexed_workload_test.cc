#include "eval/workload.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "match/matcher_factory.h"
#include "synth/generator.h"
#include "../testing/fixtures.h"

namespace smb::eval {
namespace {

struct WorkloadSetup {
  std::vector<MatchingProblem> problems;
  schema::SchemaRepository repo;
  match::MatchOptions options;
  size_t max_schema_size = 0;
};

/// Two judged problems over one repository: the collection's own query
/// (with its planted truth) and a second, truth-less query from another
/// domain draw.
WorkloadSetup MakeSetup() {
  Rng rng(31);
  synth::SynthOptions sopts;
  sopts.num_schemas = 20;
  auto collection = synth::GenerateProblem(4, sopts, &rng).value();
  WorkloadSetup setup;
  MatchingProblem judged;
  judged.name = "planted";
  judged.query = collection.query;
  judged.truth = collection.truth;
  setup.problems.push_back(std::move(judged));
  MatchingProblem unjudged;
  unjudged.name = "fresh";
  unjudged.query =
      synth::GenerateQuery(synth::Domain::kECommerce, 3, &rng).value();
  setup.problems.push_back(std::move(unjudged));
  setup.repo = std::move(collection.repository);
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  setup.options.delta_threshold = 0.25;
  setup.options.objective.name.synonyms = &kTable;
  for (const schema::Schema& s : setup.repo.schemas()) {
    setup.max_schema_size = std::max(setup.max_schema_size, s.size());
  }
  return setup;
}

/// The shared repository index every test passes in (the CLI opens it
/// through serve::OpenServingIndex).
index::PreparedRepository Prepare(const WorkloadSetup& setup) {
  return index::PreparedRepository::Build(setup.repo,
                                          setup.options.objective.name)
      .value();
}

TEST(IndexedWorkloadTest, FullLimitReproducesDenseAnswersWithRecallOne) {
  WorkloadSetup setup = MakeSetup();
  auto matcher = match::MakeMatcher("exhaustive", setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  const index::PreparedRepository prepared = Prepare(setup);

  IndexedWorkloadOptions wopts;
  wopts.engine_options.adaptive =
      testing::FixedPolicy(setup.max_schema_size + 2);
  wopts.compare_dense = true;
  auto result = RunIndexedWorkload(**matcher, setup.problems, prepared,
                                   setup.options, wopts);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_EQ(result->answers.size(), setup.problems.size());
  EXPECT_EQ(result->dense_answers.size(), setup.problems.size());
  EXPECT_EQ(result->mean_answer_recall, 1.0);
  EXPECT_EQ(result->top_answer_recall, 1.0);
  for (size_t i = 0; i < result->answers.size(); ++i) {
    const match::AnswerSet& sparse = result->answers[i];
    const match::AnswerSet& dense = result->dense_answers[i];
    ASSERT_EQ(sparse.size(), dense.size());
    for (size_t r = 0; r < sparse.size(); ++r) {
      EXPECT_EQ(sparse.mappings()[r].key(), dense.mappings()[r].key());
      EXPECT_EQ(sparse.mappings()[r].delta, dense.mappings()[r].delta);
    }
  }
  for (const QueryRunReport& report : result->reports) {
    EXPECT_GT(report.sparse_seconds, 0.0);
    EXPECT_GT(report.dense_seconds, 0.0);
    EXPECT_EQ(report.answer_recall, 1.0);
    EXPECT_TRUE(report.top_answer_retained);
    EXPECT_EQ(report.provably_complete_fraction, 1.0);
  }
  EXPECT_GT(result->stats.candidates_generated, 0u);
  EXPECT_EQ(result->stats.candidates_skipped, 0u);
}

TEST(IndexedWorkloadTest, SmallLimitReportsRecallBelowOneAndSkips) {
  WorkloadSetup setup = MakeSetup();
  auto matcher = match::MakeMatcher("exhaustive", setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  const index::PreparedRepository prepared = Prepare(setup);

  IndexedWorkloadOptions wopts;
  wopts.engine_options.adaptive = testing::FixedPolicy(2);
  wopts.engine_options.num_threads = 2;
  wopts.compare_dense = true;
  auto result = RunIndexedWorkload(**matcher, setup.problems, prepared,
                                   setup.options, wopts);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_GT(result->stats.candidates_skipped, 0u);
  EXPECT_LE(result->mean_answer_recall, 1.0);
  for (size_t i = 0; i < result->answers.size(); ++i) {
    EXPECT_LE(result->answers[i].size(), result->dense_answers[i].size());
  }
  // Work counters accumulated across both problems.
  EXPECT_GT(result->stats.states_explored, 0u);
}

TEST(IndexedWorkloadTest, WithoutCompareDenseSkipsDenseRuns) {
  WorkloadSetup setup = MakeSetup();
  auto matcher = match::MakeMatcher("topk", setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  const index::PreparedRepository prepared = Prepare(setup);

  IndexedWorkloadOptions wopts;
  wopts.engine_options.adaptive = testing::FixedPolicy(4);
  wopts.compare_dense = false;
  auto result = RunIndexedWorkload(**matcher, setup.problems, prepared,
                                   setup.options, wopts);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->dense_answers.empty());
  EXPECT_EQ(result->mean_answer_recall, 1.0);
  for (const QueryRunReport& report : result->reports) {
    EXPECT_EQ(report.dense_seconds, 0.0);
    EXPECT_EQ(report.dense_answers, 0u);
  }
}

TEST(IndexedWorkloadTest, RejectsEmptyWorkloadAndZeroLimit) {
  WorkloadSetup setup = MakeSetup();
  auto matcher = match::MakeMatcher("exhaustive", setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  const index::PreparedRepository prepared = Prepare(setup);
  EXPECT_FALSE(
      RunIndexedWorkload(**matcher, {}, prepared, setup.options, {})
          .ok());
  // No candidate policy, and a fixed C of 0, are both refused.
  IndexedWorkloadOptions wopts;
  EXPECT_FALSE(RunIndexedWorkload(**matcher, setup.problems, prepared,
                                  setup.options, wopts)
                   .ok());
  wopts.engine_options.adaptive = testing::FixedPolicy(0);
  EXPECT_FALSE(RunIndexedWorkload(**matcher, setup.problems, prepared,
                                  setup.options, wopts)
                   .ok());
  wopts.engine_options.adaptive = index::AdaptiveCandidatePolicy{};
  EXPECT_TRUE(RunIndexedWorkload(**matcher, setup.problems, prepared,
                                 setup.options, wopts)
                  .ok());
}

TEST(IndexedWorkloadTest, AdaptiveModeReportsBudgetAndCertifiedBound) {
  WorkloadSetup setup = MakeSetup();
  setup.options.delta_threshold = 0.02;  // bound-bites regime
  auto matcher = match::MakeMatcher("exhaustive", setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  const index::PreparedRepository prepared = Prepare(setup);

  IndexedWorkloadOptions wopts;
  index::AdaptiveCandidatePolicy policy;
  policy.min_provable_completeness = 0.9;
  wopts.engine_options.adaptive = policy;
  wopts.compare_dense = true;
  auto result = RunIndexedWorkload(**matcher, setup.problems, prepared,
                                   setup.options, wopts);
  ASSERT_TRUE(result.ok()) << result.status();

  uint64_t budget_sum = 0;
  for (const QueryRunReport& report : result->reports) {
    EXPECT_GE(report.provably_complete_fraction, 0.9) << report.name;
    EXPECT_GT(report.budget_spent, 0u) << report.name;
    budget_sum += report.budget_spent;
  }
  EXPECT_EQ(result->total_budget_spent, budget_sum);
  EXPECT_GE(result->mean_provable_completeness, 0.9);
  // The budget-driven run must skip nodes — it is a genuine sparse run.
  EXPECT_GT(result->stats.candidates_skipped, 0u);
}

TEST(IndexedWorkloadTest, CompletenessConventionIsOneEverywhere) {
  // Regression: QueryRunReport used to default provably_complete_fraction
  // to 0.0 while engine::BatchMatchStats used 1.0. The unified convention
  // is 1.0 — an empty run, or the engine's direct run without candidate
  // lists, skipped nothing, so completeness holds vacuously — in both
  // structs and in what such an engine run reports.
  EXPECT_EQ(QueryRunReport{}.provably_complete_fraction, 1.0);
  EXPECT_EQ(engine::BatchMatchStats{}.provably_complete_fraction, 1.0);

  WorkloadSetup setup = MakeSetup();
  // Cluster refuses sharding, so the engine falls back to the direct
  // `Matcher::Match` run.
  auto matcher = match::MakeMatcher("cluster", setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  engine::BatchMatchEngine direct_engine;
  engine::BatchMatchStats stats;
  stats.provably_complete_fraction = -7.0;  // must be overwritten
  auto run = direct_engine.Run(**matcher, setup.problems[0].query,
                               setup.repo, setup.options, &stats);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(stats.fell_back_to_single_run);
  EXPECT_EQ(stats.provably_complete_fraction, 1.0);
}

}  // namespace
}  // namespace smb::eval
