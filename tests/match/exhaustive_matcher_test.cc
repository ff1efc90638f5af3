#include "match/exhaustive_matcher.h"

#include <gtest/gtest.h>

#include "../testing/fixtures.h"
#include "dfs_oracle.h"

namespace smb::match {
namespace {

using testing::MakeQuery;
using testing::MakeRepo;

TEST(ExhaustiveMatcherTest, FindsExactCopyAtDeltaZero) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  ExhaustiveMatcher matcher;
  MatchOptions options;
  options.delta_threshold = 0.5;
  auto answers = matcher.Match(query, repo, options);
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_FALSE(answers->empty());
  const Mapping& best = answers->mappings()[0];
  EXPECT_NEAR(best.delta, 0.0, 1e-12);
  EXPECT_EQ(best.schema_index, 0);
  EXPECT_EQ(best.targets, (std::vector<schema::NodeId>{1, 2, 3}));
}

TEST(ExhaustiveMatcherTest, CompleteWithinThreshold) {
  // Every injective assignment with Δ ≤ δ must appear.
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  MatchOptions options;
  options.delta_threshold = 1.0;  // everything qualifies

  ExhaustiveMatcher matcher;
  auto a = matcher.Match(query, repo, options);
  ASSERT_TRUE(a.ok());
  AnswerSet b = OracleMatch(query, repo, options);
  // All injective 3-tuples: 6*5*4 + 5*4*3 + 5*4*3 = 120 + 60 + 60 = 240.
  EXPECT_EQ(b.size(), 240u);
  EXPECT_EQ(a->size(), b.size());
}

TEST(ExhaustiveMatcherTest, PruningPreservesAnswerSets) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  for (double delta : {0.1, 0.25, 0.4}) {
    MatchOptions options;
    options.delta_threshold = delta;
    ExhaustiveMatcher matcher;
    auto a = matcher.Match(query, repo, options);
    ASSERT_TRUE(a.ok());
    AnswerSet b = OracleMatch(query, repo, options);
    EXPECT_EQ(a->size(), b.size()) << "delta=" << delta;
    EXPECT_TRUE(AnswerSet::IsSubsetOf(*a, b));
    EXPECT_TRUE(AnswerSet::VerifySameObjective(*a, b).ok());
  }
}

TEST(ExhaustiveMatcherTest, NonInjectiveAllowsReuse) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  MatchOptions options;
  options.delta_threshold = 1.0;
  options.injective = false;
  AnswerSet reference = OracleMatch(query, repo, options);
  // 6^3 + 5^3 + 5^3 = 216 + 125 + 125 = 466.
  EXPECT_EQ(reference.size(), 466u);
  ExhaustiveMatcher matcher;
  auto answers = matcher.Match(query, repo, options);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 466u);
}

TEST(ExhaustiveMatcherTest, StatsAreCounted) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  MatchOptions options;
  options.delta_threshold = 0.2;
  MatchStats stats;
  ExhaustiveMatcher matcher;
  auto answers = matcher.Match(query, repo, options, &stats);
  ASSERT_TRUE(answers.ok());
  EXPECT_GT(stats.states_explored, 0u);
  EXPECT_GT(stats.states_pruned, 0u);
  EXPECT_EQ(stats.mappings_emitted, answers->size());
}

TEST(ExhaustiveMatcherTest, ThresholdZeroReturnsOnlyPerfectCopies) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  MatchOptions options;
  options.delta_threshold = 0.0;
  ExhaustiveMatcher matcher;
  auto answers = matcher.Match(query, repo, options);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->size(), 1u);
  EXPECT_NEAR(answers->mappings()[0].delta, 0.0, 1e-12);
}

TEST(ExhaustiveMatcherTest, RejectsEmptyQuery) {
  schema::SchemaRepository repo = MakeRepo();
  ExhaustiveMatcher matcher;
  auto answers = matcher.Match(schema::Schema(), repo, MatchOptions{});
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExhaustiveMatcherTest, RejectsEmptyRepository) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo;
  ExhaustiveMatcher matcher;
  EXPECT_FALSE(matcher.Match(query, repo, MatchOptions{}).ok());
}

TEST(ExhaustiveMatcherTest, RejectsOversizedQuery) {
  schema::Schema query("big");
  auto root = query.AddRoot("root").value();
  for (int i = 0; i < 15; ++i) {
    query.AddChild(root, "c" + std::to_string(i)).value();
  }
  schema::SchemaRepository repo = MakeRepo();
  ExhaustiveMatcher matcher;
  auto answers = matcher.Match(query, repo, MatchOptions{});
  ASSERT_FALSE(answers.ok());
  EXPECT_NE(answers.status().message().find("exponential"),
            std::string::npos);
}

TEST(ExhaustiveMatcherTest, RejectsNegativeThreshold) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  MatchOptions options;
  options.delta_threshold = -0.1;
  ExhaustiveMatcher matcher;
  EXPECT_FALSE(matcher.Match(query, repo, options).ok());
}

TEST(ExhaustiveMatcherTest, AnswersSortedByDelta) {
  schema::Schema query = MakeQuery();
  schema::SchemaRepository repo = MakeRepo();
  MatchOptions options;
  options.delta_threshold = 0.6;
  ExhaustiveMatcher matcher;
  auto answers = matcher.Match(query, repo, options);
  ASSERT_TRUE(answers.ok());
  for (size_t i = 1; i < answers->size(); ++i) {
    EXPECT_LE(answers->mappings()[i - 1].delta, answers->mappings()[i].delta);
  }
}

}  // namespace
}  // namespace smb::match
