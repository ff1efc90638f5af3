#include "match/answer_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"

namespace smb::match {
namespace {

Mapping M(int32_t schema, std::vector<schema::NodeId> targets, double delta) {
  return Mapping{schema, std::move(targets), delta};
}

AnswerSet MakeSet() {
  AnswerSet set;
  set.Add(M(0, {1}, 0.3));
  set.Add(M(0, {2}, 0.1));
  set.Add(M(1, {1}, 0.2));
  set.Add(M(1, {2}, 0.1));
  set.Finalize();
  return set;
}

TEST(AnswerSetTest, FinalizeSortsByDeltaThenKey) {
  AnswerSet set = MakeSet();
  ASSERT_EQ(set.size(), 4u);
  EXPECT_DOUBLE_EQ(set.mappings()[0].delta, 0.1);
  EXPECT_EQ(set.mappings()[0].schema_index, 0);  // (0.1, s0) before (0.1, s1)
  EXPECT_DOUBLE_EQ(set.mappings()[1].delta, 0.1);
  EXPECT_EQ(set.mappings()[1].schema_index, 1);
  EXPECT_DOUBLE_EQ(set.mappings()[3].delta, 0.3);
}

TEST(AnswerSetTest, FinalizeDeduplicatesByKey) {
  AnswerSet set;
  set.Add(M(0, {1}, 0.2));
  set.Add(M(0, {1}, 0.2));
  set.Add(M(0, {1}, 0.5));  // same key, worse score: dropped
  set.Finalize();
  EXPECT_EQ(set.size(), 1u);
  EXPECT_DOUBLE_EQ(set.mappings()[0].delta, 0.2);
}

/// Finalize's contract, computed the plain way: rank every answer, then
/// keep the first-ranked answer of each key.
std::vector<Mapping> ReferenceFinalize(std::vector<Mapping> answers) {
  std::stable_sort(answers.begin(), answers.end(), Mapping::RankLess);
  std::set<Mapping::Key> seen;
  std::vector<Mapping> out;
  for (Mapping& m : answers) {
    if (seen.insert(m.key()).second) out.push_back(std::move(m));
  }
  return out;
}

TEST(AnswerSetTest, FinalizeMatchesReferenceWithAndWithoutDuplicates) {
  Rng rng(5);
  for (size_t trial = 0; trial < 40; ++trial) {
    // Even trials draw from a key space far larger than the set (almost
    // surely no duplicate); odd ones from a small one, where the same key
    // recurs under equal and under different Δs.
    const size_t key_space = trial % 2 == 0 ? 1'000'000 : 50;
    std::vector<Mapping> answers;
    const size_t n = 1 + rng.UniformIndex(3000);
    for (size_t i = 0; i < n; ++i) {
      const size_t key = rng.UniformIndex(key_space);
      Mapping m;
      m.schema_index = static_cast<int32_t>(key % 7);
      for (size_t k = key / 7, t = 0; t < 3; ++t, k /= 13) {
        m.targets.push_back(static_cast<schema::NodeId>(k % 13));
      }
      m.delta = static_cast<double>(rng.UniformIndex(8)) / 8.0;
      answers.push_back(std::move(m));
    }
    AnswerSet set;
    for (const Mapping& m : answers) set.Add(m);
    set.Finalize();
    const std::vector<Mapping> want = ReferenceFinalize(answers);
    ASSERT_EQ(set.size(), want.size()) << "trial " << trial;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(set.mappings()[i].key(), want[i].key()) << "trial " << trial;
      EXPECT_EQ(set.mappings()[i].delta, want[i].delta) << "trial " << trial;
    }
  }
}

TEST(AnswerSetTest, CountAtThreshold) {
  AnswerSet set = MakeSet();
  EXPECT_EQ(set.CountAtThreshold(0.0), 0u);
  EXPECT_EQ(set.CountAtThreshold(0.1), 2u);
  EXPECT_EQ(set.CountAtThreshold(0.15), 2u);
  EXPECT_EQ(set.CountAtThreshold(0.2), 3u);
  EXPECT_EQ(set.CountAtThreshold(1.0), 4u);
}

TEST(AnswerSetTest, FilterToThreshold) {
  AnswerSet set = MakeSet();
  AnswerSet low = set.FilterToThreshold(0.15);
  EXPECT_EQ(low.size(), 2u);
  EXPECT_TRUE(AnswerSet::IsSubsetOf(low, set));
}

TEST(AnswerSetTest, TopN) {
  AnswerSet set = MakeSet();
  EXPECT_EQ(set.TopN(2).size(), 2u);
  EXPECT_EQ(set.TopN(0).size(), 0u);
  EXPECT_EQ(set.TopN(99).size(), 4u);
  EXPECT_DOUBLE_EQ(set.TopN(1).mappings()[0].delta, 0.1);
}

TEST(AnswerSetTest, MaxDelta) {
  EXPECT_DOUBLE_EQ(MakeSet().MaxDelta(), 0.3);
  EXPECT_DOUBLE_EQ(AnswerSet().MaxDelta(), 0.0);
}

TEST(AnswerSetTest, SizesAt) {
  AnswerSet set = MakeSet();
  auto sizes = set.SizesAt({0.1, 0.2, 0.3});
  EXPECT_EQ(sizes, (std::vector<size_t>{2, 3, 4}));
}

TEST(AnswerSetTest, IsSubsetOf) {
  AnswerSet super = MakeSet();
  AnswerSet sub;
  sub.Add(M(0, {2}, 0.1));
  sub.Add(M(1, {1}, 0.2));
  sub.Finalize();
  EXPECT_TRUE(AnswerSet::IsSubsetOf(sub, super));
  EXPECT_FALSE(AnswerSet::IsSubsetOf(super, sub));
  AnswerSet alien;
  alien.Add(M(9, {9}, 0.1));
  alien.Finalize();
  EXPECT_FALSE(AnswerSet::IsSubsetOf(alien, super));
}

TEST(AnswerSetTest, VerifySameObjectiveAccepts) {
  AnswerSet super = MakeSet();
  AnswerSet sub;
  sub.Add(M(0, {2}, 0.1));
  sub.Finalize();
  EXPECT_TRUE(AnswerSet::VerifySameObjective(sub, super).ok());
}

TEST(AnswerSetTest, VerifySameObjectiveRejectsMissingKey) {
  AnswerSet super = MakeSet();
  AnswerSet sub;
  sub.Add(M(7, {7}, 0.1));
  sub.Finalize();
  Status status = AnswerSet::VerifySameObjective(sub, super);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("A2 ⊆ A1"), std::string::npos);
}

TEST(AnswerSetTest, VerifySameObjectiveRejectsScoreMismatch) {
  AnswerSet super = MakeSet();
  AnswerSet sub;
  sub.Add(M(0, {2}, 0.11));  // key exists with Δ=0.1
  sub.Finalize();
  Status status = AnswerSet::VerifySameObjective(sub, super);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("objective functions differ"),
            std::string::npos);
}

/// Figure 1 property: δ1 ≤ δ2 ⇒ A^δ1 ⊆ A^δ2 over random answer sets.
class ThresholdNestingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ThresholdNestingTest, AnswerSetsNestWithThreshold) {
  Rng rng(GetParam());
  AnswerSet set;
  for (int i = 0; i < 200; ++i) {
    set.Add(M(static_cast<int32_t>(rng.UniformIndex(5)),
              {static_cast<schema::NodeId>(rng.UniformIndex(20)),
               static_cast<schema::NodeId>(rng.UniformIndex(20))},
              rng.UniformDouble()));
  }
  set.Finalize();
  double d1 = rng.UniformDouble();
  double d2 = rng.UniformDouble();
  if (d1 > d2) std::swap(d1, d2);
  AnswerSet a1 = set.FilterToThreshold(d1);
  AnswerSet a2 = set.FilterToThreshold(d2);
  EXPECT_LE(a1.size(), a2.size());
  EXPECT_TRUE(AnswerSet::IsSubsetOf(a1, a2));
  // Counts agree with the filtered sets.
  EXPECT_EQ(a1.size(), set.CountAtThreshold(d1));
  EXPECT_EQ(a2.size(), set.CountAtThreshold(d2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThresholdNestingTest,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

}  // namespace
}  // namespace smb::match
