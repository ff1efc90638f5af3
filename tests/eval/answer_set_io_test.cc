#include "eval/answer_set_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "io/csv.h"

namespace smb::eval {
namespace {

match::AnswerSet MakeAnswers() {
  match::AnswerSet set;
  set.Add(match::Mapping{2, {5, 1, 9}, 0.125});
  set.Add(match::Mapping{0, {3}, 0.0});
  set.Add(match::Mapping{7, {2, 2}, 0.999});
  set.Finalize();
  return set;
}

TEST(AnswerSetIoTest, RoundTripsExactly) {
  match::AnswerSet original = MakeAnswers();
  std::string csv = WriteAnswerSetCsv(original);
  auto reparsed = ReadAnswerSetCsv(csv);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  ASSERT_EQ(reparsed->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reparsed->mappings()[i].key(), original.mappings()[i].key());
    EXPECT_DOUBLE_EQ(reparsed->mappings()[i].delta,
                     original.mappings()[i].delta);
  }
}

TEST(AnswerSetIoTest, PreservesRankingAfterReload) {
  auto reparsed = ReadAnswerSetCsv(WriteAnswerSetCsv(MakeAnswers())).value();
  for (size_t i = 1; i < reparsed.size(); ++i) {
    EXPECT_LE(reparsed.mappings()[i - 1].delta, reparsed.mappings()[i].delta);
  }
  EXPECT_TRUE(reparsed.finalized());
}

TEST(AnswerSetIoTest, RejectsWrongKind) {
  auto result = ReadAnswerSetCsv("#matchbounds=pr_curve\na,b,c\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("answer_set"), std::string::npos);
}

TEST(AnswerSetIoTest, RejectsMissingColumns) {
  EXPECT_FALSE(
      ReadAnswerSetCsv("#matchbounds=answer_set\nschema_index,targets\n1,2\n")
          .ok());
}

TEST(AnswerSetIoTest, RejectsMalformedFields) {
  const char* header = "#matchbounds=answer_set\nschema_index,targets,delta\n";
  EXPECT_FALSE(ReadAnswerSetCsv(std::string(header) + "x,1;2,0.5\n").ok());
  EXPECT_FALSE(ReadAnswerSetCsv(std::string(header) + "1,,0.5\n").ok());
  EXPECT_FALSE(ReadAnswerSetCsv(std::string(header) + "1,1;b,0.5\n").ok());
  EXPECT_FALSE(ReadAnswerSetCsv(std::string(header) + "1,1;2,bad\n").ok());
  EXPECT_FALSE(ReadAnswerSetCsv(std::string(header) + "1,1;2,-0.5\n").ok());
}

TEST(AnswerSetIoTest, EmptySetRoundTrips) {
  match::AnswerSet empty;
  empty.Finalize();
  auto reparsed = ReadAnswerSetCsv(WriteAnswerSetCsv(empty));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(reparsed->empty());
}

TEST(AnswerSetIoTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/smb_answers.csv";
  ASSERT_TRUE(WriteAnswerSetFile(path, MakeAnswers()).ok());
  auto reparsed = ReadAnswerSetFile(path);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->size(), 3u);
  EXPECT_FALSE(ReadAnswerSetFile("/no/such.csv").ok());
}

/// The answer file as a generic CSV document: one row of
/// (schema_index, targets joined by ';', "%.17g" delta) per mapping.
std::string DocumentCsv(const match::AnswerSet& answers) {
  io::CsvDocument doc;
  doc.metadata.emplace_back("matchbounds", "answer_set");
  doc.metadata.emplace_back("count", std::to_string(answers.size()));
  doc.header = {"schema_index", "targets", "delta"};
  for (const auto& m : answers.mappings()) {
    std::string targets;
    for (size_t i = 0; i < m.targets.size(); ++i) {
      if (i > 0) targets += ';';
      targets += std::to_string(m.targets[i]);
    }
    doc.rows.push_back({std::to_string(m.schema_index), targets,
                        StrFormat("%.17g", m.delta)});
  }
  return io::WriteCsv(doc);
}

TEST(AnswerSetIoTest, WriterMatchesGenericCsvDocument) {
  Rng rng(17);
  match::AnswerSet set;
  const std::vector<double> edges = {
      0.0, 1.0, 0.1, 0.25, 1.0 / 3.0, 2.0 / 3.0, 1e-5, 1e-300, 123456789.0,
      1e17, 1e16 + 2.0, std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(), std::nextafter(0.25, 1.0),
      std::nextafter(0.25, 0.0)};
  for (size_t i = 0; i < 4000; ++i) {
    match::Mapping m;
    m.schema_index = static_cast<int32_t>(
        i % 3 == 0 ? rng.UniformIndex(2'000'000'000) : rng.UniformIndex(100));
    const size_t width = 1 + rng.UniformIndex(6);
    for (size_t t = 0; t < width; ++t) {
      m.targets.push_back(static_cast<schema::NodeId>(
          t == 0 && i % 7 == 0 ? rng.UniformIndex(2'000'000'000)
                               : rng.UniformIndex(40)));
    }
    if (i < edges.size()) {
      m.delta = edges[i];
    } else if (i % 2 == 0) {
      m.delta = rng.UniformDouble();
    } else {
      // Sums of node costs over a normalizer, as the matchers emit them.
      double sum = 0.0;
      for (size_t t = 0; t < width; ++t) sum += rng.UniformDouble();
      m.delta = sum / static_cast<double>(width + rng.UniformIndex(5));
    }
    set.Add(std::move(m));
  }
  set.Finalize();
  EXPECT_EQ(WriteAnswerSetCsv(set), DocumentCsv(set));

  match::AnswerSet empty;
  empty.Finalize();
  EXPECT_EQ(WriteAnswerSetCsv(empty), DocumentCsv(empty));
}

TEST(GroundTruthIoTest, RoundTrips) {
  eval::GroundTruth truth;
  std::vector<match::Mapping::Key> keys = {
      {0, {1, 2}}, {3, {4}}, {3, {5, 6, 7}}};
  for (const auto& key : keys) truth.AddCorrect(key);
  std::string csv = WriteGroundTruthCsv(truth, keys);
  auto reparsed = ReadGroundTruthCsv(csv);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->size(), 3u);
  for (const auto& key : keys) {
    EXPECT_TRUE(reparsed->Contains(key));
  }
}

TEST(GroundTruthIoTest, SkipsKeysNotInTruth) {
  eval::GroundTruth truth;
  truth.AddCorrect({0, {1}});
  std::vector<match::Mapping::Key> keys = {{0, {1}}, {9, {9}}};
  auto reparsed = ReadGroundTruthCsv(WriteGroundTruthCsv(truth, keys));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->size(), 1u);
  EXPECT_FALSE(reparsed->Contains(match::Mapping::Key{9, {9}}));
}

TEST(GroundTruthIoTest, RejectsWrongKind) {
  EXPECT_FALSE(ReadGroundTruthCsv("#matchbounds=answer_set\na,b\n").ok());
}

}  // namespace
}  // namespace smb::eval
