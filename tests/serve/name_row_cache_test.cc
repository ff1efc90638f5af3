#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "engine/batch_match_engine.h"
#include "engine/query_cache.h"
#include "eval/answer_set_io.h"
#include "io/csv.h"
#include "schema/text_format.h"
#include "schema/xsd_writer.h"
#include "serve/match_service.h"
#include "serve/protocol.h"
#include "serve/serving_index.h"
#include "../index/name_row_collection.h"

/// \file name_row_cache_test.cc
/// \brief The serve path's name-row cache: one per generation, so a reload
/// starts empty, and requests that miss the answer cache but hit cached
/// rows still write answers byte-identical to an uncached engine run.

namespace smb::serve {
namespace {

namespace fs = std::filesystem;

/// A bound-driven beam service (target 0.9, floor 0.5) over the mixed-size
/// collection on disk, where a query position has both full and partial
/// cells.
class NameRowCacheServeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("row_cache_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "repo");
    const schema::SchemaRepository repo =
        index::name_row_testing::MakeMixedSizeRepo();
    for (const schema::Schema& schema : repo.schemas()) {
      ASSERT_TRUE(io::WriteTextFile(
                      (dir_ / "repo" / (schema.name() + ".xsd")).string(),
                      schema::WriteXsd(schema))
                      .ok());
    }
    snapshot_path_ = (dir_ / "index.snap").string();
    query_path_ = (dir_ / "query.txt").string();
    ASSERT_TRUE(io::WriteTextFile(
                    query_path_, schema::WriteSchemaText(
                                     index::name_row_testing::MakeQuery()))
                    .ok());

    cache_ = std::make_unique<engine::QueryResultCache>(16);
    ServingIndexOptions index_options;
    // The beam matcher keeps the runs over the 72-node schemas short.
    index_options.matcher_kind = "beam";
    index_options.save_after_build = true;
    auto index = OpenServingIndex((dir_ / "repo").string(), snapshot_path_,
                                  index_options, /*generation=*/1);
    ASSERT_TRUE(index.ok()) << index.status();

    MatchServiceConfig config;
    config.engine_options.num_threads = 2;
    index::AdaptiveCandidatePolicy policy;
    policy.min_provable_completeness = 0.9;
    config.engine_options.adaptive = policy;
    config.cache = cache_.get();
    config.shed.base_target = 0.9;
    config.shed.min_target = 0.5;
    config.index_options = index_options;
    config.default_repo_dir = (dir_ / "repo").string();
    service_ = std::make_unique<MatchService>(*index, std::move(config));
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Serves the query at `target`, writing the answers to `file`.
  MatchResponse Serve(double target, const std::string& file) {
    Request request;
    request.query_path = query_path_;
    request.out_path = (dir_ / file).string();
    request.target_bound = target;
    auto response = service_->Execute(request, /*pressure=*/0.0);
    EXPECT_TRUE(response.ok()) << response.status();
    return response.ok() ? *response : MatchResponse{};
  }

  /// The answer file of a fresh engine run on `generation` at `target`,
  /// with no name-row cache.
  std::string Uncached(const ServingIndex& generation, double target,
                       const std::string& file) {
    engine::BatchMatchOptions options;
    options.num_threads = 2;
    options.prepared_repository = &*generation.prepared;
    index::AdaptiveCandidatePolicy policy;
    policy.min_provable_completeness = target;
    options.adaptive = policy;
    engine::BatchMatchEngine engine(options);
    auto answers = engine.Run(*generation.matcher,
                              index::name_row_testing::MakeQuery(),
                              generation.repo, match::MatchOptions{});
    EXPECT_TRUE(answers.ok()) << answers.status();
    const std::string path = (dir_ / file).string();
    EXPECT_TRUE(answers.ok() && eval::WriteAnswerSetFile(path, *answers).ok());
    return Read(file);
  }

  std::string Read(const std::string& file) {
    auto text = io::ReadTextFile((dir_ / file).string());
    EXPECT_TRUE(text.ok()) << text.status();
    return text.ok() ? *text : "";
  }

  fs::path dir_;
  std::string snapshot_path_;
  std::string query_path_;
  std::unique_ptr<engine::QueryResultCache> cache_;
  std::unique_ptr<MatchService> service_;
};

TEST_F(NameRowCacheServeFixture, NewTargetsReuseRowsAndMatchAnUncachedRun) {
  const std::shared_ptr<const ServingIndex> generation = service_->index();
  ASSERT_NE(generation->name_rows, nullptr);

  const MatchResponse first = Serve(0.95, "served-095.csv");
  EXPECT_FALSE(first.cache_hit);
  const index::NameRowCacheStats after_first = generation->name_rows->stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_GT(after_first.entries, 0u);

  // Another target misses the answer cache, but its rows are resident.
  const MatchResponse second = Serve(1.0, "served-100.csv");
  EXPECT_FALSE(second.cache_hit);
  const index::NameRowCacheStats after_second =
      generation->name_rows->stats();
  EXPECT_GT(after_second.hits, 0u);
  EXPECT_LE(after_second.bytes, generation->name_rows->budget_bytes());

  EXPECT_EQ(Read("served-095.csv"),
            Uncached(*generation, 0.95, "uncached-095.csv"));
  EXPECT_EQ(Read("served-100.csv"),
            Uncached(*generation, 1.0, "uncached-100.csv"));

  // The stats line carries the generation's counters.
  const auto fields = ParseResponseFields(
      "stats" + FormatRowCacheFields(*generation));
  EXPECT_EQ(fields.at("row_cache_hits"), std::to_string(after_second.hits));
  EXPECT_EQ(fields.at("row_cache_misses"),
            std::to_string(after_second.misses));
  EXPECT_EQ(fields.at("row_cache_evictions"), "0");
  EXPECT_EQ(fields.at("row_cache_bytes"), std::to_string(after_second.bytes));
}

TEST_F(NameRowCacheServeFixture, ReloadStartsTheNewGenerationEmpty) {
  const std::shared_ptr<const ServingIndex> old_generation =
      service_->index();
  Serve(0.95, "before.csv");
  const uint64_t old_entries = old_generation->name_rows->stats().entries;
  EXPECT_GT(old_entries, 0u);

  auto swapped = service_->Reload(snapshot_path_, /*repo_dir=*/"");
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  const ServingIndex& fresh = **swapped;
  EXPECT_EQ(fresh.generation, 2u);
  ASSERT_NE(fresh.name_rows, nullptr);
  EXPECT_NE(fresh.name_rows.get(), old_generation->name_rows.get());
  EXPECT_EQ(fresh.name_rows->prepared(), &*fresh.prepared);
  const index::NameRowCacheStats empty = fresh.name_rows->stats();
  EXPECT_EQ(empty.hits, 0u);
  EXPECT_EQ(empty.misses, 0u);
  EXPECT_EQ(empty.evictions, 0u);
  EXPECT_EQ(empty.bytes, 0u);
  EXPECT_EQ(empty.entries, 0u);
  EXPECT_EQ(FormatRowCacheFields(fresh),
            " row_cache_hits=0 row_cache_misses=0 row_cache_evictions=0 "
            "row_cache_bytes=0");
  // The old generation's rows live on with the old generation.
  EXPECT_EQ(old_generation->name_rows->stats().entries, old_entries);

  // A target the answer cache has not seen runs on the new generation,
  // fills its rows, and matches an uncached run.
  const MatchResponse response = Serve(0.97, "after.csv");
  EXPECT_FALSE(response.cache_hit);
  EXPECT_GT(fresh.name_rows->stats().entries, 0u);
  EXPECT_EQ(Read("after.csv"), Uncached(fresh, 0.97, "uncached-097.csv"));
}

}  // namespace
}  // namespace smb::serve
