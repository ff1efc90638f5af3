#include "index/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/batch_match_engine.h"
#include "index/candidate_generator.h"
#include "io/binary_io.h"
#include "match/fingerprint.h"
#include "match/matcher_factory.h"
#include "sim/synonyms.h"
#include "synth/generator.h"
#include "../testing/fixtures.h"

namespace smb::index {
namespace {

using testing::MakeQuery;
using testing::MakeRepo;

sim::NameSimilarityOptions SynonymOptions() {
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  sim::NameSimilarityOptions options;
  options.synonyms = &kTable;
  return options;
}

synth::SyntheticCollection MakeCollection(size_t schemas = 30) {
  Rng rng(4242);
  synth::SynthOptions sopts;
  sopts.num_schemas = schemas;
  return synth::GenerateProblem(4, sopts, &rng).value();
}

/// Structural equality of a built and a loaded index, field by field:
/// every prepared name payload, every posting list, every bucket, and the
/// stats. This is byte-level equality of everything scoring reads.
void ExpectIndexesIdentical(const PreparedRepository& a,
                            const PreparedRepository& b) {
  ASSERT_EQ(a.element_count(), b.element_count());
  for (uint32_t o = 0; o < a.element_count(); ++o) {
    const PreparedElement& ea = a.element(o);
    const PreparedElement& eb = b.element(o);
    EXPECT_EQ(ea.schema_index, eb.schema_index);
    EXPECT_EQ(ea.node, eb.node);
    EXPECT_EQ(ea.trigram_count, eb.trigram_count);
    const sim::PreparedName& na = ea.name;
    const sim::PreparedName& nb = eb.name;
    EXPECT_EQ(na.folded, nb.folded);
    EXPECT_EQ(na.tokens, nb.tokens);
    EXPECT_TRUE(na.gram_ids == nb.gram_ids);
    EXPECT_TRUE(na.token_ids == nb.token_ids);
    EXPECT_TRUE(na.token_groups == nb.token_groups);
    EXPECT_TRUE(na.peq_chars == nb.peq_chars);
    EXPECT_TRUE(na.peq_masks == nb.peq_masks);
    EXPECT_EQ(na.name_group, nb.name_group);
    EXPECT_EQ(a.name_id(o), b.name_id(o));
    EXPECT_TRUE(nb.kernel_ready);
    // Loaded provenance points at the loaded index's own tables.
    EXPECT_EQ(nb.token_table, &b.token_table());
    EXPECT_EQ(nb.synonyms, b.name_options().synonyms);

    // Posting parity, probed through every element's own evidence.
    if (!na.gram_ids.empty()) {
      std::span<const TrigramPosting> ta = a.TrigramPostings(na.gram_ids[0]);
      std::span<const TrigramPosting> tb = b.TrigramPostings(nb.gram_ids[0]);
      ASSERT_EQ(ta.size(), tb.size());
      for (size_t i = 0; i < ta.size(); ++i) {
        EXPECT_EQ(ta[i].ordinal, tb[i].ordinal);
        EXPECT_EQ(ta[i].count, tb[i].count);
      }
    }
    if (!na.token_ids.empty()) {
      std::span<const uint32_t> pa = a.TokenPostings(na.token_ids[0]);
      std::span<const uint32_t> pb = b.TokenPostings(nb.token_ids[0]);
      EXPECT_TRUE(std::vector<uint32_t>(pa.begin(), pa.end()) ==
                  std::vector<uint32_t>(pb.begin(), pb.end()));
    }
    const std::vector<uint32_t>* bucket_a = a.NameBucket(na.folded);
    const std::vector<uint32_t>* bucket_b = b.NameBucket(nb.folded);
    ASSERT_NE(bucket_a, nullptr);
    ASSERT_NE(bucket_b, nullptr);
    EXPECT_EQ(*bucket_a, *bucket_b);
    const schema::SchemaNode& node =
        a.repo().schema(ea.schema_index).node(ea.node);
    const std::vector<uint32_t>* type_a = a.TypeBucket(node.type);
    const std::vector<uint32_t>* type_b = b.TypeBucket(node.type);
    ASSERT_NE(type_a, nullptr);
    ASSERT_NE(type_b, nullptr);
    EXPECT_EQ(*type_a, *type_b);
  }
  EXPECT_EQ(a.token_table().size(), b.token_table().size());
  EXPECT_EQ(a.name_count(), b.name_count());
  EXPECT_EQ(a.stats().element_count, b.stats().element_count);
  EXPECT_EQ(a.stats().distinct_tokens, b.stats().distinct_tokens);
  EXPECT_EQ(a.stats().distinct_trigrams, b.stats().distinct_trigrams);
  EXPECT_EQ(a.stats().distinct_types, b.stats().distinct_types);
  EXPECT_EQ(a.stats().token_posting_entries,
            b.stats().token_posting_entries);
  EXPECT_EQ(a.stats().trigram_posting_entries,
            b.stats().trigram_posting_entries);
}

TEST(SnapshotTest, EncodeDecodeRoundTripsEveryStructure) {
  auto collection = MakeCollection();
  sim::NameSimilarityOptions options = SynonymOptions();
  auto built = PreparedRepository::Build(collection.repository, options);
  ASSERT_TRUE(built.ok()) << built.status();

  const std::string bytes = EncodeSnapshot(*built);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    auto loaded =
        DecodeSnapshot(bytes, collection.repository, options, threads);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ExpectIndexesIdentical(*built, *loaded);
  }
}

TEST(SnapshotTest, EncodingIsDeterministic) {
  auto collection = MakeCollection(10);
  sim::NameSimilarityOptions options = SynonymOptions();
  auto built = PreparedRepository::Build(collection.repository, options);
  ASSERT_TRUE(built.ok()) << built.status();
  const std::string once = EncodeSnapshot(*built);
  const std::string twice = EncodeSnapshot(*built);
  EXPECT_EQ(once, twice);
  // Save -> load -> save is byte-stable too.
  auto loaded = DecodeSnapshot(once, collection.repository, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(EncodeSnapshot(*loaded), once);
}

TEST(SnapshotTest, CandidateGeneratorEntriesBitIdenticalAfterLoad) {
  auto collection = MakeCollection();
  match::ObjectiveOptions objective;
  objective.name = SynonymOptions();
  auto built = PreparedRepository::Build(collection.repository,
                                         objective.name);
  ASSERT_TRUE(built.ok()) << built.status();
  auto loaded = DecodeSnapshot(EncodeSnapshot(*built),
                               collection.repository, objective.name);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  for (size_t limit : {size_t{2}, size_t{8}}) {
    CandidateGenerator from_built(&*built, objective);
    CandidateGenerator from_loaded(&*loaded, objective);
    auto built_candidates = from_built.Generate(collection.query, limit);
    auto loaded_candidates = from_loaded.Generate(collection.query, limit);
    ASSERT_TRUE(built_candidates.ok()) << built_candidates.status();
    ASSERT_TRUE(loaded_candidates.ok()) << loaded_candidates.status();

    const size_t positions = built_candidates->positions();
    const size_t schema_count = built_candidates->schema_count();
    ASSERT_EQ(positions, loaded_candidates->positions());
    ASSERT_EQ(schema_count, loaded_candidates->schema_count());
    for (size_t pos = 0; pos < positions; ++pos) {
      for (size_t si = 0; si < schema_count; ++si) {
        const auto schema_index = static_cast<int32_t>(si);
        const std::vector<match::CandidateEntry>* a =
            built_candidates->CandidatesFor(pos, schema_index);
        const std::vector<match::CandidateEntry>* b =
            loaded_candidates->CandidatesFor(pos, schema_index);
        ASSERT_EQ(a->size(), b->size());
        for (size_t i = 0; i < a->size(); ++i) {
          EXPECT_EQ((*a)[i].node, (*b)[i].node);
          // Bit-identical, not approximately equal.
          EXPECT_EQ((*a)[i].cost, (*b)[i].cost);
        }
        EXPECT_EQ(built_candidates->SkipLowerBound(pos, schema_index),
                  loaded_candidates->SkipLowerBound(pos, schema_index));
      }
    }
  }
}

TEST(SnapshotTest, EngineAnswersBitIdenticalAcrossMatchersAndThreads) {
  auto collection = MakeCollection();
  match::MatchOptions mopts;
  mopts.delta_threshold = 0.3;
  mopts.objective.name = SynonymOptions();

  auto built = PreparedRepository::Build(collection.repository,
                                         mopts.objective.name);
  ASSERT_TRUE(built.ok()) << built.status();
  auto loaded = DecodeSnapshot(EncodeSnapshot(*built),
                               collection.repository, mopts.objective.name);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  for (const char* kind : {"exhaustive", "beam", "topk"}) {
    auto matcher = match::MakeMatcher(kind, collection.repository);
    ASSERT_TRUE(matcher.ok()) << matcher.status();
    for (size_t threads : {size_t{1}, size_t{4}}) {
      engine::BatchMatchOptions bopts;
      bopts.num_threads = threads;
      bopts.adaptive = testing::FixedPolicy(6);

      bopts.prepared_repository = &*built;
      engine::BatchMatchEngine from_built(bopts);
      bopts.prepared_repository = &*loaded;
      engine::BatchMatchEngine from_loaded(bopts);

      engine::BatchMatchStats stats_built, stats_loaded;
      auto answers_built =
          from_built.Run(**matcher, collection.query, collection.repository,
                         mopts, &stats_built);
      auto answers_loaded =
          from_loaded.Run(**matcher, collection.query, collection.repository,
                          mopts, &stats_loaded);
      ASSERT_TRUE(answers_built.ok()) << answers_built.status();
      ASSERT_TRUE(answers_loaded.ok()) << answers_loaded.status();

      ASSERT_EQ(answers_built->size(), answers_loaded->size())
          << kind << " threads=" << threads;
      for (size_t i = 0; i < answers_built->size(); ++i) {
        const match::Mapping& a = answers_built->mappings()[i];
        const match::Mapping& b = answers_loaded->mappings()[i];
        EXPECT_EQ(a.schema_index, b.schema_index);
        EXPECT_EQ(a.targets, b.targets);
        EXPECT_EQ(a.delta, b.delta);  // bit-identical Δ
      }
      EXPECT_EQ(stats_built.match.candidates_generated,
                stats_loaded.match.candidates_generated);
      EXPECT_EQ(stats_built.provably_complete_fraction,
                stats_loaded.provably_complete_fraction);
    }
  }
}

TEST(SnapshotTest, SaveLoadFileRoundTrip) {
  schema::SchemaRepository repo = MakeRepo();
  sim::NameSimilarityOptions options = SynonymOptions();
  auto built = PreparedRepository::Build(repo, options);
  ASSERT_TRUE(built.ok()) << built.status();

  const std::string path = ::testing::TempDir() + "/smb_snapshot_rt.bin";
  ASSERT_TRUE(SaveSnapshot(*built, path).ok());
  auto loaded = LoadSnapshot(path, repo, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectIndexesIdentical(*built, *loaded);
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  schema::SchemaRepository repo = MakeRepo();
  auto loaded = LoadSnapshot(::testing::TempDir() + "/smb_no_such_snap.bin",
                             repo, SynonymOptions());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// --- Fail-closed loading -------------------------------------------------

TEST(SnapshotTest, RejectsBadMagicAndVersion) {
  schema::SchemaRepository repo = MakeRepo();
  sim::NameSimilarityOptions options = SynonymOptions();
  auto built = PreparedRepository::Build(repo, options);
  ASSERT_TRUE(built.ok()) << built.status();
  std::string bytes = EncodeSnapshot(*built);

  std::string bad_magic = bytes;
  bad_magic[0] ^= 0x40;
  auto magic_result = DecodeSnapshot(bad_magic, repo, options);
  ASSERT_FALSE(magic_result.ok());
  EXPECT_NE(magic_result.status().message().find("magic"),
            std::string::npos);

  std::string bad_version = bytes;
  bad_version[8] = 99;  // version is the u32 after the 8-byte magic
  auto version_result = DecodeSnapshot(bad_version, repo, options);
  ASSERT_FALSE(version_result.ok());
  EXPECT_EQ(version_result.status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_NE(version_result.status().message().find("version"),
            std::string::npos);
}

TEST(SnapshotTest, RejectsOptionAndRepositoryMismatches) {
  schema::SchemaRepository repo = MakeRepo();
  sim::NameSimilarityOptions options = SynonymOptions();
  auto built = PreparedRepository::Build(repo, options);
  ASSERT_TRUE(built.ok()) << built.status();
  const std::string bytes = EncodeSnapshot(*built);

  // Different scorer weights: rejected before any scoring can go wrong.
  sim::NameSimilarityOptions other_weights = options;
  other_weights.weight_trigram += 0.05;
  auto weight_result = DecodeSnapshot(bytes, repo, other_weights);
  ASSERT_FALSE(weight_result.ok());
  EXPECT_EQ(weight_result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(weight_result.status().message().find("scorer options"),
            std::string::npos);

  // Different folding.
  sim::NameSimilarityOptions case_sensitive = options;
  case_sensitive.case_insensitive = false;
  EXPECT_FALSE(DecodeSnapshot(bytes, repo, case_sensitive).ok());

  // Different synonym table content.
  sim::SynonymTable other_table = sim::SynonymTable::Builtin();
  other_table.AddGroup({"flux", "capacitor"});
  sim::NameSimilarityOptions other_synonyms = options;
  other_synonyms.synonyms = &other_table;
  EXPECT_FALSE(DecodeSnapshot(bytes, repo, other_synonyms).ok());

  // Different repository.
  schema::SchemaRepository other_repo = MakeRepo();
  schema::Schema extra("extra");
  extra.AddRoot("unrelated").value();
  other_repo.Add(std::move(extra)).value();
  auto repo_result = DecodeSnapshot(bytes, other_repo, options);
  ASSERT_FALSE(repo_result.ok());
  EXPECT_EQ(repo_result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(repo_result.status().message().find("different repository"),
            std::string::npos);
}

TEST(SnapshotTest, APrecomputedRepositoryFingerprintIsStillCompared) {
  schema::SchemaRepository repo = MakeRepo();
  sim::NameSimilarityOptions options = SynonymOptions();
  auto built = PreparedRepository::Build(repo, options);
  ASSERT_TRUE(built.ok()) << built.status();
  const std::string bytes = EncodeSnapshot(*built);
  const uint64_t fingerprint = match::FingerprintRepository(repo);

  auto loaded = DecodeSnapshot(bytes, repo, options, /*num_threads=*/1,
                               fingerprint);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(EncodeSnapshot(*loaded), bytes);

  // The caller's value stands in for the repository's: one that differs
  // from the stored fingerprint is rejected like a different repository.
  auto mismatch = DecodeSnapshot(bytes, repo, options, /*num_threads=*/1,
                                 fingerprint + 1);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(mismatch.status().message().find("different repository"),
            std::string::npos);

  const std::string path = ::testing::TempDir() + "/smb_snap_fp.bin";
  ASSERT_TRUE(SaveSnapshot(*built, path).ok());
  EXPECT_TRUE(LoadSnapshot(path, repo, options, /*num_threads=*/1,
                           /*report=*/nullptr, fingerprint)
                  .ok());
  EXPECT_EQ(LoadSnapshot(path, repo, options, /*num_threads=*/1,
                         /*report=*/nullptr, fingerprint + 1)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
}

TEST(SnapshotTest, RejectsEveryTruncationPoint) {
  schema::SchemaRepository repo = MakeRepo();
  sim::NameSimilarityOptions options = SynonymOptions();
  auto built = PreparedRepository::Build(repo, options);
  ASSERT_TRUE(built.ok()) << built.status();
  const std::string bytes = EncodeSnapshot(*built);

  // Every prefix of the snapshot must be rejected without crashing. The
  // fixture snapshot is small, so this covers literally every truncation
  // point — header, chunk table, element payload, postings, stats.
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    auto result =
        DecodeSnapshot(std::string_view(bytes).substr(0, keep), repo,
                       options);
    ASSERT_FALSE(result.ok()) << "truncation at byte " << keep
                              << " was accepted";
    EXPECT_FALSE(result.status().message().empty());
  }
  // Trailing garbage is also rejected.
  auto padded = DecodeSnapshot(bytes + "x", repo, options);
  ASSERT_FALSE(padded.ok());
}

TEST(SnapshotTest, RejectsBitFlipsViaChecksum) {
  schema::SchemaRepository repo = MakeRepo();
  sim::NameSimilarityOptions options = SynonymOptions();
  auto built = PreparedRepository::Build(repo, options);
  ASSERT_TRUE(built.ok()) << built.status();
  const std::string bytes = EncodeSnapshot(*built);

  // Flip bits across the whole file (every 7th byte keeps runtime small
  // while still hitting every region). The decode must never succeed:
  // header flips fail magic/version/fingerprint/size checks, body flips
  // fail the checksum.
  Rng rng(99);
  for (size_t pos = 0; pos < bytes.size(); pos += 7) {
    std::string corrupted = bytes;
    corrupted[pos] ^= static_cast<char>(1 + rng.UniformInt(0, 254));
    auto result = DecodeSnapshot(corrupted, repo, options);
    EXPECT_FALSE(result.ok()) << "bit flip at byte " << pos
                              << " was accepted";
  }
}

// --- Format-version compatibility ----------------------------------------

TEST(SnapshotTest, V1SnapshotLoadsAndRebuildsBlockMetadata) {
  auto collection = MakeCollection(20);
  match::ObjectiveOptions objective;
  objective.name = SynonymOptions();
  auto built = PreparedRepository::Build(collection.repository,
                                         objective.name);
  ASSERT_TRUE(built.ok()) << built.status();

  // A v1 writer knows nothing of the block-max arrays, so its output is
  // strictly smaller than v2 of the same index.
  auto v1_bytes = EncodeSnapshotForVersion(*built, 1);
  ASSERT_TRUE(v1_bytes.ok()) << v1_bytes.status();
  const std::string v2_bytes = EncodeSnapshot(*built);
  EXPECT_LT(v1_bytes->size(), v2_bytes.size());

  auto loaded =
      DecodeSnapshot(*v1_bytes, collection.repository, objective.name);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectIndexesIdentical(*built, *loaded);

  // The loader rebuilt the block metadata from the v1 postings — it must
  // be bit-identical to what Build produced.
  const size_t lists = built->stats().distinct_trigrams;
  ASSERT_EQ(lists, loaded->stats().distinct_trigrams);
  for (size_t li = 0; li < lists; ++li) {
    const auto list_index = static_cast<int32_t>(li);
    const TrigramBlockSpans a = built->TrigramBlocks(list_index);
    const TrigramBlockSpans b = loaded->TrigramBlocks(list_index);
    ASSERT_EQ(a.size(), b.size()) << "list " << li;
    for (size_t blk = 0; blk < a.size(); ++blk) {
      EXPECT_EQ(a.last_ordinals[blk], b.last_ordinals[blk]);
      EXPECT_EQ(a.max_counts[blk], b.max_counts[blk]);
      EXPECT_EQ(a.tc_floors[blk], b.tc_floors[blk]);
    }
  }

  // And the block-max candidate path over the loaded index agrees with
  // the freshly built one, bit for bit.
  CandidateGenerator from_built(&*built, objective);
  CandidateGenerator from_loaded(&*loaded, objective);
  auto ca = from_built.Generate(collection.query, 5);
  auto cb = from_loaded.Generate(collection.query, 5);
  ASSERT_TRUE(ca.ok()) << ca.status();
  ASSERT_TRUE(cb.ok()) << cb.status();
  for (size_t pos = 0; pos < ca->positions(); ++pos) {
    for (int32_t si = 0; si < static_cast<int32_t>(ca->schema_count());
         ++si) {
      const auto* la = ca->CandidatesFor(pos, si);
      const auto* lb = cb->CandidatesFor(pos, si);
      ASSERT_EQ(la->size(), lb->size());
      for (size_t i = 0; i < la->size(); ++i) {
        EXPECT_EQ((*la)[i].node, (*lb)[i].node);
        EXPECT_EQ((*la)[i].cost, (*lb)[i].cost);
      }
      EXPECT_EQ(ca->SkipLowerBound(pos, si), cb->SkipLowerBound(pos, si));
    }
  }

  // v1 round-trips through SaveSnapshot's current writer as v2.
  auto reloaded =
      DecodeSnapshot(EncodeSnapshot(*loaded), collection.repository,
                     objective.name);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  ExpectIndexesIdentical(*built, *reloaded);
}

TEST(SnapshotTest, RejectsFutureFormatVersionWithClearError) {
  schema::SchemaRepository repo = MakeRepo();
  sim::NameSimilarityOptions options = SynonymOptions();
  auto built = PreparedRepository::Build(repo, options);
  ASSERT_TRUE(built.ok()) << built.status();

  // A file stamped with a future version must fail closed, naming the
  // versions this binary reads. The version field sits right after the
  // 8-byte magic and is validated before the body checksum, so patching
  // it simulates a genuine future writer.
  std::string future = EncodeSnapshot(*built);
  future[8] = static_cast<char>(kSnapshotFormatVersion + 1);
  auto result = DecodeSnapshot(future, repo, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("version"), std::string::npos);
  EXPECT_NE(result.status().message().find("1..2"), std::string::npos)
      << result.status().message();

  // The writer refuses to fabricate versions it does not define.
  EXPECT_FALSE(EncodeSnapshotForVersion(*built, 0).ok());
  EXPECT_FALSE(
      EncodeSnapshotForVersion(*built, kSnapshotFormatVersion + 1).ok());
  // Every version in the supported range encodes and loads.
  for (uint32_t v = kSnapshotMinFormatVersion; v <= kSnapshotFormatVersion;
       ++v) {
    auto bytes = EncodeSnapshotForVersion(*built, v);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    EXPECT_TRUE(DecodeSnapshot(*bytes, repo, options).ok()) << "v" << v;
  }
}

TEST(SnapshotTest, LargeCollectionTruncationSampling) {
  auto collection = MakeCollection(15);
  sim::NameSimilarityOptions options = SynonymOptions();
  auto built = PreparedRepository::Build(collection.repository, options);
  ASSERT_TRUE(built.ok()) << built.status();
  const std::string bytes = EncodeSnapshot(*built);

  // A bigger snapshot, truncated at pseudo-random points: exercises the
  // chunked element payload and CSR posting validation paths.
  Rng rng(7);
  for (int round = 0; round < 300; ++round) {
    const auto keep = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int>(bytes.size()) - 1));
    auto result = DecodeSnapshot(std::string_view(bytes).substr(0, keep),
                                 collection.repository, options);
    ASSERT_FALSE(result.ok()) << "truncation at byte " << keep
                              << " was accepted";
  }
}

}  // namespace
}  // namespace smb::index
