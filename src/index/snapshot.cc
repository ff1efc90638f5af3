#include "index/snapshot.h"

/// \file snapshot.cc
/// \brief Binary encode/decode of `PreparedRepository` — versioned
/// little-endian layout, fingerprint + checksum verification (fail
/// closed), chunked element payload decoded on a worker pool.

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <optional>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/timing.h"
#include "io/binary_io.h"
#include "match/fingerprint.h"

namespace smb::index {

namespace {

/// magic(8) + version(4) + options_fp(8) + repo_fp(8) + body_size(8) +
/// body_checksum(8).
constexpr size_t kHeaderSize = 8 + 4 + 8 + 8 + 8 + 8;

/// Upper bound on element-payload chunks: enough lanes for any realistic
/// core count while keeping the offset table negligible.
constexpr size_t kElementChunks = 64;

Status BodyError(const std::string& what) {
  return Status::ParseError("snapshot body " + what +
                            " (file corrupted, or written by an "
                            "incompatible build — rebuild the snapshot)");
}

/// Validates a CSR offsets array: non-empty, anchored at 0, ending at the
/// total entry count, and monotone — every derived span stays in bounds.
Status CheckCsrOffsets(const std::vector<uint32_t>& offsets, size_t total,
                       const char* where) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != total) {
    return BodyError(std::string("has offsets that do not bracket the ") +
                     where);
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return BodyError(std::string("has decreasing offsets in ") + where);
    }
  }
  return Status::OK();
}

/// Validates that every posting ordinal addresses an element.
Status CheckOrdinals(const std::vector<uint32_t>& ordinals,
                     size_t element_count, const char* where) {
  for (uint32_t ordinal : ordinals) {
    if (ordinal >= element_count) {
      return BodyError("references element " + std::to_string(ordinal) +
                       " of " + std::to_string(element_count) + " in " +
                       where);
    }
  }
  return Status::OK();
}

}  // namespace

/// \brief The one component allowed to take PreparedRepository apart and
/// put it back together (friend of the class).
struct SnapshotCodec {
  static void EncodeBody(const PreparedRepository& p, uint32_t version,
                         io::BinaryWriter* w) {
    w->WriteU32(static_cast<uint32_t>(p.repo_->schema_count()));
    w->WriteU64(p.elements_.size());

    // Token interner, in id order: re-interning in this order reproduces
    // every stored token id exactly.
    const std::vector<std::string_view> tokens = p.token_table_->OrderedTokens();
    w->WriteU32(static_cast<uint32_t>(tokens.size()));
    for (std::string_view token : tokens) w->WriteString(token);

    // Elements in ordinal order. (schema_index, node) are not stored —
    // ordinals are dense in (schema, node) order by construction, so the
    // loader re-derives them from the repository it verifies against.
    // `tokens` are not stored either: every element token was interned at
    // build time, so `token_ids` recovers the exact strings. No doubles
    // anywhere: scores are recomputed by the same kernel from these
    // integer/string payloads, which is what makes loaded results
    // bit-identical.
    //
    // The payload is split into up to `kElementChunks` contiguous ordinal
    // ranges with a byte-offset table in front, so a loader can hand each
    // chunk to a worker thread (the records are self-delimiting but not
    // seekable without the table).
    const size_t element_count = p.elements_.size();
    const size_t per_chunk =
        element_count == 0
            ? 1
            : (element_count + kElementChunks - 1) / kElementChunks;
    std::vector<uint32_t> chunk_first;
    std::vector<uint64_t> chunk_offset;
    io::BinaryWriter payload;
    for (size_t first = 0; first < element_count; first += per_chunk) {
      chunk_first.push_back(static_cast<uint32_t>(first));
    }
    const auto chunk_count = static_cast<uint32_t>(chunk_first.size());
    size_t next_chunk = 0;
    for (size_t ordinal = 0; ordinal < element_count; ++ordinal) {
      if (next_chunk < chunk_first.size() &&
          ordinal == chunk_first[next_chunk]) {
        chunk_offset.push_back(payload.buffer().size());
        ++next_chunk;
      }
      const sim::PreparedName& name = p.elements_[ordinal].name;
      payload.WriteString(name.folded);
      payload.WriteIntArray(name.gram_ids);
      payload.WriteIntArray(name.token_ids);
      payload.WriteIntArray(name.token_groups);
      payload.WriteIntArray(name.peq_chars);
      payload.WriteIntArray(name.peq_masks);
      payload.WriteI32(name.name_group);
    }
    chunk_first.push_back(static_cast<uint32_t>(element_count));
    chunk_offset.push_back(payload.buffer().size());
    w->WriteU32(chunk_count);
    w->WriteU32Vector(chunk_first);
    w->WriteU64Vector(chunk_offset);
    w->WriteU64(payload.buffer().size());
    w->WriteBytes(payload.buffer());

    // Postings: the CSR arrays go to the wire verbatim — a handful of bulk
    // array writes, and the loader gets them back with as many bulk reads.
    // The trigram entries' ordinals and multiplicities are split into two
    // parallel flat arrays so each is one fixed-width block.
    w->WriteU32Vector(p.token_posting_offsets_);
    w->WriteU32Vector(p.token_posting_entries_);

    WriteIntKeyedPostings(p.token_group_postings_, w);

    w->WriteU32Vector(p.trigram_keys_);
    w->WriteU32Vector(p.trigram_offsets_);
    {
      std::vector<uint32_t> ordinals;
      std::vector<uint16_t> counts;
      ordinals.reserve(p.trigram_entries_.size());
      counts.reserve(p.trigram_entries_.size());
      for (const TrigramPosting& posting : p.trigram_entries_) {
        ordinals.push_back(posting.ordinal);
        counts.push_back(posting.count);
      }
      w->WriteU32Vector(ordinals);
      w->WriteU16Vector(counts);
    }
    if (version >= 2) {
      // v2: block-max metadata over the trigram postings (derived data,
      // stored so a load skips the rebuild pass; v1 readers never see it).
      w->WriteU32Vector(p.trigram_block_offsets_);
      w->WriteU32Vector(p.trigram_block_last_ordinals_);
      w->WriteU16Vector(p.trigram_block_max_counts_);
      w->WriteU32Vector(p.trigram_block_tc_floors_);
    }

    WriteStringKeyedPostings(p.name_buckets_, w);
    WriteIntKeyedPostings(p.name_group_buckets_, w);
    WriteStringKeyedPostings(p.type_buckets_, w);

    w->WriteU64(p.stats_.element_count);
    w->WriteU64(p.stats_.distinct_tokens);
    w->WriteU64(p.stats_.distinct_trigrams);
    w->WriteU64(p.stats_.distinct_types);
    w->WriteU64(p.stats_.token_posting_entries);
    w->WriteU64(p.stats_.trigram_posting_entries);
  }

  /// Allocation-tight element-record parser for little-endian targets: one
  /// cursor, one bounds comparison per field, no per-read Result wrapping.
  /// This is the hottest loop of a snapshot load (one record per
  /// repository element); the generic `DecodeElement` below is its
  /// endian-independent twin and the big-endian fallback.
  struct FastElementParser {
    const char* cursor;
    const char* end;

    bool Need(size_t n) const {
      return static_cast<size_t>(end - cursor) >= n;
    }
    uint32_t RawU32() {
      uint32_t value;
      std::memcpy(&value, cursor, 4);
      cursor += 4;
      return value;
    }
    /// Reads a u32 length prefix and gives out the following `width`-sized
    /// array, or fails on truncation.
    bool Array(size_t width, uint32_t* count, const char** data) {
      if (!Need(4)) return false;
      *count = RawU32();
      const size_t bytes = size_t{*count} * width;
      if (!Need(bytes)) return false;
      *data = cursor;
      cursor += bytes;
      return true;
    }

    Status Parse(const std::vector<std::string>& tokens,
                 const sim::TokenTable* token_table,
                 const sim::NameSimilarityOptions& name_options,
                 PreparedElement& element) {
      sim::PreparedName& name = element.name;
      uint32_t count;
      const char* data;
      if (!Array(1, &count, &data)) return Truncated();
      name.folded.assign(data, count);
      if (!Array(4, &count, &data)) return Truncated();
      name.gram_ids.resize(count);
      std::memcpy(name.gram_ids.data(), data, size_t{count} * 4);
      if (!Array(4, &count, &data)) return Truncated();
      name.token_ids.resize(count);
      std::memcpy(name.token_ids.data(), data, size_t{count} * 4);
      if (!Array(4, &count, &data)) return Truncated();
      name.token_groups.resize(count);
      std::memcpy(name.token_groups.data(), data, size_t{count} * 4);
      if (!Array(1, &count, &data)) return Truncated();
      name.peq_chars.resize(count);
      std::memcpy(name.peq_chars.data(), data, count);
      if (!Array(8, &count, &data)) return Truncated();
      name.peq_masks.resize(count);
      std::memcpy(name.peq_masks.data(), data, size_t{count} * 8);
      if (!Need(4)) return Truncated();
      name.name_group = static_cast<int32_t>(RawU32());
      return FinishElement(tokens, token_table, name_options, element);
    }

    static Status Truncated() {
      return BodyError("is truncated inside an element record");
    }
  };

  /// Shared element validation + token/provenance reconstruction — the
  /// semantic half of element decoding, identical for both parsers.
  static Status FinishElement(const std::vector<std::string>& tokens,
                              const sim::TokenTable* token_table,
                              const sim::NameSimilarityOptions& name_options,
                              PreparedElement& element) {
    sim::PreparedName& name = element.name;
    if (!name.token_groups.empty() &&
        name.token_groups.size() != name.token_ids.size()) {
      return BodyError("token group list length disagrees with tokens");
    }
    if (name.peq_chars.size() != name.peq_masks.size()) {
      return BodyError("PEQ char/mask lengths disagree");
    }
    // Tokens back from the interner — build-time interning guarantees
    // every id is known.
    name.tokens.reserve(name.token_ids.size());
    for (uint32_t token_id : name.token_ids) {
      if (token_id >= tokens.size()) {
        return BodyError("references unknown token id " +
                         std::to_string(token_id));
      }
      name.tokens.push_back(tokens[token_id]);
    }
    // Provenance: the ids/groups above are valid under the loaded table
    // and the caller's synonym table (the header fingerprint certified its
    // content matches the build-time one).
    name.token_table = token_table;
    name.synonyms = name_options.synonyms;
    name.kernel_ready = true;
    // The augmented gram keys are derived state (never serialized) —
    // recompute them so loaded elements take the same SIMD Dice path as
    // built ones.
    sim::CompileAugmentedGramKeys(&name);
    element.trigram_count = static_cast<uint32_t>(name.gram_ids.size());
    return Status::OK();
  }

  /// Decodes one element record into `element` (already addressed by its
  /// (schema, node) position). `tokens` is the loaded token table in id
  /// order.
  static Status DecodeElement(io::BinaryReader& r,
                              const std::vector<std::string>& tokens,
                              const sim::TokenTable* token_table,
                              const sim::NameSimilarityOptions& name_options,
                              PreparedElement& element) {
    sim::PreparedName& name = element.name;
    SMB_ASSIGN_OR_RETURN(name.folded, r.ReadString("element name"));
    SMB_RETURN_IF_ERROR(
        r.ReadIntArrayInto(&name.gram_ids, "element gram ids"));
    SMB_RETURN_IF_ERROR(
        r.ReadIntArrayInto(&name.token_ids, "element token ids"));
    SMB_RETURN_IF_ERROR(
        r.ReadIntArrayInto(&name.token_groups, "element token groups"));
    SMB_RETURN_IF_ERROR(
        r.ReadIntArrayInto(&name.peq_chars, "element PEQ chars"));
    SMB_RETURN_IF_ERROR(
        r.ReadIntArrayInto(&name.peq_masks, "element PEQ masks"));
    SMB_ASSIGN_OR_RETURN(name.name_group, r.ReadI32("element name group"));
    return FinishElement(tokens, token_table, name_options, element);
  }

  static Result<PreparedRepository> DecodeBody(
      std::string_view body, uint32_t version,
      const schema::SchemaRepository& repo,
      const sim::NameSimilarityOptions& name_options, size_t num_threads,
      double* name_ids_seconds) {
    io::BinaryReader r(body);

    SMB_ASSIGN_OR_RETURN(uint32_t schema_count, r.ReadU32("schema count"));
    SMB_ASSIGN_OR_RETURN(uint64_t element_count, r.ReadU64("element count"));
    if (schema_count != repo.schema_count() ||
        element_count != repo.total_elements()) {
      return BodyError("shape disagrees with the repository (" +
                       std::to_string(schema_count) + " schemas / " +
                       std::to_string(element_count) + " elements vs " +
                       std::to_string(repo.schema_count()) + " / " +
                       std::to_string(repo.total_elements()) + ")");
    }

    PreparedRepository p;
    p.repo_ = &repo;
    p.name_options_ = name_options;

    SMB_ASSIGN_OR_RETURN(std::vector<std::string> tokens,
                         r.ReadStringVector("token table"));
    p.token_table_->Reserve(tokens.size());
    for (const std::string& token : tokens) {
      p.token_table_->Intern(token);
    }
    if (p.token_table_->size() != tokens.size()) {
      return BodyError("token table contains duplicate tokens");
    }

    // Chunk table of the element payload (validated before any worker
    // touches a byte range derived from it).
    SMB_ASSIGN_OR_RETURN(uint32_t chunk_count, r.ReadU32("chunk count"));
    SMB_ASSIGN_OR_RETURN(std::vector<uint32_t> chunk_first,
                         r.ReadU32Vector("chunk ordinals"));
    SMB_ASSIGN_OR_RETURN(std::vector<uint64_t> chunk_offset,
                         r.ReadU64Vector("chunk offsets"));
    SMB_ASSIGN_OR_RETURN(uint64_t payload_size,
                         r.ReadU64("element payload size"));
    if (chunk_first.size() != size_t{chunk_count} + 1 ||
        chunk_offset.size() != size_t{chunk_count} + 1 ||
        chunk_first.front() != 0 || chunk_first.back() != element_count ||
        chunk_offset.front() != 0 || chunk_offset.back() != payload_size ||
        !std::is_sorted(chunk_first.begin(), chunk_first.end()) ||
        !std::is_sorted(chunk_offset.begin(), chunk_offset.end()) ||
        (chunk_count == 0 && element_count != 0)) {
      return BodyError("has an inconsistent element chunk table");
    }
    SMB_ASSIGN_OR_RETURN(std::string_view payload,
                         r.View(payload_size, "element payload"));

    // (schema, node) positions derive from the repository alone; workers
    // walk them per chunk.
    p.first_ordinal_.reserve(schema_count);
    {
      uint32_t running = 0;
      for (size_t si = 0; si < repo.schema_count(); ++si) {
        p.first_ordinal_.push_back(running);
        running += static_cast<uint32_t>(
            repo.schema(static_cast<int32_t>(si)).size());
      }
    }

    p.elements_.resize(element_count);
    std::vector<Status> chunk_status(chunk_count, Status::OK());
    auto decode_chunk = [&](size_t c) -> Status {
      const std::string_view chunk_bytes = payload.substr(
          chunk_offset[c], chunk_offset[c + 1] - chunk_offset[c]);
      // The schema containing the chunk's first ordinal: the last schema
      // whose first ordinal is ≤ it (empty schemas collapse onto the same
      // first ordinal and are skipped by the walk below).
      size_t si = static_cast<size_t>(
          std::upper_bound(p.first_ordinal_.begin(), p.first_ordinal_.end(),
                           chunk_first[c]) -
          p.first_ordinal_.begin() - 1);
      FastElementParser fast{chunk_bytes.data(),
                             chunk_bytes.data() + chunk_bytes.size()};
      io::BinaryReader chunk_reader(chunk_bytes);
      constexpr bool kFastPath =
          std::endian::native == std::endian::little;
      for (uint32_t o = chunk_first[c]; o < chunk_first[c + 1]; ++o) {
        while (si + 1 < p.first_ordinal_.size() &&
               p.first_ordinal_[si + 1] <= o) {
          ++si;
        }
        PreparedElement& element = p.elements_[o];
        element.schema_index = static_cast<int32_t>(si);
        element.node = static_cast<schema::NodeId>(o - p.first_ordinal_[si]);
        if constexpr (kFastPath) {
          SMB_RETURN_IF_ERROR(fast.Parse(tokens, p.token_table_.get(),
                                         name_options, element));
        } else {
          SMB_RETURN_IF_ERROR(DecodeElement(chunk_reader, tokens,
                                            p.token_table_.get(),
                                            name_options, element));
        }
      }
      const size_t leftover = kFastPath
                                  ? static_cast<size_t>(fast.end - fast.cursor)
                                  : chunk_reader.remaining();
      if (leftover != 0) {
        return BodyError("element chunk " + std::to_string(c) + " has " +
                         std::to_string(leftover) + " trailing byte(s)");
      }
      return Status::OK();
    };
    ParallelFor(ResolveThreadCount(num_threads), chunk_count,
                [&](size_t /*worker*/, size_t c) {
                  chunk_status[c] = decode_chunk(c);
                });
    for (const Status& status : chunk_status) {
      SMB_RETURN_IF_ERROR(status);
    }

    // CSR postings: bulk array reads, then structural validation (monotone
    // offsets bracketing the entry arrays, sorted keys, in-range ordinals)
    // so a corrupted file that somehow passed the checksum still cannot
    // produce out-of-bounds spans.
    SMB_ASSIGN_OR_RETURN(p.token_posting_offsets_,
                         r.ReadU32Vector("token posting offsets"));
    SMB_ASSIGN_OR_RETURN(p.token_posting_entries_,
                         r.ReadU32Vector("token postings"));
    if (p.token_posting_offsets_.size() > tokens.size() + 1) {
      return BodyError("has more token posting lists than tokens");
    }
    SMB_RETURN_IF_ERROR(CheckCsrOffsets(p.token_posting_offsets_,
                                        p.token_posting_entries_.size(),
                                        "token postings"));
    SMB_RETURN_IF_ERROR(CheckOrdinals(p.token_posting_entries_, element_count,
                                      "token postings"));

    SMB_RETURN_IF_ERROR(ReadIntKeyedPostings(
        &r, element_count, "token group postings", &p.token_group_postings_));

    {
      SMB_ASSIGN_OR_RETURN(p.trigram_keys_, r.ReadU32Vector("trigram keys"));
      SMB_ASSIGN_OR_RETURN(p.trigram_offsets_,
                           r.ReadU32Vector("trigram offsets"));
      std::vector<uint32_t> ordinals;
      std::vector<uint16_t> counts;
      SMB_RETURN_IF_ERROR(
          r.ReadIntArrayInto(&ordinals, "trigram posting ordinals"));
      SMB_RETURN_IF_ERROR(
          r.ReadIntArrayInto(&counts, "trigram posting multiplicities"));
      if (ordinals.size() != counts.size()) {
        return BodyError(
            "trigram posting ordinal/multiplicity lengths disagree");
      }
      if (p.trigram_offsets_.size() != p.trigram_keys_.size() + 1) {
        return BodyError("trigram offsets disagree with trigram keys");
      }
      if (!std::is_sorted(p.trigram_keys_.begin(), p.trigram_keys_.end()) ||
          std::adjacent_find(p.trigram_keys_.begin(),
                             p.trigram_keys_.end()) != p.trigram_keys_.end()) {
        return BodyError("trigram keys are not strictly sorted");
      }
      SMB_RETURN_IF_ERROR(CheckCsrOffsets(p.trigram_offsets_, ordinals.size(),
                                          "trigram postings"));
      SMB_RETURN_IF_ERROR(
          CheckOrdinals(ordinals, element_count, "trigram postings"));
      p.trigram_entries_.resize(ordinals.size());
      for (size_t i = 0; i < ordinals.size(); ++i) {
        p.trigram_entries_[i].ordinal = ordinals[i];
        p.trigram_entries_[i].count = counts[i];
      }
    }

    if (version >= 2) {
      // v2: the block-max arrays come off the wire; validate their shape
      // against the postings they summarize (every list must carry exactly
      // ceil(length / kTrigramBlockSize) blocks) so a corrupted file can
      // never produce out-of-bounds block spans.
      SMB_RETURN_IF_ERROR(r.ReadIntArrayInto(&p.trigram_block_offsets_,
                                             "trigram block offsets"));
      SMB_RETURN_IF_ERROR(r.ReadIntArrayInto(&p.trigram_block_last_ordinals_,
                                             "trigram block last ordinals"));
      SMB_RETURN_IF_ERROR(r.ReadIntArrayInto(&p.trigram_block_max_counts_,
                                             "trigram block max counts"));
      SMB_RETURN_IF_ERROR(r.ReadIntArrayInto(&p.trigram_block_tc_floors_,
                                             "trigram block tc floors"));
      const size_t total_blocks = p.trigram_block_last_ordinals_.size();
      if (p.trigram_block_offsets_.size() != p.trigram_keys_.size() + 1 ||
          p.trigram_block_max_counts_.size() != total_blocks ||
          p.trigram_block_tc_floors_.size() != total_blocks) {
        return BodyError("trigram block arrays disagree in shape");
      }
      SMB_RETURN_IF_ERROR(CheckCsrOffsets(p.trigram_block_offsets_,
                                          total_blocks, "trigram blocks"));
      for (size_t li = 0; li < p.trigram_keys_.size(); ++li) {
        const size_t list_len = p.trigram_offsets_[li + 1] -
                                p.trigram_offsets_[li];
        const size_t blocks = p.trigram_block_offsets_[li + 1] -
                              p.trigram_block_offsets_[li];
        const size_t expected =
            (list_len + kTrigramBlockSize - 1) / kTrigramBlockSize;
        if (blocks != expected) {
          return BodyError("trigram block counts disagree with postings");
        }
      }
    } else {
      // v1 predates the block-max metadata — derive it from the (already
      // validated) postings, exactly as a fresh Build would.
      p.BuildTrigramBlocks();
    }

    SMB_RETURN_IF_ERROR(ReadStringKeyedPostings(&r, element_count,
                                                "name buckets",
                                                &p.name_buckets_));
    SMB_RETURN_IF_ERROR(ReadIntKeyedPostings(
        &r, element_count, "name group buckets", &p.name_group_buckets_));
    SMB_RETURN_IF_ERROR(ReadStringKeyedPostings(&r, element_count,
                                                "type buckets",
                                                &p.type_buckets_));

    SMB_ASSIGN_OR_RETURN(p.stats_.element_count, r.ReadU64("stats"));
    SMB_ASSIGN_OR_RETURN(p.stats_.distinct_tokens, r.ReadU64("stats"));
    SMB_ASSIGN_OR_RETURN(p.stats_.distinct_trigrams, r.ReadU64("stats"));
    SMB_ASSIGN_OR_RETURN(p.stats_.distinct_types, r.ReadU64("stats"));
    SMB_ASSIGN_OR_RETURN(p.stats_.token_posting_entries, r.ReadU64("stats"));
    SMB_ASSIGN_OR_RETURN(p.stats_.trigram_posting_entries,
                         r.ReadU64("stats"));
    if (p.stats_.element_count != p.elements_.size()) {
      return BodyError("stats disagree with the element payload");
    }

    if (r.remaining() != 0) {
      return BodyError("has " + std::to_string(r.remaining()) +
                       " trailing byte(s)");
    }
    // Name ids are derived from the validated elements, never read.
    const SteadyClock::time_point name_ids_start = SteadyClock::now();
    p.BuildNameIds();
    if (name_ids_seconds != nullptr) {
      *name_ids_seconds = SecondsSince(name_ids_start);
    }
    return p;
  }

 private:
  template <typename Map>
  static void WriteIntKeyedPostings(const Map& map, io::BinaryWriter* w) {
    std::vector<int> keys;
    keys.reserve(map.size());
    for (const auto& [key, postings] : map) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    w->WriteU32(static_cast<uint32_t>(keys.size()));
    for (int key : keys) {
      w->WriteI32(key);
      w->WriteU32Vector(map.at(key));
    }
  }

  template <typename Map>
  static void WriteStringKeyedPostings(const Map& map, io::BinaryWriter* w) {
    std::vector<std::string_view> keys;
    keys.reserve(map.size());
    for (const auto& [key, postings] : map) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    w->WriteU32(static_cast<uint32_t>(keys.size()));
    for (std::string_view key : keys) {
      w->WriteString(key);
      w->WriteU32Vector(map.at(std::string(key)));
    }
  }

  template <typename Map>
  static Status ReadIntKeyedPostings(io::BinaryReader* r,
                                     size_t element_count, const char* where,
                                     Map* out) {
    SMB_ASSIGN_OR_RETURN(uint32_t count, r->ReadU32(where));
    out->reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      SMB_ASSIGN_OR_RETURN(int32_t key, r->ReadI32(where));
      SMB_ASSIGN_OR_RETURN(std::vector<uint32_t> postings,
                           r->ReadU32Vector(where));
      SMB_RETURN_IF_ERROR(CheckOrdinals(postings, element_count, where));
      if (!out->emplace(key, std::move(postings)).second) {
        return BodyError(std::string("contains duplicate key in ") + where);
      }
    }
    return Status::OK();
  }

  template <typename Map>
  static Status ReadStringKeyedPostings(io::BinaryReader* r,
                                        size_t element_count,
                                        const char* where, Map* out) {
    SMB_ASSIGN_OR_RETURN(uint32_t count, r->ReadU32(where));
    out->reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      SMB_ASSIGN_OR_RETURN(std::string key, r->ReadString(where));
      SMB_ASSIGN_OR_RETURN(std::vector<uint32_t> postings,
                           r->ReadU32Vector(where));
      SMB_RETURN_IF_ERROR(CheckOrdinals(postings, element_count, where));
      if (!out->emplace(std::move(key), std::move(postings)).second) {
        return BodyError(std::string("contains duplicate key in ") + where);
      }
    }
    return Status::OK();
  }
};

namespace {

std::string EncodeSnapshotAt(const PreparedRepository& prepared,
                             uint32_t version) {
  io::BinaryWriter body;
  SnapshotCodec::EncodeBody(prepared, version, &body);

  io::BinaryWriter out;
  out.WriteBytes(kSnapshotMagic);
  out.WriteU32(version);
  out.WriteU64(match::FingerprintNameOptions(prepared.name_options()));
  out.WriteU64(match::FingerprintRepository(prepared.repo()));
  out.WriteU64(body.buffer().size());
  out.WriteU64(io::Checksum64(body.buffer()));
  out.WriteBytes(body.buffer());
  return std::move(out.TakeBuffer());
}

}  // namespace

std::string EncodeSnapshot(const PreparedRepository& prepared) {
  return EncodeSnapshotAt(prepared, kSnapshotFormatVersion);
}

Result<std::string> EncodeSnapshotForVersion(
    const PreparedRepository& prepared, uint32_t format_version) {
  if (format_version < kSnapshotMinFormatVersion ||
      format_version > kSnapshotFormatVersion) {
    return Status::InvalidArgument(
        "cannot encode snapshot format version " +
        std::to_string(format_version) + " — this binary writes versions " +
        std::to_string(kSnapshotMinFormatVersion) + ".." +
        std::to_string(kSnapshotFormatVersion));
  }
  return EncodeSnapshotAt(prepared, format_version);
}

namespace {

/// `DecodeSnapshot`, also reporting the seconds of the name-id pass when
/// `name_ids_seconds` is non-null.
Result<PreparedRepository> DecodeSnapshotTimed(
    std::string_view bytes, const schema::SchemaRepository& repo,
    const sim::NameSimilarityOptions& name_options, size_t num_threads,
    std::optional<uint64_t> repo_fingerprint, double* name_ids_seconds) {
  if (bytes.size() < kHeaderSize) {
    return Status::ParseError(
        "snapshot truncated: " + std::to_string(bytes.size()) +
        " byte(s), but the header alone is " + std::to_string(kHeaderSize) +
        " — rebuild the snapshot");
  }
  io::BinaryReader r(bytes);
  std::string magic = r.ReadBytes(kSnapshotMagic.size(), "magic").value();
  if (magic != kSnapshotMagic) {
    return Status::ParseError(
        "not a matchbounds index snapshot (magic bytes mismatch)");
  }
  uint32_t version = r.ReadU32("version").value();
  if (version < kSnapshotMinFormatVersion ||
      version > kSnapshotFormatVersion) {
    return Status::FailedPrecondition(
        "snapshot has format version " + std::to_string(version) +
        " but this binary reads versions " +
        std::to_string(kSnapshotMinFormatVersion) + ".." +
        std::to_string(kSnapshotFormatVersion) + " — rebuild the snapshot");
  }
  uint64_t options_fp = r.ReadU64("options fingerprint").value();
  uint64_t repo_fp = r.ReadU64("repository fingerprint").value();
  uint64_t body_size = r.ReadU64("body size").value();
  uint64_t body_checksum = r.ReadU64("body checksum").value();

  if (r.remaining() < body_size) {
    return Status::ParseError(
        "snapshot truncated: body declares " + std::to_string(body_size) +
        " byte(s) but only " + std::to_string(r.remaining()) +
        " follow the header — rebuild the snapshot");
  }
  if (r.remaining() > body_size) {
    return Status::ParseError(
        "snapshot has " + std::to_string(r.remaining() - body_size) +
        " trailing byte(s) after the declared body — file corrupted");
  }

  std::string_view body = bytes.substr(kHeaderSize);
  if (io::Checksum64(body) != body_checksum) {
    return Status::ParseError(
        "snapshot body checksum mismatch — file corrupted, rebuild the "
        "snapshot");
  }

  // Content checks only after integrity checks, so a bit flip inside a
  // fingerprint field reads as corruption, not as a misleading "different
  // options" claim.
  if (options_fp != match::FingerprintNameOptions(name_options)) {
    return Status::FailedPrecondition(
        "snapshot was built with different scorer options (weights, case "
        "folding, synonym table or synonym score differ) — rebuild the "
        "snapshot with the current options");
  }
  // Not `value_or`: its argument would fingerprint the repository anyway.
  const uint64_t expected_repo_fp = repo_fingerprint.has_value()
                                        ? *repo_fingerprint
                                        : match::FingerprintRepository(repo);
  if (repo_fp != expected_repo_fp) {
    return Status::FailedPrecondition(
        "snapshot was built over a different repository (schema names, "
        "types or structure differ) — rebuild the snapshot from the "
        "current repository");
  }

  return SnapshotCodec::DecodeBody(body, version, repo, name_options,
                                   num_threads, name_ids_seconds);
}

}  // namespace

Result<PreparedRepository> DecodeSnapshot(
    std::string_view bytes, const schema::SchemaRepository& repo,
    const sim::NameSimilarityOptions& name_options, size_t num_threads,
    std::optional<uint64_t> repo_fingerprint) {
  return DecodeSnapshotTimed(bytes, repo, name_options, num_threads,
                             repo_fingerprint, /*name_ids_seconds=*/nullptr);
}

Status SaveSnapshot(const PreparedRepository& prepared,
                    const std::string& path) {
  // Temp + fsync + atomic rename: a crash mid-save must never leave a
  // truncated file at `path` — the fail-closed loader would reject it
  // forever instead of falling back to a rebuild (only a *missing* file
  // does that). The previous snapshot survives as `path.bak` so even a
  // crash between the two renames degrades to the backup, not an outage.
  return io::WriteBinaryFileAtomic(path, EncodeSnapshot(prepared),
                                   /*keep_backup=*/true)
      .WithContext("while saving index snapshot");
}

Result<PreparedRepository> LoadSnapshot(
    const std::string& path, const schema::SchemaRepository& repo,
    const sim::NameSimilarityOptions& name_options, size_t num_threads,
    SnapshotLoadReport* report, std::optional<uint64_t> repo_fingerprint) {
  if (report != nullptr) *report = SnapshotLoadReport{};
  // Reads one file, timing the read; `decode` times the decode and, on
  // success, reports both.
  double read_seconds = 0.0;
  auto read = [&](const std::string& file) {
    const SteadyClock::time_point start = SteadyClock::now();
    Result<std::string> bytes = io::ReadBinaryFile(file);
    read_seconds = SecondsSince(start);
    return bytes;
  };
  auto decode = [&](std::string_view bytes) {
    const SteadyClock::time_point start = SteadyClock::now();
    double name_ids_seconds = 0.0;
    Result<PreparedRepository> decoded =
        DecodeSnapshotTimed(bytes, repo, name_options, num_threads,
                            repo_fingerprint, &name_ids_seconds);
    if (decoded.ok() && report != nullptr) {
      report->read_seconds = read_seconds;
      report->decode_seconds = SecondsSince(start) - name_ids_seconds;
      report->name_ids_seconds = name_ids_seconds;
    }
    return decoded;
  };

  Status primary_error = Status::OK();
  Result<std::string> bytes = read(path);
  if (bytes.ok()) {
    Result<PreparedRepository> loaded = decode(*bytes);
    if (loaded.ok()) return loaded;
    primary_error = loaded.status().WithContext(
        "while loading index snapshot " + path);
  } else if (bytes.status().code() == StatusCode::kNotFound) {
    // Missing primary with a surviving backup is the crash window between
    // SaveSnapshot's two renames (old → .bak, tmp → path) — fall through
    // to the backup. With no backup either, kNotFound propagates: "safe
    // to build instead".
    primary_error = bytes.status();
  } else {
    primary_error =
        bytes.status().WithContext("while loading index snapshot " + path);
  }

  // Primary missing/unreadable/corrupt — try the sibling backup that
  // SaveSnapshot leaves behind. Announce the degradation via `report`; the
  // backup must decode cleanly (and fingerprint-match) or the primary's
  // error stands.
  const std::string backup_path = path + ".bak";
  Result<std::string> backup_bytes = read(backup_path);
  if (backup_bytes.ok()) {
    Result<PreparedRepository> backup = decode(*backup_bytes);
    if (backup.ok()) {
      if (report != nullptr) {
        report->used_backup = true;
        report->warning = "primary snapshot unusable (" +
                          primary_error.ToString() +
                          "); loaded backup " + backup_path;
      }
      return backup;
    }
  }
  return primary_error;
}

}  // namespace smb::index
