#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "schema/repository.h"
#include "sim/name_similarity.h"
#include "sim/prepared_kernel.h"

/// \file prepared_repository.h
/// \brief Query-independent repository index: prepared names, inverted
/// postings and type buckets, built once and shared by every query.
///
/// Scoring every node directly recomputes one full query×repository cost
/// matrix per query — O(|query|·Σ|schema|) composite name distances every
/// time, even though the repository side never changes. This index moves all
/// query-independent work to a one-time build:
///
///  * every element's name is folded and tokenized once
///    (`sim::PreparedName` — costs computed over the index are
///    bit-identical to `match::ComputeNodeCost`'s);
///  * a token inverted index (plus synonym-group postings) finds elements
///    sharing an identifier word with a query element in O(postings);
///  * a padded-trigram inverted index with per-element multiplicities finds
///    fuzzy name overlaps *and* yields each element's exact trigram Dice
///    coefficient against the query name without touching the element;
///  * whole-name and synonym-group name buckets catch exact renames and
///    dictionary aliases ("customer" → "client");
///  * type buckets group elements by declared simple type;
///  * a name dictionary gives every element a dense *name id*, equal for
///    two elements exactly when their folded names are equal.
///
/// **Why the folded name is the key.** A `sim::PreparedName` is a pure
/// function of its folded form: the tokens are `SplitIdentifier(folded)`,
/// and the gram ids, token ids, synonym groups and PEQ masks come from
/// `folded` and the repository's shared tables. So the name similarity of
/// a query name against an element — the whole of a node cost except the
/// type penalty — depends on the element only through its name id, and a
/// scorer can compute it once per distinct name. The cold-bound
/// collection of the serving benchmark has 20,052 elements but 2,965
/// distinct folded names. The ids are derived, never stored: `Build` and
/// the snapshot loader assign them in one pass over the elements' folded
/// names, in first-occurrence (ordinal) order. The same pass records each
/// id's first element (`name_representative`), whose prepared name a
/// batched scorer can take for the whole id.
///
/// `CandidateGenerator` (candidate_generator.h) turns these postings into
/// top-C candidate lists per query element together with an **admissible
/// skip-bound** — a certified lower bound on the name+type cost of every
/// element it did not retrieve. The argument, for the composite measure
/// `sim = (w_l·L + w_j·J + w_t·D + w_k·K) / Σw` of sim/name_similarity.h:
///
///  1. L, J, K ≤ 1 always, and D (trigram Dice) is computed *exactly* for
///     every element sharing ≥ 1 trigram with the query name, directly from
///     the posting multiplicities; elements sharing none have D = 0.
///  2. Hence for any unscored element: sim ≤ 1 − (w_t/Σw)·(1 − D), i.e.
///     cost = 1 − sim ≥ (w_t/Σw)·(1 − D). The type-mismatch penalty only
///     adds cost, so the bound survives type awareness.
///  3. The two short-circuits of the measure are neutralized by always
///     scoring their buckets: equal folded names (sim = 1) share all
///     trigrams so their bound is 0 anyway, and whole-name synonym pairs
///     (sim = synonym_score, independent of trigrams) are exactly the
///     name-group bucket, which the generator always scores.
///
/// The bound lets Δ-threshold completeness be argued per (position, schema)
/// cell — a mapping through a skipped element costs at least
/// `w_name·bound / normalizer` in Δ — and measured end-to-end (see
/// `eval::RunIndexedWorkload`'s recall-vs-dense report).
///
/// Everything here is immutable after Build and safe for concurrent reads;
/// one index serves every worker thread and every query.

namespace smb::index {

/// \brief Appends the deduplicated (token id, synonym group) pairs of a
/// prepared name to `out` (cleared first) — the unit both the index build
/// posts under and query-time retrieval looks up under, shared so the two
/// sides can never disagree on what counts as a token.
void AppendUniqueTokenGroupPairs(const sim::PreparedName& name,
                                 std::vector<std::pair<uint32_t, int32_t>>* out);

/// \brief One repository element with its query-independent precompute.
struct PreparedElement {
  int32_t schema_index = -1;
  schema::NodeId node = schema::kInvalidNode;
  /// Folded + tokenized + kernel-compiled name: interned gram/token ids,
  /// synonym groups and PEQ bitmasks, interned against the repository's
  /// shared `TokenTable` (bit-compatible with `sim::PrepareName`).
  sim::PreparedName name;
  /// |ExtractNgrams(name.folded, 3)| — the Dice denominator contribution.
  uint32_t trigram_count = 0;
};

/// \brief One posting of the trigram index: element + gram multiplicity.
struct TrigramPosting {
  uint32_t ordinal = 0;
  /// How many times the gram occurs in the element name (multiset count).
  uint16_t count = 0;
};

/// Postings per block of the block-max trigram metadata: each posting list
/// is cut into runs of this many consecutive postings (the last run
/// ragged), and every run carries score upper bounds a WAND-style
/// traversal can skip against without touching the postings themselves.
inline constexpr size_t kTrigramBlockSize = 64;

/// \brief Block metadata of one trigram posting list, as three parallel
/// spans (block `b` of the list covers postings
/// `[b·kTrigramBlockSize, (b+1)·kTrigramBlockSize)` of the list).
///
/// The fields bound the trigram Dice of any element in the block: for a
/// query gram with multiplicity `q`, the block's elements contribute at
/// most `min(q, max_count)` to a Dice numerator, and every element's Dice
/// denominator is at least `qa + tc_floor` — so
/// `2·Σ min(q_i, max_count_i) / (qa + max(Σ…, min tc_floor))` is an
/// admissible upper bound on the Dice of every element covered by the
/// blocks (see candidate_generator.cc's block-max traversal).
struct TrigramBlockSpans {
  /// Ordinal of each block's last posting (ascending within the list).
  std::span<const uint32_t> last_ordinals;
  /// Max posting multiplicity within each block.
  std::span<const uint16_t> max_counts;
  /// Min `PreparedElement::trigram_count` over each block's elements.
  std::span<const uint32_t> tc_floors;

  size_t size() const { return last_ordinals.size(); }
};

/// \brief Size/shape of a built index (for reports and benches).
struct PreparedRepositoryStats {
  size_t element_count = 0;
  size_t distinct_tokens = 0;
  size_t distinct_trigrams = 0;
  size_t distinct_types = 0;
  /// Token postings entries across all tokens.
  size_t token_posting_entries = 0;
  /// Trigram postings entries across all grams.
  size_t trigram_posting_entries = 0;
};

/// \brief The query-independent repository index. Build once per
/// repository, reuse for every query (and across threads).
class PreparedRepository {
 public:
  /// \brief Indexes every element of `repo`. `name_options` must be the
  /// same the queries will match with (folding and synonyms feed the
  /// index); the repository must outlive the index.
  static Result<PreparedRepository> Build(
      const schema::SchemaRepository& repo,
      const sim::NameSimilarityOptions& name_options);

  /// The repository this index was built over.
  const schema::SchemaRepository& repo() const { return *repo_; }

  /// True iff this index was built over exactly `repo` (same object).
  bool BuiltOver(const schema::SchemaRepository& repo) const {
    return repo_ == &repo;
  }

  const sim::NameSimilarityOptions& name_options() const {
    return name_options_;
  }

  /// Elements across all schemas; ordinals are dense in
  /// (schema, node) order.
  size_t element_count() const { return elements_.size(); }
  const PreparedElement& element(uint32_t ordinal) const {
    return elements_[ordinal];
  }

  /// Distinct folded names across all elements.
  size_t name_count() const { return name_representatives_.size(); }
  /// Name id of element `ordinal`, dense in `[0, name_count())`: two
  /// elements share an id iff their folded names are equal, so they share
  /// every name similarity (see the file comment).
  uint32_t name_id(uint32_t ordinal) const { return name_ids_[ordinal]; }
  /// The first element ordinal carrying name id `name`. Its prepared name
  /// stands for the whole id: every element of the id has the same folded
  /// name, hence the same `sim::PreparedName` and the same similarity to
  /// any query name. Name ids are assigned in first-occurrence order, so
  /// representatives ascend with the id.
  uint32_t name_representative(uint32_t name) const {
    return name_representatives_[name];
  }

  /// Ordinal of the first element of `schema_index`.
  uint32_t first_ordinal(int32_t schema_index) const {
    return first_ordinal_[static_cast<size_t>(schema_index)];
  }

  /// Ordinal of `(schema_index, node)`.
  uint32_t OrdinalOf(int32_t schema_index, schema::NodeId node) const {
    return first_ordinal(schema_index) + static_cast<uint32_t>(node);
  }

  /// The repository-wide token interner: every element token was interned
  /// into it at build time; queries prepare against it lookup-only (const,
  /// thread-safe), so element/query token ids agree. Heap-allocated so the
  /// provenance pointers inside the prepared names stay valid when the
  /// repository index itself is moved.
  const sim::TokenTable& token_table() const { return *token_table_; }

  /// Elements whose name contains `token` (sorted ordinals); empty when
  /// the token is unknown.
  std::span<const uint32_t> TokenPostings(std::string_view token) const;

  /// Id-keyed fast path of `TokenPostings`: `token_id` from
  /// `token_table()`. `kUnknownTokenId` yields an empty span.
  std::span<const uint32_t> TokenPostings(uint32_t token_id) const;

  /// Elements containing any token of synonym group `group` (sorted
  /// ordinals); nullptr when the group posted nothing.
  const std::vector<uint32_t>* TokenGroupPostings(int group) const;

  /// Trigram postings for `gram` with per-element multiplicities; empty
  /// when no element name contains the gram.
  std::span<const TrigramPosting> TrigramPostings(
      std::string_view gram) const;

  /// Id-keyed fast path of `TrigramPostings`: `gram_id` is a
  /// `sim::GramTable::Pack`ed trigram (as stored in
  /// `sim::PreparedName::gram_ids`).
  std::span<const TrigramPosting> TrigramPostings(uint32_t gram_id) const;

  /// Index of `gram_id`'s posting list in the CSR trigram arrays, or -1
  /// when no element name contains the gram. The returned index addresses
  /// `TrigramListPostings` / `TrigramBlocks`.
  int32_t TrigramListIndex(uint32_t gram_id) const;

  /// Postings of trigram list `list_index` (from `TrigramListIndex`),
  /// ascending by ordinal.
  std::span<const TrigramPosting> TrigramListPostings(
      int32_t list_index) const;

  /// Block-max metadata of trigram list `list_index`: per-block score
  /// upper bounds over runs of `kTrigramBlockSize` postings.
  TrigramBlockSpans TrigramBlocks(int32_t list_index) const;

  /// Elements whose folded name equals `folded` (sorted ordinals).
  const std::vector<uint32_t>* NameBucket(std::string_view folded) const;

  /// Elements whose whole folded name belongs to synonym group `group`.
  const std::vector<uint32_t>* NameGroupBucket(int group) const;

  /// Elements declaring simple type `type` (sorted ordinals); nullptr for
  /// unknown types. The empty string buckets untyped elements.
  const std::vector<uint32_t>* TypeBucket(std::string_view type) const;

  const PreparedRepositoryStats& stats() const { return stats_; }

 private:
  PreparedRepository() = default;

  /// The snapshot serializer/deserializer (index/snapshot.cc) reads and
  /// rebuilds the private structures directly — it is the *only* other
  /// writer of this class, so the invariants stay in two audited places.
  friend struct SnapshotCodec;

  /// Derives the block-max arrays from `trigram_offsets_` /
  /// `trigram_entries_` / `elements_` (which must be final). Called by
  /// `Build` and by the snapshot loader for pre-v2 files.
  void BuildTrigramBlocks();

  /// Assigns `name_ids_` and `name_representatives_` from the elements'
  /// folded names (which must be final), in ordinal order of first
  /// occurrence, in one pass. Called by `Build` and by the snapshot
  /// loader.
  void BuildNameIds();

  template <typename Map>
  static const typename Map::mapped_type* Find(const Map& map,
                                               const std::string& key) {
    auto it = map.find(key);
    return it == map.end() ? nullptr : &it->second;
  }

  const schema::SchemaRepository* repo_ = nullptr;
  sim::NameSimilarityOptions name_options_;
  std::vector<PreparedElement> elements_;
  std::vector<uint32_t> first_ordinal_;
  /// Name id per element ordinal (see `name_id`) and the first ordinal of
  /// each name id (see `name_representative`); never serialized.
  std::vector<uint32_t> name_ids_;
  std::vector<uint32_t> name_representatives_;
  /// Shared interner — element token ids index `token_postings_` directly.
  /// On the heap: `PreparedName::token_table` provenance pointers must
  /// survive moves of this object.
  std::unique_ptr<sim::TokenTable> token_table_ =
      std::make_unique<sim::TokenTable>();
  /// Token postings in CSR form, dense by interned token id: the postings
  /// of token `t` are `token_posting_entries_[token_posting_offsets_[t] ..
  /// token_posting_offsets_[t + 1])`. Two flat arrays instead of one
  /// vector per token: cache-friendly on the query hot path and bulk
  /// loadable from a snapshot.
  std::vector<uint32_t> token_posting_offsets_;
  std::vector<uint32_t> token_posting_entries_;
  std::unordered_map<int, std::vector<uint32_t>> token_group_postings_;
  /// Trigram postings in sorted-key CSR form: `trigram_keys_` holds the
  /// distinct packed gram ids (`sim::GramTable::Pack`, ascending), and the
  /// postings of `trigram_keys_[i]` are
  /// `trigram_entries_[trigram_offsets_[i] .. trigram_offsets_[i + 1])`.
  /// Lookup is a binary search — no hashing, no per-gram heap blocks.
  std::vector<uint32_t> trigram_keys_;
  std::vector<uint32_t> trigram_offsets_;
  std::vector<TrigramPosting> trigram_entries_;
  /// Block-max metadata over `trigram_entries_`, CSR by list: the blocks
  /// of list `i` are `[trigram_block_offsets_[i],
  /// trigram_block_offsets_[i + 1])` into the three parallel arrays
  /// (`ceil(list length / kTrigramBlockSize)` blocks per list). Stored in
  /// snapshots from format v2; rebuilt by `BuildTrigramBlocks` for v1
  /// files and fresh builds.
  std::vector<uint32_t> trigram_block_offsets_;
  std::vector<uint32_t> trigram_block_last_ordinals_;
  std::vector<uint16_t> trigram_block_max_counts_;
  std::vector<uint32_t> trigram_block_tc_floors_;
  std::unordered_map<std::string, std::vector<uint32_t>> name_buckets_;
  std::unordered_map<int, std::vector<uint32_t>> name_group_buckets_;
  std::unordered_map<std::string, std::vector<uint32_t>> type_buckets_;
  PreparedRepositoryStats stats_;
};

}  // namespace smb::index
