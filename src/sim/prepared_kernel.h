#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/name_similarity.h"

/// \file prepared_kernel.h
/// \brief Allocation-free, threshold-aware similarity kernel over prepared
/// names.
///
/// The composite measure of name_similarity.h sits in the innermost loop of
/// every matcher, index fill and Δ-bound computation — millions of pairwise
/// scores per workload. The original per-pair implementation heap-allocates
/// on every call: a sorted `std::vector<std::string>` of padded trigrams
/// (one string per gram), two Levenshtein DP rows, two Jaro match-flag
/// vectors and a token-pair buffer. This kernel removes all of it:
///
///  * trigrams are interned to `uint32_t` ids by `GramTable` — a *pure*
///    packing of the three gram bytes, so every thread and every table
///    agrees on ids without sharing state — and stored sorted in
///    `PreparedName::gram_ids`; the exact multiset Dice is then one
///    allocation-free merge of two int arrays;
///  * identifier tokens are interned by a `TokenTable` (the repository-wide
///    instance lives in `index::PreparedRepository`); token equality becomes
///    an integer compare, synonym lookups become precomputed group ids;
///  * Levenshtein runs Myers' bit-parallel algorithm for patterns ≤ 64
///    chars (per-character `PEQ` bitmasks precomputed in the prepared form,
///    scattered into a reusable 256-entry table) and a banded two-row DP
///    with an early-exit cutoff `k` for longer names;
///  * every scratch buffer is thread-local and grows to a high-water mark —
///    zero heap allocations per pair in steady state
///    (`KernelScratchGrowthCount` is the test hook that proves it).
///
/// Scores are **bit-identical** to `NameSimilarity`: each component is the
/// same mathematical value produced by the same floating-point expression,
/// and the weighted combination accumulates in the same order.
///
/// Threshold-aware scoring (`ScoreWithCutoff`, `BlockScorer`) evaluates
/// components cheapest-first — whole-name equality, whole-name synonym,
/// length and gram-count admissible upper bounds, exact trigram Dice,
/// Levenshtein, Jaro-Winkler, token similarity — and short-circuits as soon
/// as the remaining weighted mass provably cannot reach `min_score`. A
/// pruned pair reports an admissible *upper bound* on its exact score
/// (strictly below `min_score`), never a wrong exact value, so top-C
/// selections that feed their current C-th score back as the cutoff keep
/// their results bit-identical to exhaustive scoring.

namespace smb::sim {

/// \brief Interner for character trigrams.
///
/// Three gram bytes pack injectively (and order-preservingly) into a
/// `uint32_t`, so the "table" is a pure function: no state, no locking, and
/// ids are consistent across threads, repositories and queries for free.
/// Sorting packed ids orders grams exactly like sorting the gram strings.
struct GramTable {
  static constexpr uint32_t Pack(unsigned char c0, unsigned char c1,
                                 unsigned char c2) {
    return (static_cast<uint32_t>(c0) << 16) |
           (static_cast<uint32_t>(c1) << 8) | static_cast<uint32_t>(c2);
  }

  /// Packs a 3-character gram (as produced by `ExtractNgrams(s, 3)`).
  static uint32_t Pack(std::string_view gram);

  /// The gram string back from its id (for diagnostics and tests).
  static std::string Unpack(uint32_t id);

  /// \brief Appends the packed padded trigrams of `folded` — the exact
  /// multiset `ExtractNgrams(folded, 3)` produces — and sorts the ids.
  /// Empty input yields no grams. Works on any push_back/sortable id
  /// container (`std::vector`, the inline arrays of `PreparedName`).
  template <typename Container>
  static void AppendPaddedGramIds(std::string_view folded, Container* out) {
    if (folded.empty()) return;
    const size_t n = folded.size();
    // Conceptually "##" + folded + "##" without materializing the padding.
    auto at = [&](size_t i) -> unsigned char {
      return (i < 2 || i >= n + 2)
                 ? static_cast<unsigned char>('#')
                 : static_cast<unsigned char>(folded[i - 2]);
    };
    const size_t grams = n + 2;
    out->reserve(out->size() + grams);
    for (size_t i = 0; i < grams; ++i) {
      out->push_back(Pack(at(i), at(i + 1), at(i + 2)));
    }
    // Packing is order-preserving for byte strings, so sorted ids are the
    // sorted grams of ExtractNgrams — same multiset, integer
    // representation.
    std::sort(out->begin(), out->end());
  }

  /// Convenience wrapper returning a fresh sorted id vector.
  static std::vector<uint32_t> PaddedGramIds(std::string_view folded);
};

/// \brief Fills `name->gram_keys` from the sorted `name->gram_ids` (see the
/// field's docs for the augmented-key encoding). Called by `PrepareName`
/// and the snapshot loader; leaves the keys empty when a gram repeats ≥ 256
/// times so the kernel falls back to the scalar multiset merge.
void CompileAugmentedGramKeys(PreparedName* name);

/// \brief Id of a token a lookup-only `TokenTable` query did not know.
/// Unknown ids never compare equal; the kernel falls back to a string
/// compare for them, so lookup-only preparation stays exact.
inline constexpr uint32_t kUnknownTokenId = 0xFFFFFFFFu;

/// \brief Interner mapping identifier tokens to dense `uint32_t` ids.
///
/// One instance is shared by everything that must agree on ids — the
/// repository index stores one (`index::PreparedRepository::token_table`)
/// and interns every element token at build time; queries then prepare
/// against it lookup-only (const, thread-safe), mapping unseen tokens to
/// `kUnknownTokenId`.
class TokenTable {
 public:
  /// Returns the id of `token`, inserting it if new. Ids are dense and
  /// assigned in first-seen order.
  uint32_t Intern(std::string_view token);

  /// Pre-sizes the hash table for `n` tokens (bulk loads).
  void Reserve(size_t n) { ids_.reserve(n); }

  /// Returns the id of `token`, or `kUnknownTokenId` if it was never
  /// interned. Never mutates — safe for concurrent readers.
  uint32_t Lookup(std::string_view token) const;

  /// Number of distinct interned tokens.
  size_t size() const { return ids_.size(); }

  /// \brief The interned tokens in id order (`result[i]` has id `i`).
  /// Interning `result[0..n)` into a fresh table reproduces this table's
  /// ids exactly — the snapshot round-trip relies on that.
  std::vector<std::string_view> OrderedTokens() const;

 private:
  /// Transparent hashing: lookups probe with the string_view directly, no
  /// per-call std::string temporary.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, uint32_t, Hash, std::equal_to<>> ids_;
};

/// \brief Result of a threshold-aware score.
///
/// When `exact`, `score` is the full-precision composite similarity —
/// bit-identical to `NameSimilarity`. Otherwise the pair was pruned:
/// `score` is an admissible upper bound on the exact similarity and is
/// strictly below the `min_score` the caller passed.
struct CutoffScore {
  double score = 0.0;
  bool exact = true;
};

/// \brief Exact Levenshtein distance via the kernel's fast paths (Myers
/// bit-parallel when either side fits 64 chars, banded DP otherwise).
/// Always equals `LevenshteinDistance`.
size_t KernelLevenshteinDistance(std::string_view a, std::string_view b);

/// \brief Early-exit Levenshtein: returns the exact distance when it is
/// ≤ `k`, otherwise some value > `k` (a certificate that the distance
/// exceeds the cutoff; the banded DP never visits cells it can prove
/// irrelevant).
size_t KernelLevenshteinBounded(std::string_view a, std::string_view b,
                                size_t k);

/// \brief Scores one prepared query against many prepared targets with the
/// query-side state (weights, PEQ bitmask table) loaded once.
///
/// The scorer borrows thread-local scratch; `query`/`options` must outlive
/// it. The first live scorer on a thread keeps its query pattern resident
/// in the scratch PEQ table; further (nested) scorers on the same thread
/// stay correct but fall back to transient per-pair pattern loads.
class BlockScorer {
 public:
  BlockScorer(const PreparedName& query, const NameSimilarityOptions& options);
  ~BlockScorer();

  BlockScorer(const BlockScorer&) = delete;
  BlockScorer& operator=(const BlockScorer&) = delete;

  /// Full-precision composite similarity — bit-identical to
  /// `NameSimilarity(query, target, options)`.
  double Score(const PreparedName& target);

  /// Threshold-aware score: exact when the result can reach `min_score`,
  /// otherwise a pruned admissible upper bound (see `CutoffScore`).
  CutoffScore ScoreWithCutoff(const PreparedName& target, double min_score);

  /// Batched `ScoreWithCutoff` over a block of targets through the
  /// structure-of-arrays pipeline: the cheap admissible filters run
  /// lane-parallel via the active SIMD tier (simd_dispatch.h) and Myers
  /// distances are batched across pairs. `out[i]` is bit-identical —
  /// score and exact flag — to `ScoreWithCutoff(*targets[i], min_score)`
  /// on every tier. `out` must have `targets.size()` capacity.
  void ScoreMany(std::span<const PreparedName* const> targets,
                 double min_score, CutoffScore* out);

 private:
  /// The per-pair tail shared by `ScoreWithCutoff` and the batched
  /// pipeline: exact Levenshtein (skipped when the batch already computed
  /// `dist`), Jaro-Winkler, token similarity, final combine.
  CutoffScore FinishFromDice(const PreparedName& target, double min_score,
                             double dice, bool have_dist, size_t dist);

  const PreparedName* query_;
  const NameSimilarityOptions* options_;
  // Clamped weights, mirroring the reference scorer.
  double wl_ = 0.0, wj_ = 0.0, wt_ = 0.0, wk_ = 0.0, wsum_ = 0.0;
  /// This scorer claimed the thread's resident-pattern slot. A nested
  /// scorer runs without it (transient per-pair pattern loads) — slower,
  /// never incorrect.
  bool owns_block_slot_ = false;
  bool query_peq_loaded_ = false;
  bool groups_valid_ = false;  // prepared synonym groups match options_
};

/// \brief One-shot threshold-aware score of a prepared pair.
CutoffScore ScoreWithCutoff(const PreparedName& a, const PreparedName& b,
                            const NameSimilarityOptions& options,
                            double min_score);

/// \brief Test hook: number of times this thread's kernel scratch buffers
/// grew (each growth is one heap allocation). Steady-state scoring must not
/// move this counter — that is the "zero allocations per pair" guarantee.
uint64_t KernelScratchGrowthCount();

}  // namespace smb::sim
