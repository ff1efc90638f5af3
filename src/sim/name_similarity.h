#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/small_vector.h"
#include "sim/synonyms.h"
#include "sim/token_similarity.h"

/// \file name_similarity.h
/// \brief Composite element-name similarity.
///
/// Combines the individual measures (edit distance, Jaro-Winkler, trigram
/// Dice, token/synonym) into one score, the way matchers like COMA [8] and
/// Cupid [11] aggregate multiple matchers. Weights are configurable; the
/// defaults were picked so that planted perturbations (synonym renames,
/// abbreviations, typos) in the synthetic collections stay clearly above
/// random name pairs.

namespace smb::sim {

/// \brief Weights of the composite measure (normalized internally).
struct NameSimilarityOptions {
  double weight_levenshtein = 0.25;
  double weight_jaro_winkler = 0.25;
  double weight_trigram = 0.2;
  double weight_token = 0.3;
  /// Case-fold before comparing.
  bool case_insensitive = true;
  /// Synonym table consulted by the token measure (nullptr = none) and for
  /// the whole-name synonym shortcut.
  const SynonymTable* synonyms = nullptr;
  /// Score assigned when the full names are listed as synonyms.
  double synonym_score = 0.95;
};

class TokenTable;  // prepared_kernel.h — token-id interner

/// \brief A name case-folded, tokenized and compiled once, for batch
/// scoring.
///
/// Scoring one name against many (candidate generation, name rows)
/// re-folds and re-tokenizes each side per pair when the string_view API is
/// used; preparing each side once instead makes the per-pair work pure
/// comparison. Produces bit-identical scores to the string_view overloads.
///
/// Beyond folding and tokenizing, `PrepareName` compiles the kernel form
/// consumed by the allocation-free scorer (prepared_kernel.h): interned
/// sorted trigram ids, per-token interned ids and synonym groups, and the
/// per-character `PEQ` bitmasks of Myers' bit-parallel Levenshtein.
struct PreparedName {
  /// Inline capacities of the kernel arrays: one cache-friendly object
  /// with zero heap allocations for typical identifier names (a name of
  /// up to `kInlineGrams - 2` characters produces that many padded
  /// trigrams and at most as many distinct PEQ characters). Longer names
  /// spill to the heap transparently. Millions of these are built per
  /// workload — index build, candidate scoring, snapshot load — so the
  /// allocation count is the dominant non-compute cost.
  static constexpr size_t kInlineGrams = 20;
  static constexpr size_t kInlineTokens = 6;

  /// The name, lower-cased when `case_insensitive` is set.
  std::string folded;
  /// `SplitIdentifier(folded)` — input of the token measure.
  std::vector<std::string> tokens;

  // --- Kernel precompute (see prepared_kernel.h) ---

  /// Sorted packed padded-trigram ids of `folded` (`GramTable::Pack`);
  /// the same multiset `ExtractNgrams(folded, 3)` yields.
  SmallVector<uint32_t, kInlineGrams> gram_ids;
  /// Strictly increasing "augmented" gram keys — `(gram_id << 8) | k` for
  /// the k-th occurrence of a gram in the sorted multiset above (packed
  /// trigram ids use 24 bits, so the key fits a uint32). Turning the
  /// multiset into a set lets the SIMD tiers intersect with plain
  /// set-intersection kernels. Derived from `gram_ids` (never serialized);
  /// left empty when any gram repeats ≥ 256 times, in which case the
  /// kernel falls back to the scalar multiset merge.
  SmallVector<uint32_t, kInlineGrams> gram_keys;
  /// Per-token interned id (parallel to `tokens`); `kUnknownTokenId` for
  /// tokens a lookup-only table did not know. Empty when prepared without
  /// a `TokenTable`.
  SmallVector<uint32_t, kInlineTokens> token_ids;
  /// Per-token synonym group (parallel to `tokens`, -1 = none). Empty when
  /// `options.synonyms == nullptr`.
  SmallVector<int32_t, kInlineTokens> token_groups;
  /// Distinct characters of `folded` with their position bitmasks — the
  /// `PEQ` rows of Myers' algorithm. Filled only when `folded` has 1..64
  /// characters (the single-word fast path).
  SmallVector<char, kInlineGrams> peq_chars;
  SmallVector<uint64_t, kInlineGrams> peq_masks;
  /// Synonym group of the whole folded name (-1 = none).
  int32_t name_group = -1;
  /// Provenance: tables the ids/groups above are valid under. The kernel
  /// falls back to string lookups when a pair's provenance disagrees with
  /// the scoring options, so mixing prepared forms stays correct.
  const SynonymTable* synonyms = nullptr;
  const TokenTable* token_table = nullptr;
  /// True once the kernel fields were compiled (`PrepareName` always sets
  /// it; hand-built instances score through the reference path).
  bool kernel_ready = false;
};

/// \brief Folds, tokenizes and kernel-compiles `name` per `options`.
PreparedName PrepareName(std::string_view name,
                         const NameSimilarityOptions& options = {});

/// \brief As above, additionally interning tokens into `interner` (new
/// tokens are inserted). The index build uses this so one table covers the
/// whole repository.
PreparedName PrepareName(std::string_view name,
                         const NameSimilarityOptions& options,
                         TokenTable* interner);

/// \brief Lookup-only variant: tokens absent from `interner` map to
/// `kUnknownTokenId` instead of being inserted. Queries prepare against an
/// immutable repository table this way — const, hence thread-safe.
PreparedName PrepareName(std::string_view name,
                         const NameSimilarityOptions& options,
                         const TokenTable& interner);

/// \brief Composite similarity in [0, 1]; 1 iff the names are equal
/// (after case folding when enabled).
double NameSimilarity(std::string_view a, std::string_view b,
                      const NameSimilarityOptions& options = {});

/// \brief Same measure over pre-folded, pre-tokenized names.
double NameSimilarity(const PreparedName& a, const PreparedName& b,
                      const NameSimilarityOptions& options = {});

/// \brief Distance counterpart: `1 - NameSimilarity`.
double NameDistance(std::string_view a, std::string_view b,
                    const NameSimilarityOptions& options = {});

/// \brief Distance over prepared names: `1 - NameSimilarity`.
double NameDistance(const PreparedName& a, const PreparedName& b,
                    const NameSimilarityOptions& options = {});

namespace internal {

/// \brief The pre-kernel composite scorer over already-folded names.
///
/// Kept verbatim as the bit-exactness oracle for the kernel's tests, as
/// the fallback for hand-built `PreparedName`s, and as the baseline the
/// perf benches compare against. `ta`/`tb` are the pre-split token lists
/// when the caller has them; when null, tokenization happens inside (and
/// only if the token measure runs).
double ScoreFoldedReference(std::string_view a, std::string_view b,
                            const std::vector<std::string>* ta,
                            const std::vector<std::string>* tb,
                            const NameSimilarityOptions& options);

}  // namespace internal

}  // namespace smb::sim
