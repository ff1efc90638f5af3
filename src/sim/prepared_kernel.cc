#include "sim/prepared_kernel.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "sim/simd_dispatch.h"
#include "sim/token_similarity.h"

/// \file prepared_kernel.cc
/// \brief The allocation-free threshold-aware kernel over prepared names
/// (SIMD tiers behind runtime dispatch).

namespace smb::sim {

namespace {

/// Pruning margin: component bounds are mathematically ≥ the exact score,
/// but the bound and the score are *computed* with a handful of float ops
/// each, so a few ulps of disagreement are possible. Pruning only below
/// `min_score - kCutoffMargin` keeps "never prune a pair whose exact score
/// ≥ the cutoff" true with room to spare (errors are ~1e-15 on [0,1]).
constexpr double kCutoffMargin = 1e-9;

/// Thread-local reusable buffers. Everything grows to a high-water mark and
/// is then reused; `growths` counts the allocations (the test hook).
struct Scratch {
  /// PEQ table owned by the live BlockScorer (query pattern).
  std::array<uint64_t, 256> peq_block{};
  /// PEQ table for transient patterns (target-as-pattern, raw-string API).
  std::array<uint64_t, 256> peq_tmp{};
  std::vector<uint32_t> row_prev, row_cur;   // banded Levenshtein rows
  std::vector<uint8_t> a_matched, b_matched; // Jaro match flags
  struct PairEntry {
    double score;
    uint32_t i, j;
  };
  std::vector<PairEntry> pairs;              // token best-first pairing
  std::vector<uint8_t> used_a, used_b;
  // Structure-of-arrays view of one ScoreMany block: indices into the
  // caller's target array (survivor-compacted between stages) plus the
  // per-candidate columns the SIMD filters consume.
  std::vector<uint32_t> soa_idx;
  std::vector<double> soa_len, soa_grams, soa_bound, soa_dice;
  std::vector<const uint32_t*> soa_tkeys;  // per-target gram-key spans for
  std::vector<uint32_t> soa_tlens;         // the batched intersection
  std::vector<uint32_t> soa_counts;
  std::vector<uint32_t> soa_order;  // length-sorted Myers lane order
  uint64_t growths = 0;
  bool block_live = false;
};

Scratch& Tls() {
  static thread_local Scratch scratch;
  return scratch;
}

template <typename T>
void EnsureSize(std::vector<T>& v, size_t n, Scratch& s) {
  if (v.size() < n) {
    if (v.capacity() < n) ++s.growths;
    v.resize(n);
  }
}

template <typename T>
void EnsureCapacity(std::vector<T>& v, size_t n, Scratch& s) {
  if (v.capacity() < n) {
    ++s.growths;
    v.reserve(n);
  }
}

// ---------------------------------------------------------------------------
// Levenshtein: Myers bit-parallel (pattern ≤ 64) and banded two-row DP.

/// Myers' bit-parallel edit distance: `peq` holds the pattern's
/// per-character position masks, `m` its length (1..64); runs O(|text|)
/// word operations. Exact Levenshtein distance.
size_t MyersDistance(const std::array<uint64_t, 256>& peq, size_t m,
                     std::string_view text) {
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  size_t score = m;
  const uint64_t last = uint64_t{1} << (m - 1);
  for (char tc : text) {
    const uint64_t eq = peq[static_cast<unsigned char>(tc)];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & last) {
      ++score;
    } else if (mh & last) {
      --score;
    }
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  return score;
}

void LoadRawPattern(std::array<uint64_t, 256>& peq, std::string_view pattern) {
  for (size_t i = 0; i < pattern.size(); ++i) {
    peq[static_cast<unsigned char>(pattern[i])] |= uint64_t{1} << i;
  }
}

void ClearRawPattern(std::array<uint64_t, 256>& peq, std::string_view pattern) {
  for (char c : pattern) peq[static_cast<unsigned char>(c)] = 0;
}

void LoadPreparedPattern(std::array<uint64_t, 256>& peq,
                         const PreparedName& name) {
  for (size_t s = 0; s < name.peq_chars.size(); ++s) {
    peq[static_cast<unsigned char>(name.peq_chars[s])] = name.peq_masks[s];
  }
}

void ClearPreparedPattern(std::array<uint64_t, 256>& peq,
                          const PreparedName& name) {
  for (char c : name.peq_chars) peq[static_cast<unsigned char>(c)] = 0;
}

/// Banded two-row DP: exact distance when it is ≤ `k`, otherwise `k + 1`.
/// Cells with |i - j| > k cannot lie on a ≤ k-cost path, so each row only
/// visits a 2k+1 window; guard cells around the window hold the saturated
/// sentinel so stale values never leak in as the band slides.
size_t BandedLevenshtein(std::string_view a, std::string_view b, size_t k,
                         Scratch& s) {
  if (a.size() > b.size()) std::swap(a, b);  // a is the shorter string
  const size_t m = a.size();
  const size_t n = b.size();
  k = std::min(k, n);  // the distance never exceeds the longer length
  if (n - m > k) return k + 1;
  if (m == 0) return n;

  const uint32_t big = static_cast<uint32_t>(k) + 1;  // saturation sentinel
  EnsureSize(s.row_prev, m + 1, s);
  EnsureSize(s.row_cur, m + 1, s);
  uint32_t* prev = s.row_prev.data();
  uint32_t* cur = s.row_cur.data();
  for (size_t i = 0; i <= m; ++i) {
    prev[i] = static_cast<uint32_t>(std::min<size_t>(i, big));
  }
  for (size_t j = 1; j <= n; ++j) {
    const size_t lo = j > k ? j - k : 0;
    const size_t hi = std::min(m, j + k);
    if (lo == 0) {
      cur[0] = static_cast<uint32_t>(std::min<size_t>(j, big));
    } else {
      cur[lo - 1] = big;
    }
    for (size_t i = std::max<size_t>(lo, 1); i <= hi; ++i) {
      const uint32_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      uint32_t best = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
      cur[i] = std::min(best, big);
    }
    if (hi < m) cur[hi + 1] = big;
    std::swap(prev, cur);
  }
  return prev[m] >= big ? static_cast<size_t>(k) + 1 : prev[m];
}

/// `1 - dist / max(|a|, |b|)` — the exact expression of
/// `LevenshteinSimilarity`, reproduced for bit-identical doubles.
double NormalizedLevSimilarity(size_t dist, size_t la, size_t lb) {
  size_t longest = std::max(la, lb);
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(dist) / static_cast<double>(longest);
}

// ---------------------------------------------------------------------------
// Jaro-Winkler over scratch flags — same algorithm as jaro_winkler.cc,
// minus the two per-call vector<bool> allocations.

double JaroScratch(std::string_view a, std::string_view b, Scratch& s) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;

  const size_t window =
      std::max(a.size(), b.size()) / 2 == 0
          ? 0
          : std::max(a.size(), b.size()) / 2 - 1;

  EnsureSize(s.a_matched, a.size(), s);
  EnsureSize(s.b_matched, b.size(), s);
  std::fill_n(s.a_matched.begin(), a.size(), uint8_t{0});
  std::fill_n(s.b_matched.begin(), b.size(), uint8_t{0});
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    size_t lo = i > window ? i - window : 0;
    size_t hi = std::min(b.size(), i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (s.b_matched[j] || a[i] != b[j]) continue;
      s.a_matched[i] = 1;
      s.b_matched[j] = 1;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;

  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!s.a_matched[i]) continue;
    while (!s.b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }

  double m = static_cast<double>(matches);
  return (m / static_cast<double>(a.size()) +
          m / static_cast<double>(b.size()) +
          (m - static_cast<double>(transpositions) / 2.0) / m) /
         3.0;
}

double JaroWinklerScratch(std::string_view a, std::string_view b,
                          Scratch& s) {
  double jaro = JaroScratch(a, b, s);
  const double prefix_scale = 0.1;  // the JaroWinklerSimilarity default
  size_t prefix = 0;
  size_t limit = std::min({a.size(), b.size(), size_t{4}});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * prefix_scale * (1.0 - jaro);
}

// ---------------------------------------------------------------------------
// Trigram Dice over interned sorted gram ids.

/// Multiset intersection of two sorted id arrays — the integer twin of
/// ngram.cc's SortedIntersectionSize (the count is order-invariant, so any
/// consistent sort key gives the same value).
size_t SortedIdIntersection(std::span<const uint32_t> a,
                            std::span<const uint32_t> b) {
  size_t i = 0, j = 0, count = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

double DiceKernel(const PreparedName& a, const PreparedName& b) {
  if (a.folded.empty() && b.folded.empty()) return 1.0;
  const auto& ga = a.gram_ids;
  const auto& gb = b.gram_ids;
  if (ga.empty() && gb.empty()) return 1.0;
  if (ga.empty() || gb.empty()) return 0.0;
  size_t inter =
      SortedIdIntersection({ga.data(), ga.size()}, {gb.data(), gb.size()});
  return 2.0 * static_cast<double>(inter) /
         static_cast<double>(ga.size() + gb.size());
}

/// Admissible upper bound on Dice from the gram counts alone:
/// `|A∩B| ≤ min(|A|, |B|)`.
double DiceCountUpperBound(const PreparedName& a, const PreparedName& b) {
  if (a.folded.empty() && b.folded.empty()) return 1.0;
  const size_t ca = a.gram_ids.size();
  const size_t cb = b.gram_ids.size();
  if (ca == 0 && cb == 0) return 1.0;
  if (ca == 0 || cb == 0) return 0.0;
  return 2.0 * static_cast<double>(std::min(ca, cb)) /
         static_cast<double>(ca + cb);
}

/// Admissible upper bound on Levenshtein similarity from the lengths:
/// `dist ≥ ||a| - |b||`.
double LevLengthUpperBound(size_t la, size_t lb) {
  const size_t longest = std::max(la, lb);
  if (longest == 0) return 1.0;
  const size_t gap = la > lb ? la - lb : lb - la;
  return 1.0 - static_cast<double>(gap) / static_cast<double>(longest);
}

// ---------------------------------------------------------------------------
// Token similarity over interned ids, scratch-buffered.

double TokenSimilarityKernel(const PreparedName& a, const PreparedName& b,
                             const NameSimilarityOptions& options,
                             bool ids_valid, bool groups_valid, Scratch& s) {
  const std::vector<std::string>& ta = a.tokens;
  const std::vector<std::string>& tb = b.tokens;
  if (ta.empty() && tb.empty()) return 1.0;
  if (ta.empty() || tb.empty()) return 0.0;

  // The reference scorer hands the token measure a default-constructed
  // TokenSimilarityOptions (only `synonyms` is forwarded) — mirror that.
  const TokenSimilarityOptions token_defaults;
  const double synonym_score = token_defaults.synonym_score;
  const double min_token_score = token_defaults.min_token_score;
  const SynonymTable* synonyms = options.synonyms;

  s.pairs.clear();
  EnsureCapacity(s.pairs, ta.size() * tb.size(), s);
  for (size_t i = 0; i < ta.size(); ++i) {
    for (size_t j = 0; j < tb.size(); ++j) {
      bool equal;
      if (ids_valid) {
        const uint32_t ia = a.token_ids[i];
        const uint32_t ib = b.token_ids[j];
        if (ia != kUnknownTokenId && ib != kUnknownTokenId) {
          equal = ia == ib;
        } else {
          // A lookup-only miss: the id proves nothing, compare strings.
          equal = ta[i] == tb[j];
        }
      } else {
        equal = ta[i] == tb[j];
      }

      double score;
      if (equal) {
        score = 1.0;
      } else {
        bool synonym;
        if (synonyms == nullptr) {
          synonym = false;
        } else if (groups_valid) {
          const int32_t gi = a.token_groups[i];
          synonym = gi >= 0 && gi == b.token_groups[j];
        } else {
          synonym = synonyms->AreSynonyms(ta[i], tb[j]);
        }
        if (synonym) {
          score = synonym_score;
        } else {
          double jw = JaroWinklerScratch(ta[i], tb[j], s);
          score = jw >= min_token_score ? jw : 0.0;
        }
      }
      if (score > 0.0) {
        s.pairs.push_back({score, static_cast<uint32_t>(i),
                           static_cast<uint32_t>(j)});
      }
    }
  }
  std::sort(s.pairs.begin(), s.pairs.end(),
            [](const Scratch::PairEntry& x, const Scratch::PairEntry& y) {
              if (x.score != y.score) return x.score > y.score;
              if (x.i != y.i) return x.i < y.i;
              return x.j < y.j;
            });

  EnsureSize(s.used_a, ta.size(), s);
  EnsureSize(s.used_b, tb.size(), s);
  std::fill_n(s.used_a.begin(), ta.size(), uint8_t{0});
  std::fill_n(s.used_b.begin(), tb.size(), uint8_t{0});
  double total = 0.0;
  size_t matched = 0;
  for (const Scratch::PairEntry& p : s.pairs) {
    if (s.used_a[p.i] || s.used_b[p.j]) continue;
    s.used_a[p.i] = 1;
    s.used_b[p.j] = 1;
    total += p.score;
    ++matched;
  }
  double denom = static_cast<double>(ta.size() + tb.size() - matched);
  return denom > 0.0 ? total / denom : 1.0;
}

}  // namespace

// ---------------------------------------------------------------------------
// GramTable / TokenTable

uint32_t GramTable::Pack(std::string_view gram) {
  assert(gram.size() == 3);
  return Pack(static_cast<unsigned char>(gram[0]),
              static_cast<unsigned char>(gram[1]),
              static_cast<unsigned char>(gram[2]));
}

std::string GramTable::Unpack(uint32_t id) {
  std::string gram(3, '\0');
  gram[0] = static_cast<char>((id >> 16) & 0xFF);
  gram[1] = static_cast<char>((id >> 8) & 0xFF);
  gram[2] = static_cast<char>(id & 0xFF);
  return gram;
}

std::vector<uint32_t> GramTable::PaddedGramIds(std::string_view folded) {
  std::vector<uint32_t> ids;
  AppendPaddedGramIds(folded, &ids);
  return ids;
}

void CompileAugmentedGramKeys(PreparedName* name) {
  name->gram_keys.clear();
  const auto& ids = name->gram_ids;
  name->gram_keys.reserve(ids.size());
  uint32_t occurrence = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    occurrence = (i > 0 && ids[i] == ids[i - 1]) ? occurrence + 1 : 0;
    if (occurrence >= 256 || ids[i] >= 0xFFFFFFu) {
      // A gram repeated ≥ 256 times overflows the 8 occurrence bits, and a
      // gram id at/above 2^24-1 would overflow the id bits (and collide
      // with the SIMD kernels' 0xFFFFFFFF padding sentinel); leave the
      // keys empty (the scalar multiset merge handles it).
      name->gram_keys.clear();
      return;
    }
    name->gram_keys.push_back((ids[i] << 8) | occurrence);
  }
}

uint32_t TokenTable::Intern(std::string_view token) {
  auto it = ids_.find(token);  // heterogeneous: no temporary when present
  if (it != ids_.end()) return it->second;
  return ids_.emplace(std::string(token), static_cast<uint32_t>(ids_.size()))
      .first->second;
}

uint32_t TokenTable::Lookup(std::string_view token) const {
  auto it = ids_.find(token);
  return it == ids_.end() ? kUnknownTokenId : it->second;
}

std::vector<std::string_view> TokenTable::OrderedTokens() const {
  std::vector<std::string_view> tokens(ids_.size());
  for (const auto& [token, id] : ids_) {
    tokens[id] = token;
  }
  return tokens;
}

// ---------------------------------------------------------------------------
// Raw-string Levenshtein entry points (tests, one-off callers).

size_t KernelLevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.empty()) return b.size();
  if (b.empty()) return a.size();
  Scratch& s = Tls();
  if (a.size() > b.size()) std::swap(a, b);
  if (a.size() <= 64) {
    LoadRawPattern(s.peq_tmp, a);
    size_t dist = MyersDistance(s.peq_tmp, a.size(), b);
    ClearRawPattern(s.peq_tmp, a);
    return dist;
  }
  return BandedLevenshtein(a, b, std::max(a.size(), b.size()), s);
}

size_t KernelLevenshteinBounded(std::string_view a, std::string_view b,
                                size_t k) {
  if (a.empty()) return b.size();
  if (b.empty()) return a.size();
  Scratch& s = Tls();
  if (a.size() > b.size()) std::swap(a, b);
  if (a.size() <= 64) {
    // The bit-parallel path is O(|b|) words regardless of k — computing the
    // exact distance is cheaper than banding.
    LoadRawPattern(s.peq_tmp, a);
    size_t dist = MyersDistance(s.peq_tmp, a.size(), b);
    ClearRawPattern(s.peq_tmp, a);
    return dist;
  }
  return BandedLevenshtein(a, b, k, s);
}

uint64_t KernelScratchGrowthCount() { return Tls().growths; }

// ---------------------------------------------------------------------------
// BlockScorer

BlockScorer::BlockScorer(const PreparedName& query,
                         const NameSimilarityOptions& options)
    : query_(&query), options_(&options) {
  wl_ = std::max(0.0, options.weight_levenshtein);
  wj_ = std::max(0.0, options.weight_jaro_winkler);
  wt_ = std::max(0.0, options.weight_trigram);
  wk_ = std::max(0.0, options.weight_token);
  wsum_ = wl_ + wj_ + wt_ + wk_;
  groups_valid_ =
      options.synonyms != nullptr && query.synonyms == options.synonyms;
  // The thread-local PEQ table hosts one resident pattern. The first live
  // scorer on a thread claims it; a nested scorer (e.g. a one-shot
  // NameSimilarity call while a block fill is in flight) simply runs
  // without a resident query pattern — its Levenshtein path loads the
  // target side into the transient table per pair instead — so nesting is
  // merely slower, never incorrect.
  Scratch& s = Tls();
  if (!s.block_live) {
    s.block_live = true;
    owns_block_slot_ = true;
    if (!query.peq_chars.empty()) {
      LoadPreparedPattern(s.peq_block, query);
      query_peq_loaded_ = true;
    }
  }
}

BlockScorer::~BlockScorer() {
  Scratch& s = Tls();
  if (query_peq_loaded_) ClearPreparedPattern(s.peq_block, *query_);
  if (owns_block_slot_) s.block_live = false;
}

double BlockScorer::Score(const PreparedName& target) {
  return ScoreWithCutoff(target, 0.0).score;
}

CutoffScore BlockScorer::ScoreWithCutoff(const PreparedName& target,
                                         double min_score) {
  const PreparedName& q = *query_;
  if (!q.kernel_ready || !target.kernel_ready) {
    // Hand-built prepared form: score through the reference path (exact).
    return {internal::ScoreFoldedReference(q.folded, target.folded, &q.tokens,
                                           &target.tokens, *options_),
            true};
  }

  // The reference scorer's two short-circuits, in its order.
  if (q.folded == target.folded) return {1.0, true};
  const SynonymTable* synonyms = options_->synonyms;
  if (synonyms != nullptr) {
    bool whole_name_synonyms;
    if (groups_valid_ && target.synonyms == synonyms) {
      whole_name_synonyms =
          q.name_group >= 0 && q.name_group == target.name_group;
    } else {
      whole_name_synonyms = synonyms->AreSynonyms(q.folded, target.folded);
    }
    if (whole_name_synonyms) return {options_->synonym_score, true};
  }
  if (wsum_ <= 0.0) return {0.0, true};

  const bool cutoff = min_score > 0.0;
  const size_t la = q.folded.size();
  const size_t lb = target.folded.size();

  // Cheapest-first: admissible bounds cost a handful of arithmetic ops —
  // check them before touching any real component.
  if (cutoff) {
    const double u = (wl_ * LevLengthUpperBound(la, lb) + wj_ +
                      wt_ * DiceCountUpperBound(q, target) + wk_) /
                     wsum_;
    if (u < min_score - kCutoffMargin) return {u, false};
  }

  // Exact trigram Dice: one integer merge, no allocation.
  double dice = 0.0;
  if (wt_ > 0.0) {
    dice = DiceKernel(q, target);
    if (cutoff) {
      const double u =
          (wl_ * LevLengthUpperBound(la, lb) + wj_ + wt_ * dice + wk_) /
          wsum_;
      if (u < min_score - kCutoffMargin) return {u, false};
    }
  }

  return FinishFromDice(target, min_score, dice, /*have_dist=*/false, 0);
}

CutoffScore BlockScorer::FinishFromDice(const PreparedName& target,
                                        double min_score, double dice,
                                        bool have_dist, size_t dist_in) {
  const PreparedName& q = *query_;
  const SynonymTable* synonyms = options_->synonyms;
  Scratch& s = Tls();
  const bool cutoff = min_score > 0.0;
  const size_t la = q.folded.size();
  const size_t lb = target.folded.size();

  // Exact Levenshtein: bit-parallel when either side fits one word,
  // banded with an early-exit cutoff otherwise.
  double lev = 0.0;
  if (wl_ > 0.0) {
    size_t dist;
    const size_t longest = std::max(la, lb);
    if (have_dist) {
      dist = dist_in;  // the batch pipeline already ran Myers for this pair
    } else if (la == 0 || lb == 0) {
      dist = la + lb;
    } else if (query_peq_loaded_) {
      dist = MyersDistance(s.peq_block, la, target.folded);
    } else if (!target.peq_chars.empty()) {
      LoadPreparedPattern(s.peq_tmp, target);
      dist = MyersDistance(s.peq_tmp, lb, q.folded);
      ClearPreparedPattern(s.peq_tmp, target);
    } else {
      // Both sides > 64 chars: derive the largest distance that could
      // still reach min_score (with Jaro-Winkler and token at their
      // maxima) and band the DP accordingly.
      size_t k = longest;
      if (cutoff) {
        const double lev_needed =
            (min_score * wsum_ - (wj_ + wt_ * dice + wk_)) / wl_;
        if (lev_needed > 0.0) {
          const double dmax =
              (1.0 - lev_needed) * static_cast<double>(longest);
          k = dmax <= 0.0
                  ? 1
                  : std::min(longest, static_cast<size_t>(dmax) + 1);
        }
      }
      dist = BandedLevenshtein(q.folded, target.folded, k, s);
      if (dist > k) {
        // Early exit certified dist ≥ k+1; re-check the prune condition
        // with that bound (it decides correctness, not the k derivation).
        const double lev_ub =
            1.0 - static_cast<double>(k + 1) / static_cast<double>(longest);
        const double u = (wl_ * lev_ub + wj_ + wt_ * dice + wk_) / wsum_;
        if (u < min_score - kCutoffMargin) return {u, false};
        // Rare: the bound survives the margin — fall back to the exact
        // distance so the returned score stays full-precision.
        dist = BandedLevenshtein(q.folded, target.folded, longest, s);
      }
    }
    lev = NormalizedLevSimilarity(dist, la, lb);
    if (cutoff) {
      const double u = (wl_ * lev + wj_ + wt_ * dice + wk_) / wsum_;
      if (u < min_score - kCutoffMargin) return {u, false};
    }
  }

  // Exact Jaro-Winkler.
  double jw = 0.0;
  if (wj_ > 0.0) {
    jw = JaroWinklerScratch(q.folded, target.folded, s);
    if (cutoff) {
      const double u = (wl_ * lev + wj_ * jw + wt_ * dice + wk_) / wsum_;
      if (u < min_score - kCutoffMargin) return {u, false};
    }
  }

  // Exact token similarity — the most expensive component, last.
  double token = 0.0;
  if (wk_ > 0.0) {
    const bool ids_valid = q.token_table != nullptr &&
                           q.token_table == target.token_table &&
                           q.token_ids.size() == q.tokens.size() &&
                           target.token_ids.size() == target.tokens.size();
    const bool token_groups_valid =
        groups_valid_ && target.synonyms == synonyms &&
        q.token_groups.size() == q.tokens.size() &&
        target.token_groups.size() == target.tokens.size();
    token = TokenSimilarityKernel(q, target, *options_, ids_valid,
                                  token_groups_valid, s);
  }

  // Combine in the reference scorer's exact accumulation order so the
  // final double is bit-identical.
  double score = 0.0;
  if (wl_ > 0.0) score += wl_ * lev;
  if (wj_ > 0.0) score += wj_ * jw;
  if (wt_ > 0.0) score += wt_ * dice;
  if (wk_ > 0.0) score += wk_ * token;
  double sim = score / wsum_;
  return {std::min(sim, 0.999), true};
}

void BlockScorer::ScoreMany(std::span<const PreparedName* const> targets,
                            double min_score, CutoffScore* out) {
  const size_t n = targets.size();
  if (n == 0) return;
  const simd::Ops& ops = simd::OpsForTier(ActiveSimdTier());
  const PreparedName& q = *query_;
  const SynonymTable* synonyms = options_->synonyms;
  Scratch& s = Tls();
  const bool cutoff = min_score > 0.0;
  const double prune_below = min_score - kCutoffMargin;
  const double la = static_cast<double>(q.folded.size());
  const double ga = static_cast<double>(q.gram_ids.size());

  const size_t ca = q.gram_ids.size();
  const bool qkeys_ok = ca > 0 && q.gram_keys.size() == ca;
  // Pairs the batched intersection will need key spans for; filled in
  // stage A while the target's cache lines are hot.
  const bool want_keys = wt_ > 0.0 && ca > 0;
  // Whether any live pair lacks a key span (empty side or overflowed keys)
  // and needs the scalar prefill before the batched intersection. Stage B
  // only removes pairs, so a stage-A false stays exact.
  bool any_null_keys = false;

  EnsureSize(s.soa_idx, n, s);
  EnsureSize(s.soa_len, n, s);
  EnsureSize(s.soa_grams, n, s);
  EnsureSize(s.soa_bound, n, s);
  EnsureSize(s.soa_dice, n, s);
  EnsureSize(s.soa_tkeys, n, s);
  EnsureSize(s.soa_tlens, n, s);
  EnsureSize(s.soa_counts, n, s);

  // Stage A — the per-pair short-circuits of ScoreWithCutoff, in its exact
  // order; undecided pairs land in the SoA columns.
  size_t live = 0;
  for (size_t i = 0; i < n; ++i) {
    const PreparedName& t = *targets[i];
    if (!q.kernel_ready || !t.kernel_ready) {
      out[i] = {internal::ScoreFoldedReference(q.folded, t.folded, &q.tokens,
                                               &t.tokens, *options_),
                true};
      continue;
    }
    if (q.folded == t.folded) {
      out[i] = {1.0, true};
      continue;
    }
    if (synonyms != nullptr) {
      bool whole_name_synonyms;
      if (groups_valid_ && t.synonyms == synonyms) {
        whole_name_synonyms =
            q.name_group >= 0 && q.name_group == t.name_group;
      } else {
        whole_name_synonyms = synonyms->AreSynonyms(q.folded, t.folded);
      }
      if (whole_name_synonyms) {
        out[i] = {options_->synonym_score, true};
        continue;
      }
    }
    if (wsum_ <= 0.0) {
      out[i] = {0.0, true};
      continue;
    }
    s.soa_idx[live] = static_cast<uint32_t>(i);
    s.soa_len[live] = static_cast<double>(t.folded.size());
    const size_t cb = t.gram_ids.size();
    s.soa_grams[live] = static_cast<double>(cb);
    if (want_keys) {
      // Null key pointer + nonzero length marks the rare scalar-merge
      // fallback (a side whose augmented keys overflowed); null + zero
      // length is an empty side (intersection 0 without any work).
      const bool keys_valid = qkeys_ok && t.gram_keys.size() == cb;
      if (keys_valid && cb > 0) {
        s.soa_tkeys[live] = t.gram_keys.data();
      } else {
        s.soa_tkeys[live] = nullptr;
        any_null_keys = true;
      }
      s.soa_tlens[live] = static_cast<uint32_t>(cb);
    }
    ++live;
  }

  // Stage B — lane-parallel admissible pre-filter (the length and
  // gram-count bounds). The equality short-circuit above guarantees no
  // both-empty pair reaches the general formulas, so they reproduce the
  // per-pair special cases bit-for-bit.
  if (cutoff && live > 0) {
    ops.bound_filter(s.soa_len.data(), s.soa_grams.data(), live, la, ga,
                     wl_, wj_, wt_, wk_, wsum_, s.soa_bound.data());
    size_t kept = 0;
    for (size_t k = 0; k < live; ++k) {
      if (s.soa_bound[k] < prune_below) {
        out[s.soa_idx[k]] = {s.soa_bound[k], false};
      } else {
        s.soa_idx[kept] = s.soa_idx[k];
        s.soa_len[kept] = s.soa_len[k];
        s.soa_grams[kept] = s.soa_grams[k];
        if (want_keys) {
          s.soa_tkeys[kept] = s.soa_tkeys[k];
          s.soa_tlens[kept] = s.soa_tlens[k];
        }
        ++kept;
      }
    }
    live = kept;
  }

  // Stage C — exact trigram Dice (SIMD set intersection over the augmented
  // gram keys, the query side held resident across the block) plus the
  // refreshed bound. The length bound is recomputed from the SoA doubles:
  // lengths are exact small integers, so the double arithmetic reproduces
  // the per-pair size_t-based expression bit-for-bit.
  if (wt_ > 0.0 && live > 0 && ca > 0) {
    // Pairs the SIMD kernel cannot take (a side whose augmented keys
    // overflowed) are pre-filled from the scalar multiset merge and
    // skipped by the kernel; empty target sides count zero outright.
    if (any_null_keys) {
      for (size_t k = 0; k < live; ++k) {
        if (s.soa_tkeys[k] != nullptr) continue;
        const uint32_t cb = s.soa_tlens[k];
        s.soa_counts[k] =
            cb == 0
                ? 0u  // dice 2*0/(ca+0) == the per-pair 0.0
                : static_cast<uint32_t>(SortedIdIntersection(
                      {q.gram_ids.data(), ca},
                      {targets[s.soa_idx[k]]->gram_ids.data(), cb}));
      }
    }
    if (qkeys_ok) {
      ops.intersect_many(q.gram_keys.data(), ca, s.soa_tkeys.data(),
                         s.soa_tlens.data(), live, s.soa_counts.data());
    }
    // Exact dice plus the refreshed bound, lane-parallel; `ca + cb` as a
    // double add of two exact small integers matches the per-pair
    // size_t-sum-then-convert bit-for-bit.
    ops.dice_refine(s.soa_len.data(), s.soa_grams.data(), s.soa_counts.data(),
                    live, la, static_cast<double>(ca), wl_, wj_, wt_, wk_,
                    wsum_, s.soa_dice.data(), s.soa_bound.data());
    size_t kept = 0;
    for (size_t k = 0; k < live; ++k) {
      if (cutoff && s.soa_bound[k] < prune_below) {
        out[s.soa_idx[k]] = {s.soa_bound[k], false};
        continue;
      }
      s.soa_idx[kept] = s.soa_idx[k];
      s.soa_len[kept] = s.soa_len[k];
      s.soa_dice[kept] = s.soa_dice[k];
      ++kept;
    }
    live = kept;
  } else if (wt_ > 0.0 && live > 0) {
    // ca == 0: dice is exactly 0.0 for every pair; only the refreshed
    // bound remains (same expression as the per-pair path with dice 0).
    size_t kept = 0;
    for (size_t k = 0; k < live; ++k) {
      if (cutoff) {
        const double lb = s.soa_len[k];
        const double longest = std::max(la, lb);
        const double gap = la > lb ? la - lb : lb - la;
        const double lev_ub = 1.0 - gap / longest;
        const double u = (wl_ * lev_ub + wj_ + wt_ * 0.0 + wk_) / wsum_;
        if (u < prune_below) {
          out[s.soa_idx[k]] = {u, false};
          continue;
        }
      }
      s.soa_idx[kept] = s.soa_idx[k];
      s.soa_len[kept] = s.soa_len[k];
      s.soa_dice[kept] = 0.0;
      ++kept;
    }
    live = kept;
  } else {
    std::fill_n(s.soa_dice.begin(), live, 0.0);
  }

  // Stages D+E — batched Myers fused with the scalar tail: survivors with
  // the resident query pattern are grouped into SIMD lanes (the kernel
  // reads each folded name in place — no packing); each lane's distance is
  // the exact scalar recurrence, so downstream doubles are unchanged. With a
  // cutoff, the per-pair path's post-Levenshtein bound is applied right on
  // the batch output, so only pairs that can still reach `min_score` pay
  // for the tail (Levenshtein fallbacks, Jaro-Winkler, token similarity,
  // final combine).
  if (wl_ > 0.0 && query_peq_loaded_ && ops.lanes > 1 && live > 0) {
    const size_t lanes = ops.lanes;
    uint64_t lens[8] = {0};
    uint64_t dists[8] = {0};
    uint32_t lane_k[8] = {0};
    const uint8_t* texts[8] = {nullptr};
    size_t filled = 0;
    size_t maxlen = 0;
    // Visit survivors in folded-length order (counting sort; lengths clamp
    // into the last bucket): each batch runs max-length iterations across
    // its lanes, so near-equal lanes waste the fewest frozen steps. Results
    // are written per pair, so the visit order cannot change any score.
    constexpr size_t kLenBuckets = 130;
    uint32_t bucket[kLenBuckets] = {0};
    for (size_t k = 0; k < live; ++k) {
      ++bucket[std::min<size_t>(static_cast<size_t>(s.soa_len[k]),
                                kLenBuckets - 1)];
    }
    size_t pos = 0;
    for (size_t b = 0; b < kLenBuckets; ++b) {
      const uint32_t c = bucket[b];
      bucket[b] = static_cast<uint32_t>(pos);
      pos += c;
    }
    EnsureSize(s.soa_order, live, s);
    for (size_t k = 0; k < live; ++k) {
      const size_t b = std::min<size_t>(static_cast<size_t>(s.soa_len[k]),
                                        kLenBuckets - 1);
      s.soa_order[bucket[b]++] = static_cast<uint32_t>(k);
    }
    auto flush = [&]() {
      if (filled == 0) return;
      for (size_t l = filled; l < lanes; ++l) lens[l] = 0;
      ops.myers_batch(s.peq_block.data(), q.folded.size(), texts, lens,
                      maxlen, dists);
      for (size_t l = 0; l < filled; ++l) {
        const size_t k = lane_k[l];
        const uint32_t i = s.soa_idx[k];
        if (cutoff) {
          // The per-pair path's post-Levenshtein bound, verbatim:
          // lev = 1 - dist/longest; u = (wl*lev + wj + wt*dice + wk)/wsum.
          const double lb = s.soa_len[k];
          const double longest = std::max(la, lb);
          const double lev = 1.0 - static_cast<double>(dists[l]) / longest;
          const double u =
              (wl_ * lev + wj_ + wt_ * s.soa_dice[k] + wk_) / wsum_;
          if (u < prune_below) {
            out[i] = {u, false};
            continue;
          }
        }
        out[i] = FinishFromDice(*targets[i], min_score, s.soa_dice[k],
                                /*have_dist=*/true, dists[l]);
      }
      filled = 0;
      maxlen = 0;
    };
    for (size_t o = 0; o < live; ++o) {
      const size_t k = s.soa_order[o];
      const uint32_t i = s.soa_idx[k];
      const std::string& f = targets[i]->folded;
      const size_t lb = f.size();
      if (lb == 0) {  // trivial dist = la + lb, handled by the tail
        out[i] = FinishFromDice(*targets[i], min_score, s.soa_dice[k],
                                /*have_dist=*/false, 0);
        continue;
      }
      lane_k[filled] = static_cast<uint32_t>(k);
      lens[filled] = lb;
      texts[filled] = reinterpret_cast<const uint8_t*>(f.data());
      maxlen = std::max(maxlen, lb);
      if (++filled == lanes) flush();
    }
    flush();
  } else {
    for (size_t k = 0; k < live; ++k) {
      const uint32_t i = s.soa_idx[k];
      out[i] = FinishFromDice(*targets[i], min_score, s.soa_dice[k],
                              /*have_dist=*/false, 0);
    }
  }
}

CutoffScore ScoreWithCutoff(const PreparedName& a, const PreparedName& b,
                            const NameSimilarityOptions& options,
                            double min_score) {
  BlockScorer scorer(a, options);
  return scorer.ScoreWithCutoff(b, min_score);
}

}  // namespace smb::sim
