#include "sim/prepared_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/edit_distance.h"
#include "sim/name_similarity.h"
#include "sim/ngram.h"
#include "sim/synonyms.h"

// --- Allocation-counting hook ---------------------------------------------
//
// The kernel's contract is *zero heap allocations per pair* in steady
// state. The strongest proof is counting every `operator new` of the
// process while a warm kernel scores a block. Sanitizer builds interpose
// the allocator themselves, so there the test falls back to the kernel's
// own scratch-growth counter (which is exercised everywhere).

#if defined(__SANITIZE_ADDRESS__)
#define SMB_ALLOC_HOOK 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SMB_ALLOC_HOOK 0
#else
#define SMB_ALLOC_HOOK 1
#endif
#else
#define SMB_ALLOC_HOOK 1
#endif

#if SMB_ALLOC_HOOK

namespace {
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // SMB_ALLOC_HOOK

namespace smb::sim {
namespace {

// --- Random-input helpers ---------------------------------------------

/// Random byte string: lowercase-biased with underscores, digits, capitals
/// and non-ASCII bytes mixed in, so folding, tokenization, PEQ masks and
/// the DP paths all see "unicode bytes" (the kernel is byte-based, like
/// the reference).
std::string RandomName(Rng& rng, size_t max_len) {
  const auto len = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(max_len)));
  std::string name;
  name.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    const int64_t kind = rng.UniformInt(0, 9);
    char c;
    if (kind < 6) {
      c = static_cast<char>('a' + rng.UniformInt(0, 25));
    } else if (kind == 6) {
      c = static_cast<char>('A' + rng.UniformInt(0, 25));
    } else if (kind == 7) {
      c = static_cast<char>('0' + rng.UniformInt(0, 9));
    } else if (kind == 8) {
      c = '_';
    } else {
      // Raw non-ASCII byte (e.g. a UTF-8 continuation byte).
      c = static_cast<char>(0x80 + rng.UniformInt(0, 0x7F));
    }
    name.push_back(c);
  }
  return name;
}

NameSimilarityOptions SynonymOptions() {
  static const SynonymTable kTable = SynonymTable::Builtin();
  NameSimilarityOptions options;
  options.synonyms = &kTable;
  return options;
}

// --- GramTable / TokenTable --------------------------------------------

TEST(GramTableTest, PackUnpackRoundTrip) {
  EXPECT_EQ(GramTable::Unpack(GramTable::Pack("abc")), "abc");
  EXPECT_EQ(GramTable::Unpack(GramTable::Pack("##a")), "##a");
  // Packing preserves byte-lexicographic order.
  EXPECT_LT(GramTable::Pack("##a"), GramTable::Pack("#ab"));
  EXPECT_LT(GramTable::Pack("abc"), GramTable::Pack("abd"));
}

TEST(GramTableTest, PaddedGramIdsMatchExtractNgrams) {
  Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    const std::string name = RandomName(rng, 20);
    std::vector<std::string> grams = ExtractNgrams(name, 3);
    std::vector<uint32_t> ids = GramTable::PaddedGramIds(name);
    ASSERT_EQ(grams.size(), ids.size()) << "name: " << name;
    // Both are sorted and packing is order-preserving: positions align.
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(GramTable::Unpack(ids[i]), grams[i]) << "name: " << name;
    }
  }
  EXPECT_TRUE(GramTable::PaddedGramIds("").empty());
}

TEST(TokenTableTest, InternsDenselyAndLooksUp) {
  TokenTable table;
  EXPECT_EQ(table.Intern("order"), 0u);
  EXPECT_EQ(table.Intern("item"), 1u);
  EXPECT_EQ(table.Intern("order"), 0u);  // idempotent
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Lookup("item"), 1u);
  EXPECT_EQ(table.Lookup("customer"), kUnknownTokenId);
}

// --- Levenshtein property test ------------------------------------------

TEST(PreparedKernelTest, LevenshteinMatchesReferenceOn10kRandomPairs) {
  Rng rng(42);
  size_t long_pairs = 0;
  size_t empty_sides = 0;
  for (int round = 0; round < 10000; ++round) {
    // Mix of regimes: mostly ≤ 64 (bit-parallel path), a solid share
    // beyond 64 chars (banded path), plus empty strings.
    const size_t max_len = round % 5 == 0 ? 120 : 40;
    const std::string a = RandomName(rng, max_len);
    std::string b;
    if (round % 3 == 0) {
      // Perturbed copy — realistic small distances.
      b = a;
      const int64_t edits = rng.UniformInt(0, 5);
      for (int64_t e = 0; e < edits && !b.empty(); ++e) {
        const auto pos = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(b.size()) - 1));
        switch (rng.UniformInt(0, 2)) {
          case 0:
            b[pos] = static_cast<char>('a' + rng.UniformInt(0, 25));
            break;
          case 1:
            b.erase(pos, 1);
            break;
          default:
            b.insert(pos, 1, static_cast<char>('a' + rng.UniformInt(0, 25)));
        }
      }
    } else {
      b = RandomName(rng, max_len);
    }
    if (a.size() > 64 && b.size() > 64) ++long_pairs;
    if (a.empty() || b.empty()) ++empty_sides;

    const size_t expected = LevenshteinDistance(a, b);
    ASSERT_EQ(KernelLevenshteinDistance(a, b), expected)
        << "a: " << a << " b: " << b;

    // Bounded variant: exact at or under the cutoff, certified above it.
    const size_t k = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(std::max(a.size(), b.size())) + 2));
    const size_t bounded = KernelLevenshteinBounded(a, b, k);
    if (expected <= k) {
      ASSERT_EQ(bounded, expected) << "a: " << a << " b: " << b << " k: " << k;
    } else {
      ASSERT_GT(bounded, k) << "a: " << a << " b: " << b << " k: " << k;
    }
  }
  // The mix must actually exercise the banded and empty paths.
  EXPECT_GT(long_pairs, 100u);
  EXPECT_GT(empty_sides, 100u);
}

// --- Composite bit-identity ----------------------------------------------

TEST(PreparedKernelTest, CompositeScoreBitIdenticalToReference) {
  Rng rng(11);
  const NameSimilarityOptions with_synonyms = SynonymOptions();
  NameSimilarityOptions no_synonyms;
  NameSimilarityOptions case_sensitive = SynonymOptions();
  case_sensitive.case_insensitive = false;
  NameSimilarityOptions skewed = SynonymOptions();
  skewed.weight_levenshtein = 0.7;
  skewed.weight_jaro_winkler = 0.0;
  skewed.weight_trigram = 0.05;
  skewed.weight_token = 0.4;
  const NameSimilarityOptions* all_options[] = {&with_synonyms, &no_synonyms,
                                                &case_sensitive, &skewed};

  // Include synonym-table names so the whole-name and token synonym
  // shortcuts trigger, not just the weighted blend.
  const char* vocabulary[] = {"customer", "client", "purchaseOrder",
                              "order_id", "qty", "quantity", ""};
  for (int round = 0; round < 4000; ++round) {
    const NameSimilarityOptions& options =
        *all_options[round % (sizeof(all_options) / sizeof(all_options[0]))];
    std::string a = round % 7 == 0 ? vocabulary[rng.UniformInt(0, 6)]
                                   : RandomName(rng, round % 11 == 0 ? 90 : 24);
    std::string b = round % 5 == 0 ? vocabulary[rng.UniformInt(0, 6)]
                                   : RandomName(rng, round % 13 == 0 ? 90 : 24);

    PreparedName pa = PrepareName(a, options);
    PreparedName pb = PrepareName(b, options);
    const double expected = internal::ScoreFoldedReference(
        pa.folded, pb.folded, &pa.tokens, &pb.tokens, options);

    // Kernel over prepared names: exactly the reference double.
    EXPECT_EQ(NameSimilarity(pa, pb, options), expected)
        << "a: " << a << " b: " << b;
    // The string_view overload routes through the same prepared path.
    EXPECT_EQ(NameSimilarity(a, b, options), expected)
        << "a: " << a << " b: " << b;

    // Interned preparation (shared table + lookup-only side) must not
    // change a single bit either.
    TokenTable table;
    PreparedName ia = PrepareName(a, options, &table);
    PreparedName ib = PrepareName(b, options,
                                  static_cast<const TokenTable&>(table));
    EXPECT_EQ(NameSimilarity(ia, ib, options), expected)
        << "a: " << a << " b: " << b;
  }
}

// --- Cutoff admissibility ---------------------------------------------

TEST(PreparedKernelTest, CutoffNeverPrunesReachableScores) {
  Rng rng(23);
  const NameSimilarityOptions options = SynonymOptions();
  size_t pruned = 0;
  for (int round = 0; round < 10000; ++round) {
    const std::string a = RandomName(rng, round % 9 == 0 ? 90 : 20);
    const std::string b = RandomName(rng, round % 9 == 1 ? 90 : 20);
    PreparedName pa = PrepareName(a, options);
    PreparedName pb = PrepareName(b, options);
    const double exact = internal::ScoreFoldedReference(
        pa.folded, pb.folded, &pa.tokens, &pb.tokens, options);
    const double min_score = rng.UniformDouble();

    CutoffScore result = ScoreWithCutoff(pa, pb, options, min_score);
    if (result.exact) {
      EXPECT_EQ(result.score, exact) << "a: " << a << " b: " << b;
    } else {
      ++pruned;
      // The core guarantee: a pruned pair's exact score is below the
      // cutoff — pruning can never hide a reachable score...
      EXPECT_LT(exact, min_score)
          << "a: " << a << " b: " << b << " min_score: " << min_score;
      // ...and what it reports is an admissible upper bound below it.
      EXPECT_GE(result.score, exact - 1e-12);
      EXPECT_LT(result.score, min_score);
    }
  }
  // The cutoff must actually fire on random pairs, or this test is vacuous.
  EXPECT_GT(pruned, 1000u);
}

TEST(PreparedKernelTest, ScoreManyMatchesPairwiseScoring) {
  Rng rng(31);
  const NameSimilarityOptions options = SynonymOptions();
  std::vector<PreparedName> names;
  for (int i = 0; i < 64; ++i) {
    names.push_back(PrepareName(RandomName(rng, 24), options));
  }
  std::vector<const PreparedName*> targets;
  for (const PreparedName& p : names) targets.push_back(&p);
  std::vector<CutoffScore> block(targets.size());

  for (size_t qi = 0; qi < names.size(); qi += 7) {
    BlockScorer(names[qi], options).ScoreMany(targets, 0.0, block.data());
    for (size_t t = 0; t < targets.size(); ++t) {
      EXPECT_TRUE(block[t].exact);
      EXPECT_EQ(block[t].score, NameSimilarity(names[qi], names[t], options));
    }
    // Threshold-aware block run agrees wherever it stays exact.
    BlockScorer(names[qi], options).ScoreMany(targets, 0.8, block.data());
    for (size_t t = 0; t < targets.size(); ++t) {
      const double exact = NameSimilarity(names[qi], names[t], options);
      if (block[t].exact) {
        EXPECT_EQ(block[t].score, exact);
      } else {
        EXPECT_LT(exact, 0.8);
      }
    }
  }
}

// --- Zero allocations per pair ------------------------------------------

TEST(PreparedKernelTest, SteadyStateScoringDoesNotAllocate) {
  Rng rng(5);
  const NameSimilarityOptions options = SynonymOptions();
  std::vector<PreparedName> names;
  for (int i = 0; i < 128; ++i) {
    // Long names included so the banded-DP scratch is exercised too.
    names.push_back(PrepareName(RandomName(rng, i % 16 == 0 ? 90 : 24),
                                options));
  }
  std::vector<const PreparedName*> targets;
  for (const PreparedName& p : names) targets.push_back(&p);
  std::vector<CutoffScore> scores(targets.size());

  // Warm-up: lets every thread-local scratch buffer reach its high-water
  // mark for this workload.
  for (size_t qi = 0; qi < names.size(); ++qi) {
    BlockScorer(names[qi], options).ScoreMany(targets, 0.0, scores.data());
    BlockScorer(names[qi], options).ScoreMany(targets, 0.6, scores.data());
  }

  const uint64_t growths_before = KernelScratchGrowthCount();
#if SMB_ALLOC_HOOK
  const uint64_t heap_before =
      g_heap_allocations.load(std::memory_order_relaxed);
#endif
  double checksum = 0.0;
  for (size_t qi = 0; qi < names.size(); ++qi) {
    BlockScorer(names[qi], options).ScoreMany(targets, 0.0, scores.data());
    checksum += scores[qi].score;
    BlockScorer(names[qi], options).ScoreMany(targets, 0.6, scores.data());
    checksum += scores[qi].score;
  }
#if SMB_ALLOC_HOOK
  const uint64_t heap_after =
      g_heap_allocations.load(std::memory_order_relaxed);
#endif
  const uint64_t growths_after = KernelScratchGrowthCount();

  EXPECT_GT(checksum, 0.0);  // keep the loop observable
  EXPECT_EQ(growths_after, growths_before)
      << "kernel scratch grew during steady-state scoring";
#if SMB_ALLOC_HOOK
  EXPECT_EQ(heap_after, heap_before)
      << "heap allocations in the kernel hot loop: "
      << (heap_after - heap_before) << " across "
      << 2 * names.size() * targets.size() << " pairs";
#endif
}

}  // namespace
}  // namespace smb::sim
