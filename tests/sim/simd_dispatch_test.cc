#include "sim/simd_dispatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/name_similarity.h"
#include "sim/prepared_kernel.h"
#include "sim/synonyms.h"

// Every SIMD kernel must be bit-identical to the scalar reference on any
// input the block scorer can produce. These tests sweep each available tier
// twice: once per-op against `ScalarOps()` on randomized inputs, and once
// end-to-end through the scoring pipeline with the tier forced via the
// dispatch-override hook.

namespace smb::sim {
namespace {

std::vector<SimdTier> AvailableTiers() {
  std::vector<SimdTier> tiers = {SimdTier::kScalar};
  if (SimdTierAvailable(SimdTier::kAvx2)) tiers.push_back(SimdTier::kAvx2);
  if (SimdTierAvailable(SimdTier::kNeon)) tiers.push_back(SimdTier::kNeon);
  return tiers;
}

/// Strictly increasing uint32 keys below the 0xFFFFFFFF padding sentinel,
/// drawn from a small universe so arrays genuinely intersect.
std::vector<uint32_t> RandomKeys(Rng& rng, size_t max_len) {
  std::set<uint32_t> keys;
  const auto len =
      static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(max_len)));
  while (keys.size() < len) {
    keys.insert(static_cast<uint32_t>(rng.UniformInt(0, 400)) << 8 |
                static_cast<uint32_t>(rng.UniformInt(0, 3)));
  }
  return {keys.begin(), keys.end()};
}

TEST(SimdDispatchTest, TierNamesAndClamping) {
  EXPECT_STREQ(SimdTierName(SimdTier::kScalar), "scalar");
  EXPECT_STREQ(SimdTierName(SimdTier::kAvx2), "avx2");
  EXPECT_STREQ(SimdTierName(SimdTier::kNeon), "neon");
  EXPECT_TRUE(SimdTierAvailable(SimdTier::kScalar));
  // Forcing an unavailable tier must clamp to scalar, never crash.
  for (SimdTier t : {SimdTier::kAvx2, SimdTier::kNeon}) {
    internal::OverrideSimdTierForTest(t);
    if (!SimdTierAvailable(t)) {
      EXPECT_EQ(ActiveSimdTier(), SimdTier::kScalar);
    } else {
      EXPECT_EQ(ActiveSimdTier(), t);
    }
  }
  internal::ClearSimdTierOverrideForTest();
}

TEST(SimdDispatchTest, BoundFilterMatchesScalarBitwise) {
  const simd::Ops& scalar = simd::ScalarOps();
  Rng rng(101);
  for (SimdTier tier : AvailableTiers()) {
    const simd::Ops& ops = simd::OpsForTier(tier);
    for (int round = 0; round < 300; ++round) {
      const auto n = static_cast<size_t>(rng.UniformInt(0, 37));
      std::vector<double> len(n), grams(n);
      for (size_t i = 0; i < n; ++i) {
        len[i] = static_cast<double>(rng.UniformInt(1, 120));
        grams[i] = static_cast<double>(rng.UniformInt(0, 122));
      }
      const double la = static_cast<double>(rng.UniformInt(1, 120));
      const double ga = static_cast<double>(rng.UniformInt(1, 122));
      const double wl = rng.UniformDouble(), wj = rng.UniformDouble();
      const double wt = rng.UniformDouble(), wk = rng.UniformDouble();
      const double wsum = wl + wj + wt + wk;
      std::vector<double> expect(n, -1.0), got(n, -1.0);
      scalar.bound_filter(len.data(), grams.data(), n, la, ga, wl, wj, wt,
                          wk, wsum, expect.data());
      ops.bound_filter(len.data(), grams.data(), n, la, ga, wl, wj, wt, wk,
                       wsum, got.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], expect[i]) << SimdTierName(tier) << " lane " << i;
      }
    }
  }
}

TEST(SimdDispatchTest, IntersectMatchesScalar) {
  const simd::Ops& scalar = simd::ScalarOps();
  Rng rng(202);
  for (SimdTier tier : AvailableTiers()) {
    const simd::Ops& ops = simd::OpsForTier(tier);
    for (int round = 0; round < 2000; ++round) {
      // Mix the all-pairs (≤16) and block-merge (>16) regimes.
      const size_t max_len = round % 3 == 0 ? 60 : 16;
      const std::vector<uint32_t> a = RandomKeys(rng, max_len);
      const std::vector<uint32_t> b = RandomKeys(rng, max_len);
      const size_t expect =
          scalar.intersect(a.data(), a.size(), b.data(), b.size());
      ASSERT_EQ(ops.intersect(a.data(), a.size(), b.data(), b.size()), expect)
          << SimdTierName(tier) << " na=" << a.size() << " nb=" << b.size();
    }
  }
}

TEST(SimdDispatchTest, IntersectManyMatchesScalarAndSkipsNullEntries) {
  const simd::Ops& scalar = simd::ScalarOps();
  Rng rng(303);
  for (SimdTier tier : AvailableTiers()) {
    const simd::Ops& ops = simd::OpsForTier(tier);
    for (int round = 0; round < 200; ++round) {
      // Query sizes straddle every specialization (≤8, 9..16, >16).
      const size_t qmax = round % 4 == 0 ? 40 : (round % 2 == 0 ? 8 : 16);
      const std::vector<uint32_t> q = RandomKeys(rng, qmax);
      const auto n = static_cast<size_t>(rng.UniformInt(0, 50));
      std::vector<std::vector<uint32_t>> storage(n);
      std::vector<const uint32_t*> tkeys(n);
      std::vector<uint32_t> tlens(n);
      for (size_t i = 0; i < n; ++i) {
        if (rng.UniformInt(0, 4) == 0) {
          tkeys[i] = nullptr;  // scalar-fallback pair: must stay untouched
          tlens[i] = static_cast<uint32_t>(rng.UniformInt(0, 20));
        } else {
          storage[i] = RandomKeys(rng, 24);
          tkeys[i] = storage[i].data();
          tlens[i] = static_cast<uint32_t>(storage[i].size());
        }
      }
      constexpr uint32_t kSentinel = 0xDEADBEEFu;
      std::vector<uint32_t> counts(n, kSentinel);
      ops.intersect_many(q.data(), q.size(), tkeys.data(), tlens.data(), n,
                         counts.data());
      for (size_t i = 0; i < n; ++i) {
        if (tkeys[i] == nullptr) {
          ASSERT_EQ(counts[i], kSentinel)
              << SimdTierName(tier) << ": null entry " << i << " clobbered";
        } else {
          ASSERT_EQ(counts[i],
                    scalar.intersect(q.data(), q.size(), tkeys[i], tlens[i]))
              << SimdTierName(tier) << " entry " << i << " nq=" << q.size();
        }
      }
    }
  }
}

TEST(SimdDispatchTest, DiceRefineMatchesScalarBitwise) {
  const simd::Ops& scalar = simd::ScalarOps();
  Rng rng(404);
  for (SimdTier tier : AvailableTiers()) {
    const simd::Ops& ops = simd::OpsForTier(tier);
    for (int round = 0; round < 300; ++round) {
      const auto n = static_cast<size_t>(rng.UniformInt(0, 37));
      std::vector<double> len(n), grams(n);
      std::vector<uint32_t> counts(n);
      const double ca = static_cast<double>(rng.UniformInt(1, 100));
      for (size_t i = 0; i < n; ++i) {
        len[i] = static_cast<double>(rng.UniformInt(1, 120));
        grams[i] = static_cast<double>(rng.UniformInt(0, 122));
        counts[i] = static_cast<uint32_t>(
            rng.UniformInt(0, static_cast<int64_t>(ca)));
      }
      const double la = static_cast<double>(rng.UniformInt(1, 120));
      const double wl = rng.UniformDouble(), wj = rng.UniformDouble();
      const double wt = rng.UniformDouble(), wk = rng.UniformDouble();
      const double wsum = wl + wj + wt + wk;
      std::vector<double> dice_e(n), u_e(n), dice_g(n), u_g(n);
      scalar.dice_refine(len.data(), grams.data(), counts.data(), n, la, ca,
                         wl, wj, wt, wk, wsum, dice_e.data(), u_e.data());
      ops.dice_refine(len.data(), grams.data(), counts.data(), n, la, ca, wl,
                      wj, wt, wk, wsum, dice_g.data(), u_g.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(dice_g[i], dice_e[i]) << SimdTierName(tier) << " lane " << i;
        ASSERT_EQ(u_g[i], u_e[i]) << SimdTierName(tier) << " lane " << i;
      }
    }
  }
}

TEST(SimdDispatchTest, MyersBatchMatchesScalarPerLane) {
  const simd::Ops& scalar = simd::ScalarOps();
  Rng rng(505);
  for (SimdTier tier : AvailableTiers()) {
    const simd::Ops& ops = simd::OpsForTier(tier);
    for (int round = 0; round < 400; ++round) {
      // Pattern of 1..64 bytes with a small alphabet for real matches.
      const auto m = static_cast<size_t>(rng.UniformInt(1, 64));
      std::array<uint64_t, 256> peq{};
      std::string pattern;
      for (size_t i = 0; i < m; ++i) {
        const char c = static_cast<char>('a' + rng.UniformInt(0, 5));
        pattern.push_back(c);
        peq[static_cast<unsigned char>(c)] |= uint64_t{1} << i;
      }
      // Ragged texts packed densely from lane 0; trailing lanes disabled.
      const size_t lanes = ops.lanes;
      const auto active =
          static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(lanes)));
      std::vector<std::string> texts_storage(active);
      std::vector<const uint8_t*> texts(lanes, nullptr);
      std::vector<uint64_t> lens(lanes, 0);
      size_t maxlen = 0;
      for (size_t l = 0; l < active; ++l) {
        const auto tl = static_cast<size_t>(rng.UniformInt(1, 90));
        for (size_t i = 0; i < tl; ++i) {
          texts_storage[l].push_back(
              static_cast<char>('a' + rng.UniformInt(0, 5)));
        }
        texts[l] = reinterpret_cast<const uint8_t*>(texts_storage[l].data());
        lens[l] = tl;
        maxlen = std::max(maxlen, tl);
      }
      std::vector<uint64_t> dists(lanes, ~uint64_t{0});
      ops.myers_batch(peq.data(), m, texts.data(), lens.data(), maxlen,
                      dists.data());
      for (size_t l = 0; l < active; ++l) {
        uint64_t expect = 0;
        const uint8_t* one_text[1] = {texts[l]};
        const uint64_t one_len[1] = {lens[l]};
        scalar.myers_batch(peq.data(), m, one_text, one_len, lens[l],
                           &expect);
        ASSERT_EQ(dists[l], expect)
            << SimdTierName(tier) << " lane " << l << " pattern " << pattern
            << " text " << texts_storage[l];
      }
    }
  }
}

// --- End-to-end tier sweep ------------------------------------------------

NameSimilarityOptions SweepOptions() {
  static const SynonymTable kTable = SynonymTable::Builtin();
  NameSimilarityOptions options;
  options.synonyms = &kTable;
  return options;
}

/// Adversarial + random name pool: empty strings, NUL bytes, >64-char
/// names (banded path), and >255-gram runs (augmented-key overflow → the
/// scalar-merge fallback inside the batched pipeline).
std::vector<std::string> SweepNames(Rng& rng) {
  std::vector<std::string> names = {
      "",
      std::string(1, '\0'),
      std::string("nul\0byte", 8),
      std::string(300, 'a'),  // gram run > 255: augmented keys overflow
      std::string(70, 'x'),
      "customer", "client", "purchase_order", "order_id",
  };
  for (int i = 0; i < 120; ++i) {
    const size_t max_len = i % 9 == 0 ? 90 : 22;
    const auto len =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(max_len)));
    std::string name;
    for (size_t c = 0; c < len; ++c) {
      const int64_t kind = rng.UniformInt(0, 9);
      if (kind < 7) {
        name.push_back(static_cast<char>('a' + rng.UniformInt(0, 25)));
      } else if (kind == 7) {
        name.push_back('_');
      } else if (kind == 8) {
        name.push_back(static_cast<char>('0' + rng.UniformInt(0, 9)));
      } else {
        name.push_back(static_cast<char>(0x80 + rng.UniformInt(0, 0x7F)));
      }
    }
    names.push_back(std::move(name));
  }
  return names;
}

TEST(SimdDispatchTest, ScoringBitIdenticalAcrossTiers) {
  const NameSimilarityOptions options = SweepOptions();
  Rng rng(606);
  const std::vector<std::string> raw = SweepNames(rng);
  std::vector<PreparedName> names;
  names.reserve(raw.size());
  for (const std::string& r : raw) names.push_back(PrepareName(r, options));
  std::vector<const PreparedName*> targets;
  for (const PreparedName& p : names) targets.push_back(&p);

  const std::vector<SimdTier> tiers = AvailableTiers();
  const double cutoffs[] = {0.0, 0.45, 0.7, 0.95};
  std::vector<CutoffScore> block(targets.size());
  std::vector<CutoffScore> scalar_block(targets.size());
  size_t pruned = 0;

  for (size_t qi = 0; qi < names.size(); qi += 3) {
    for (double min_score : cutoffs) {
      internal::OverrideSimdTierForTest(SimdTier::kScalar);
      BlockScorer(names[qi], options)
          .ScoreMany(targets, min_score, scalar_block.data());
      for (SimdTier tier : tiers) {
        internal::OverrideSimdTierForTest(tier);
        BlockScorer(names[qi], options)
            .ScoreMany(targets, min_score, block.data());
        for (size_t t = 0; t < targets.size(); ++t) {
          // The block pipeline must agree with the per-pair path and with
          // the scalar tier in every bit, including the exactness flag.
          const CutoffScore pair =
              ScoreWithCutoff(names[qi], names[t], options, min_score);
          ASSERT_EQ(block[t].score, pair.score)
              << SimdTierName(tier) << " q=" << qi << " t=" << t
              << " cutoff=" << min_score;
          ASSERT_EQ(block[t].exact, pair.exact)
              << SimdTierName(tier) << " q=" << qi << " t=" << t
              << " cutoff=" << min_score;
          ASSERT_EQ(block[t].score, scalar_block[t].score)
              << SimdTierName(tier) << " vs scalar, q=" << qi << " t=" << t;
          ASSERT_EQ(block[t].exact, scalar_block[t].exact)
              << SimdTierName(tier) << " vs scalar, q=" << qi << " t=" << t;
          if (!block[t].exact) ++pruned;
        }
      }
    }
  }
  internal::ClearSimdTierOverrideForTest();
  EXPECT_GT(pruned, 1000u);  // the cutoff paths must actually fire
}

TEST(SimdDispatchTest, CutoffAdmissibleOnEveryTier) {
  const NameSimilarityOptions options = SweepOptions();
  const std::vector<SimdTier> tiers = AvailableTiers();
  Rng rng(707);
  const std::vector<std::string> raw = SweepNames(rng);
  std::vector<PreparedName> names;
  for (const std::string& r : raw) names.push_back(PrepareName(r, options));

  for (SimdTier tier : tiers) {
    internal::OverrideSimdTierForTest(tier);
    Rng pick(808);
    size_t pruned = 0;
    for (int round = 0; round < 10000; ++round) {
      const PreparedName& a = names[static_cast<size_t>(
          pick.UniformInt(0, static_cast<int64_t>(names.size()) - 1))];
      const PreparedName& b = names[static_cast<size_t>(
          pick.UniformInt(0, static_cast<int64_t>(names.size()) - 1))];
      const double exact = internal::ScoreFoldedReference(
          a.folded, b.folded, &a.tokens, &b.tokens, options);
      const double min_score = pick.UniformDouble();
      const CutoffScore result = ScoreWithCutoff(a, b, options, min_score);
      if (result.exact) {
        ASSERT_EQ(result.score, exact) << SimdTierName(tier);
      } else {
        ++pruned;
        // Pruning may never hide a reachable score, and the reported value
        // is an admissible upper bound strictly below the cutoff.
        ASSERT_LT(exact, min_score) << SimdTierName(tier);
        ASSERT_GE(result.score, exact - 1e-12) << SimdTierName(tier);
        ASSERT_LT(result.score, min_score) << SimdTierName(tier);
      }
    }
    EXPECT_GT(pruned, 1000u) << SimdTierName(tier);
  }
  internal::ClearSimdTierOverrideForTest();
}

}  // namespace
}  // namespace smb::sim
