#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/batch_match_engine.h"
#include "index/candidate_generator.h"
#include "index/prepared_repository.h"
#include "match/matcher_factory.h"
#include "synth/generator.h"

/// Bound-driven adaptive candidate generation
/// (`index::AdaptiveCandidatePolicy` / `GenerateAdaptive`).
///
/// The two load-bearing properties:
///  * **certificate admissibility** — a cell certified complete at Δ can
///    never change an answer, so for every schema whose cells are *all*
///    certified the sparse answers equal the dense answers exactly;
///  * **target 1.0 ⇒ dense** — demanding every cell be certified (with an
///    unbounded cap) reproduces the dense answers byte-identically for
///    every matcher and thread count.
/// Plus: escalation rounds, which reuse the costs of a cell's current
/// entries, give exactly what scoring every round from scratch gives (a
/// replay of the rounds through `Generate` is the oracle); target 0.0
/// degenerates to `Generate(initial_limit)` bit-exactly, budget accounting
/// is consistent, and policy validation rejects malformed inputs.

namespace smb::index {
namespace {

struct AdaptiveSetup {
  schema::Schema query;
  schema::SchemaRepository repo;
  match::MatchOptions options;
};

AdaptiveSetup MakeSetup(size_t num_schemas, uint64_t seed,
                        double delta = 0.25) {
  Rng rng(seed);
  synth::SynthOptions sopts;
  sopts.num_schemas = num_schemas;
  auto collection = synth::GenerateProblem(4, sopts, &rng).value();
  AdaptiveSetup setup;
  setup.query = std::move(collection.query);
  setup.repo = std::move(collection.repository);
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  setup.options.delta_threshold = delta;
  setup.options.objective.name.synonyms = &kTable;
  return setup;
}

void ExpectIdentical(const match::AnswerSet& sparse,
                     const match::AnswerSet& dense, const std::string& label) {
  ASSERT_EQ(sparse.size(), dense.size()) << label;
  for (size_t i = 0; i < sparse.size(); ++i) {
    EXPECT_EQ(sparse.mappings()[i].key(), dense.mappings()[i].key())
        << label << " rank " << i;
    EXPECT_EQ(sparse.mappings()[i].delta, dense.mappings()[i].delta)
        << label << " rank " << i;
  }
}

class AdaptiveEquivalenceTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(AdaptiveEquivalenceTest, TargetOneReproducesDenseAnyThreadCount) {
  AdaptiveSetup setup = MakeSetup(25, 41);
  auto matcher = match::MakeMatcher(GetParam(), setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();

  auto dense = (*matcher)->Match(setup.query, setup.repo, setup.options);
  ASSERT_TRUE(dense.ok()) << dense.status();

  auto prepared =
      PreparedRepository::Build(setup.repo, setup.options.objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  for (size_t threads : {1u, 3u}) {
    engine::BatchMatchOptions bopts;
    bopts.num_threads = threads;
    bopts.prepared_repository = &*prepared;
    AdaptiveCandidatePolicy policy;
    policy.min_provable_completeness = 1.0;
    bopts.adaptive = policy;
    engine::BatchMatchEngine engine(bopts);
    engine::BatchMatchStats stats;
    auto sparse =
        engine.Run(**matcher, setup.query, setup.repo, setup.options, &stats);
    ASSERT_TRUE(sparse.ok()) << sparse.status();
    ExpectIdentical(*sparse, *dense,
                    std::string(GetParam()) + " threads=" +
                        std::to_string(threads));
    EXPECT_TRUE(stats.adaptive_mode);
    EXPECT_EQ(stats.provably_complete_fraction, 1.0);
    EXPECT_EQ(stats.adaptive.achieved_completeness, 1.0);
    EXPECT_EQ(stats.adaptive.cells_certified, stats.adaptive.cells_total);
    EXPECT_EQ(stats.adaptive.cells_at_cap, 0u);
  }
}

TEST_P(AdaptiveEquivalenceTest, TargetOneTightDeltaReproducesDense) {
  // The tight-Δ regime certifies most cells analytically (without full
  // coverage) — the interesting case for byte-identity: certified-but-
  // incomplete candidate lists must still never change an answer.
  AdaptiveSetup setup = MakeSetup(20, 42, /*delta=*/0.02);
  auto matcher = match::MakeMatcher(GetParam(), setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();

  auto dense = (*matcher)->Match(setup.query, setup.repo, setup.options);
  ASSERT_TRUE(dense.ok()) << dense.status();

  engine::BatchMatchOptions bopts;
  bopts.num_threads = 2;
  AdaptiveCandidatePolicy policy;
  policy.min_provable_completeness = 1.0;
  bopts.adaptive = policy;
  engine::BatchMatchEngine engine(bopts);
  engine::BatchMatchStats stats;
  auto sparse =
      engine.Run(**matcher, setup.query, setup.repo, setup.options, &stats);
  ASSERT_TRUE(sparse.ok()) << sparse.status();
  ExpectIdentical(*sparse, *dense, GetParam());
  // At Δ = 0.02 certification happens through the analytic bound tiers:
  // the candidate lists must NOT all be complete, or this test degenerated
  // into the full-coverage case.
  EXPECT_GT(stats.match.candidates_skipped, 0u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Matchers, AdaptiveEquivalenceTest,
                         ::testing::Values("exhaustive", "beam", "topk"));

TEST(AdaptiveCandidateTest, CertifiedSchemasKeepDenseAnswersExactly) {
  // The admissibility property behind the certificate: for every schema
  // whose every cell is certified at the run's Δ, the sparse answer set
  // restricted to that schema must equal the dense one exactly — across
  // seeds and thresholds, at a partial (0 < B < 1) target.
  for (uint64_t seed : {51u, 52u, 53u}) {
    for (double delta : {0.02, 0.03}) {
      AdaptiveSetup setup = MakeSetup(20, seed, delta);
      auto matcher = match::MakeMatcher("exhaustive", setup.repo).value();
      auto dense = matcher->Match(setup.query, setup.repo, setup.options);
      ASSERT_TRUE(dense.ok()) << dense.status();

      auto prepared =
          PreparedRepository::Build(setup.repo, setup.options.objective.name);
      ASSERT_TRUE(prepared.ok()) << prepared.status();
      CandidateGenerator generator(&*prepared, setup.options.objective);
      AdaptiveCandidatePolicy policy;
      policy.min_provable_completeness = 0.8;
      AdaptiveGenerationStats stats;
      auto candidates =
          generator.GenerateAdaptive(setup.query, policy, delta, &stats);
      ASSERT_TRUE(candidates.ok()) << candidates.status();
      EXPECT_GE(stats.achieved_completeness, 0.8);

      match::MatchOptions sparse_options = setup.options;
      sparse_options.candidates = &*candidates;
      auto sparse = matcher->Match(setup.query, setup.repo, sparse_options);
      ASSERT_TRUE(sparse.ok()) << sparse.status();

      for (size_t si = 0; si < setup.repo.schema_count(); ++si) {
        bool all_certified = true;
        for (size_t pos = 0; pos < candidates->positions(); ++pos) {
          if (!candidates->CellProvablyComplete(
                  pos, static_cast<int32_t>(si), delta)) {
            all_certified = false;
            break;
          }
        }
        if (!all_certified) continue;
        match::AnswerSet dense_schema, sparse_schema;
        for (const match::Mapping& m : dense->mappings()) {
          if (m.schema_index == static_cast<int32_t>(si)) {
            dense_schema.Add(m);
          }
        }
        for (const match::Mapping& m : sparse->mappings()) {
          if (m.schema_index == static_cast<int32_t>(si)) {
            sparse_schema.Add(m);
          }
        }
        dense_schema.Finalize();
        sparse_schema.Finalize();
        ExpectIdentical(sparse_schema, dense_schema,
                        "seed " + std::to_string(seed) + " delta " +
                            std::to_string(delta) + " schema " +
                            std::to_string(si));
      }
    }
  }
}

/// Strong hits of every (position, schema) cell: repository elements that
/// share a token or token synonym group with the query node, or whose
/// folded name or whole-name synonym group equals its.
std::vector<size_t> StrongHitCounts(const PreparedRepository& prepared,
                                    const schema::Schema& query,
                                    const match::ObjectiveOptions& objective) {
  const size_t schema_count = prepared.repo().schema_count();
  const std::vector<schema::NodeId> preorder = query.PreOrder();
  std::vector<size_t> counts(preorder.size() * schema_count, 0);
  std::vector<uint8_t> strong(prepared.element_count());
  std::vector<std::pair<uint32_t, int32_t>> tokens;
  for (size_t pos = 0; pos < preorder.size(); ++pos) {
    std::fill(strong.begin(), strong.end(), 0);
    const sim::PreparedName name = sim::PrepareName(
        query.node(preorder[pos]).name, objective.name,
        prepared.token_table());
    auto mark = [&](const std::vector<uint32_t>* postings) {
      if (postings == nullptr) return;
      for (uint32_t ordinal : *postings) strong[ordinal] = 1;
    };
    AppendUniqueTokenGroupPairs(name, &tokens);
    for (const auto& [token_id, group] : tokens) {
      for (uint32_t ordinal : prepared.TokenPostings(token_id)) {
        strong[ordinal] = 1;
      }
      if (group >= 0) mark(prepared.TokenGroupPostings(group));
    }
    mark(prepared.NameBucket(name.folded));
    if (name.name_group >= 0) mark(prepared.NameGroupBucket(name.name_group));
    for (uint32_t ordinal = 0; ordinal < strong.size(); ++ordinal) {
      if (strong[ordinal] != 0) {
        ++counts[pos * schema_count +
                 static_cast<size_t>(prepared.element(ordinal).schema_index)];
      }
    }
  }
  return counts;
}

/// \brief The serial escalation loop of `GenerateAdaptive`, replayed with
/// every cell taken from a from-scratch `Generate(query, L)` at the limit L
/// the loop asks for. Uses the same certification, target and cap rules;
/// a cell scored at L considers all its strong hits and then enough other
/// elements to reach min(L, |schema|), which gives the budget.
struct Replay {
  /// The `Generate` run each cell's final entries come from, by limit.
  std::map<size_t, QueryCandidates> by_limit;
  std::vector<size_t> limits;
  AdaptiveGenerationStats stats;
};

Replay ReplayFromScratch(const CandidateGenerator& generator,
                         const PreparedRepository& prepared,
                         const schema::Schema& query,
                         const match::ObjectiveOptions& objective,
                         const AdaptiveCandidatePolicy& policy,
                         double delta) {
  const schema::SchemaRepository& repo = prepared.repo();
  const size_t schema_count = repo.schema_count();
  const size_t total = query.PreOrder().size() * schema_count;
  const std::vector<size_t> strong =
      StrongHitCounts(prepared, query, objective);

  Replay replay;
  auto cells_at = [&](size_t limit) -> const QueryCandidates& {
    auto it = replay.by_limit.find(limit);
    if (it == replay.by_limit.end()) {
      it = replay.by_limit
               .emplace(limit, generator.Generate(query, limit).value())
               .first;
    }
    return it->second;
  };
  auto schema_size = [&](size_t c) {
    return repo.schema(static_cast<int32_t>(c % schema_count)).size();
  };
  auto cap = [&](size_t c) {
    return policy.max_limit > 0 ? std::min(policy.max_limit, schema_size(c))
                                : schema_size(c);
  };
  std::vector<uint8_t> certified(total, 0);
  std::vector<uint8_t> escalated(total, 0);
  size_t certified_count = 0;
  auto score = [&](size_t c, size_t limit) {
    replay.limits[c] = limit;
    replay.stats.budget_spent +=
        std::max(strong[c], std::min(limit, schema_size(c)));
    if (cells_at(limit).CellProvablyComplete(
            c / schema_count, static_cast<int32_t>(c % schema_count), delta)) {
      certified[c] = 1;
      ++certified_count;
    }
  };
  auto target_met = [&] {
    return static_cast<double>(certified_count) / static_cast<double>(total) +
               1e-12 >=
           policy.min_provable_completeness;
  };

  replay.limits.assign(total, 0);
  for (size_t c = 0; c < total; ++c) score(c, policy.initial_limit);
  while (!target_met()) {
    bool any = false;
    for (size_t c = 0; c < total && !target_met(); ++c) {
      if (certified[c] != 0 || replay.limits[c] >= cap(c)) continue;
      score(c, std::min(cap(c), replay.limits[c] * policy.growth_factor));
      escalated[c] = 1;
      any = true;
    }
    if (!any) break;
    ++replay.stats.rounds;
  }
  replay.stats.cells_total = total;
  replay.stats.cells_certified = certified_count;
  for (uint8_t e : escalated) replay.stats.cells_escalated += e;
  return replay;
}

TEST(AdaptiveCandidateTest, EscalationMatchesFromScratchReplay) {
  // Escalated cells reuse their entries' costs; the lists, bounds,
  // certificates and budget must be exactly those of scoring each round
  // from scratch, whatever the target, Δ, traversal or thread count.
  size_t configs_with_rounds = 0;
  for (double delta : {0.02, 0.25}) {
    AdaptiveSetup setup = MakeSetup(30, 111, delta);
    const match::ObjectiveOptions& objective = setup.options.objective;
    auto prepared = PreparedRepository::Build(setup.repo, objective.name);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    for (bool block_max : {true, false}) {
      CandidateGenerator scratch(&*prepared, objective);
      scratch.set_block_max_enabled(block_max);
      for (double target : {0.5, 0.9, 1.0}) {
        AdaptiveCandidatePolicy policy;
        policy.min_provable_completeness = target;
        policy.initial_limit = 2;
        const Replay replay = ReplayFromScratch(
            scratch, *prepared, setup.query, objective, policy, delta);
        if (replay.stats.rounds >= 2) ++configs_with_rounds;
        for (size_t threads : {1u, 3u}) {
          const std::string label =
              "delta=" + std::to_string(delta) +
              " block_max=" + std::to_string(block_max) +
              " target=" + std::to_string(target) +
              " threads=" + std::to_string(threads);
          CandidateGenerator generator(&*prepared, objective);
          generator.set_block_max_enabled(block_max);
          generator.set_num_threads(threads);
          AdaptiveGenerationStats stats;
          auto adaptive =
              generator.GenerateAdaptive(setup.query, policy, delta, &stats);
          ASSERT_TRUE(adaptive.ok()) << adaptive.status();

          EXPECT_EQ(stats.rounds, replay.stats.rounds) << label;
          EXPECT_EQ(stats.cells_escalated, replay.stats.cells_escalated)
              << label;
          EXPECT_EQ(stats.cells_certified, replay.stats.cells_certified)
              << label;
          EXPECT_EQ(stats.budget_spent, replay.stats.budget_spent) << label;
          EXPECT_LE(stats.costs_computed, stats.budget_spent) << label;
          for (size_t pos = 0; pos < adaptive->positions(); ++pos) {
            for (size_t si = 0; si < adaptive->schema_count(); ++si) {
              const auto schema_index = static_cast<int32_t>(si);
              const QueryCandidates& expected = replay.by_limit.at(
                  replay.limits[pos * adaptive->schema_count() + si]);
              const std::string cell = label + " cell (" +
                                       std::to_string(pos) + ", " +
                                       std::to_string(si) + ")";
              EXPECT_EQ(adaptive->SkipLowerBound(pos, schema_index),
                        expected.SkipLowerBound(pos, schema_index))
                  << cell;
              const auto& a = *adaptive->CandidatesFor(pos, schema_index);
              const auto& e = *expected.CandidatesFor(pos, schema_index);
              ASSERT_EQ(a.size(), e.size()) << cell;
              for (size_t i = 0; i < e.size(); ++i) {
                EXPECT_EQ(a[i].node, e[i].node) << cell << " rank " << i;
                EXPECT_EQ(a[i].cost, e[i].cost) << cell << " rank " << i;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(configs_with_rounds, 0u)
      << "no configuration escalated over two rounds";
}

TEST(AdaptiveCandidateTest, TargetZeroMatchesFixedGenerateBitExactly) {
  AdaptiveSetup setup = MakeSetup(15, 61);
  auto prepared =
      PreparedRepository::Build(setup.repo, setup.options.objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  CandidateGenerator generator(&*prepared, setup.options.objective);

  AdaptiveCandidatePolicy policy;
  policy.min_provable_completeness = 0.0;
  policy.initial_limit = 4;
  AdaptiveGenerationStats stats;
  auto adaptive = generator.GenerateAdaptive(
      setup.query, policy, setup.options.delta_threshold, &stats);
  ASSERT_TRUE(adaptive.ok()) << adaptive.status();
  auto fixed = generator.Generate(setup.query, 4);
  ASSERT_TRUE(fixed.ok()) << fixed.status();

  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(stats.cells_escalated, 0u);
  EXPECT_EQ(adaptive->candidates_generated(), fixed->candidates_generated());
  EXPECT_EQ(adaptive->candidates_skipped(), fixed->candidates_skipped());
  ASSERT_EQ(adaptive->positions(), fixed->positions());
  ASSERT_EQ(adaptive->schema_count(), fixed->schema_count());
  for (size_t pos = 0; pos < fixed->positions(); ++pos) {
    for (size_t si = 0; si < fixed->schema_count(); ++si) {
      const auto schema_index = static_cast<int32_t>(si);
      EXPECT_EQ(adaptive->SkipLowerBound(pos, schema_index),
                fixed->SkipLowerBound(pos, schema_index));
      const auto* a = adaptive->CandidatesFor(pos, schema_index);
      const auto* f = fixed->CandidatesFor(pos, schema_index);
      ASSERT_EQ(a->size(), f->size());
      for (size_t i = 0; i < f->size(); ++i) {
        EXPECT_EQ((*a)[i].node, (*f)[i].node);
        EXPECT_EQ((*a)[i].cost, (*f)[i].cost);
      }
    }
  }
}

TEST(AdaptiveCandidateTest, BudgetAccountingIsConsistent) {
  AdaptiveSetup setup = MakeSetup(20, 71, /*delta=*/0.02);
  auto prepared =
      PreparedRepository::Build(setup.repo, setup.options.objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  CandidateGenerator generator(&*prepared, setup.options.objective);

  AdaptiveCandidatePolicy policy;
  policy.min_provable_completeness = 1.0;
  AdaptiveGenerationStats stats;
  auto candidates = generator.GenerateAdaptive(setup.query, policy, 0.02,
                                               &stats);
  ASSERT_TRUE(candidates.ok()) << candidates.status();

  EXPECT_EQ(stats.cells_total,
            candidates->positions() * candidates->schema_count());
  EXPECT_EQ(stats.achieved_completeness,
            candidates->ProvablyCompleteFraction(0.02));
  // Budget counts every scored candidate including escalation re-scoring,
  // so it can never undercut the entries that ended up in the lists.
  EXPECT_GE(stats.budget_spent, candidates->candidates_generated());
  uint64_t distributed = 0;
  for (const auto& [limit, count] : stats.final_limit_distribution) {
    EXPECT_GE(limit, policy.initial_limit);
    distributed += count;
  }
  EXPECT_EQ(distributed, stats.cells_total);

  // A laxer target can only spend less (or equal) budget.
  AdaptiveCandidatePolicy lax = policy;
  lax.min_provable_completeness = 0.5;
  AdaptiveGenerationStats lax_stats;
  ASSERT_TRUE(
      generator.GenerateAdaptive(setup.query, lax, 0.02, &lax_stats).ok());
  EXPECT_LE(lax_stats.budget_spent, stats.budget_spent);
}

TEST(AdaptiveCandidateTest, CapLimitsGrowthAndIsReported) {
  AdaptiveSetup setup = MakeSetup(20, 81);  // Δ=0.25: needs full coverage
  auto prepared =
      PreparedRepository::Build(setup.repo, setup.options.objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  CandidateGenerator generator(&*prepared, setup.options.objective);

  AdaptiveCandidatePolicy policy;
  policy.min_provable_completeness = 1.0;
  policy.initial_limit = 2;
  policy.max_limit = 4;  // far below every schema size
  AdaptiveGenerationStats stats;
  auto candidates = generator.GenerateAdaptive(
      setup.query, policy, setup.options.delta_threshold, &stats);
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  // At Δ=0.25 certification needs full coverage, which the cap forbids:
  // the target is unreachable, generation still succeeds and reports the
  // capped cells honestly.
  EXPECT_LT(stats.achieved_completeness, 1.0);
  EXPECT_GT(stats.cells_at_cap, 0u);
  EXPECT_LE(candidates->limit(), 4u);
}

TEST(AdaptiveCandidateTest, RejectsMalformedPolicies) {
  AdaptiveSetup setup = MakeSetup(5, 91);
  auto prepared =
      PreparedRepository::Build(setup.repo, setup.options.objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  CandidateGenerator generator(&*prepared, setup.options.objective);

  AdaptiveCandidatePolicy policy;
  policy.min_provable_completeness = 1.5;
  EXPECT_FALSE(generator.GenerateAdaptive(setup.query, policy, 0.25).ok());
  policy.min_provable_completeness = -0.1;
  EXPECT_FALSE(generator.GenerateAdaptive(setup.query, policy, 0.25).ok());
  policy = AdaptiveCandidatePolicy{};
  policy.initial_limit = 0;
  EXPECT_FALSE(generator.GenerateAdaptive(setup.query, policy, 0.25).ok());
  policy = AdaptiveCandidatePolicy{};
  policy.growth_factor = 1;
  EXPECT_FALSE(generator.GenerateAdaptive(setup.query, policy, 0.25).ok());
  policy = AdaptiveCandidatePolicy{};
  policy.initial_limit = 8;
  policy.max_limit = 4;
  EXPECT_FALSE(generator.GenerateAdaptive(setup.query, policy, 0.25).ok());
}

TEST(AdaptiveEngineTest, PerShardBudgetsSumToTotalAndStatsPropagate) {
  AdaptiveSetup setup = MakeSetup(24, 101, /*delta=*/0.02);
  auto matcher = match::MakeMatcher("exhaustive", setup.repo).value();
  engine::BatchMatchOptions bopts;
  bopts.num_threads = 2;
  bopts.shard_size = 5;
  AdaptiveCandidatePolicy policy;
  policy.min_provable_completeness = 0.9;
  bopts.adaptive = policy;
  engine::BatchMatchEngine engine(bopts);
  engine::BatchMatchStats stats;
  auto run =
      engine.Run(*matcher, setup.query, setup.repo, setup.options, &stats);
  ASSERT_TRUE(run.ok()) << run.status();

  EXPECT_TRUE(stats.adaptive_mode);
  EXPECT_GE(stats.provably_complete_fraction, 0.9);
  EXPECT_EQ(stats.provably_complete_fraction,
            stats.adaptive.achieved_completeness);
  ASSERT_EQ(stats.shard_candidates_generated.size(), stats.shard_count);
  uint64_t shard_sum = 0;
  for (uint64_t c : stats.shard_candidates_generated) shard_sum += c;
  EXPECT_EQ(shard_sum, stats.match.candidates_generated);
}

}  // namespace
}  // namespace smb::index
