#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "engine/batch_match_engine.h"
#include "index/candidate_generator.h"
#include "index/name_row_cache.h"
#include "index/prepared_repository.h"
#include "match/matcher_factory.h"
#include "synth/generator.h"
#include "../testing/fixtures.h"

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
/// replay of the rounds through `Generate` is the oracle); where only full
/// coverage can certify, the rounds planned from schema sizes and scored
/// once give the same lists and stats as that replay; target 0.0
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

      match::ObjectiveFunction sparse_objective(
          &setup.query, &setup.repo, setup.options.objective, &*candidates);
      auto sparse = smb::testing::MatchWithObjective(
          *matcher, sparse_objective, setup.options);
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

/// `Generate(query, L)` runs by limit L. A run depends only on the
/// generator's settings and L, so one cache serves every policy and Δ.
using GenerateCache = std::map<size_t, QueryCandidates>;

/// \brief The serial escalation loop of `GenerateAdaptive`, replayed with
/// every cell taken from a from-scratch `Generate(query, L)` at the limit L
/// the loop asks for. Uses the same certification, target and cap rules;
/// a cell scored at L considers all its strong hits and then enough other
/// elements to reach min(L, |schema|), which gives the budget.
struct Replay {
  /// Each cell's final limit; its entries come from `Generate` at it.
  std::vector<size_t> limits;
  /// Every `AdaptiveGenerationStats` field the loop defines, with
  /// `budget_spent` summed over all rounds; `costs_computed` and
  /// `speculative_scored` stay 0.
  AdaptiveGenerationStats stats;
  /// Σ over cells of the scoring set at the cell's final limit: what one
  /// pass over the final limits considers.
  uint64_t final_scoring_sets = 0;
};

Replay ReplayFromScratch(const CandidateGenerator& generator,
                         const PreparedRepository& prepared,
                         const schema::Schema& query,
                         const match::ObjectiveOptions& objective,
                         const AdaptiveCandidatePolicy& policy, double delta,
                         GenerateCache* by_limit) {
  const schema::SchemaRepository& repo = prepared.repo();
  const size_t schema_count = repo.schema_count();
  const size_t total = query.PreOrder().size() * schema_count;
  const std::vector<size_t> strong =
      StrongHitCounts(prepared, query, objective);

  Replay replay;
  auto cells_at = [&](size_t limit) -> const QueryCandidates& {
    auto it = by_limit->find(limit);
    if (it == by_limit->end()) {
      it = by_limit->emplace(limit, generator.Generate(query, limit).value())
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
  auto scoring_set = [&](size_t c, size_t limit) {
    return std::max(strong[c], std::min(limit, schema_size(c)));
  };
  std::vector<uint8_t> certified(total, 0);
  std::vector<uint8_t> escalated(total, 0);
  size_t certified_count = 0;
  auto score = [&](size_t c, size_t limit) {
    replay.limits[c] = limit;
    replay.stats.budget_spent += scoring_set(c, limit);
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
  replay.stats.achieved_completeness =
      static_cast<double>(certified_count) / static_cast<double>(total);
  std::map<size_t, uint64_t> distribution;
  for (size_t c = 0; c < total; ++c) {
    replay.stats.cells_escalated += escalated[c];
    if (certified[c] == 0 && replay.limits[c] >= cap(c)) {
      ++replay.stats.cells_at_cap;
    }
    ++distribution[replay.limits[c]];
    replay.final_scoring_sets += scoring_set(c, replay.limits[c]);
  }
  replay.stats.final_limit_distribution.assign(distribution.begin(),
                                               distribution.end());
  return replay;
}

/// Checks a `GenerateAdaptive` run against its replay: every stats field
/// except the two work counters, and every cell's entries (bit-equal
/// costs) and skip-bound against `Generate` at the cell's final limit.
/// Also checks that every finite skip-bound is at most 1. Reports the
/// first mismatching cell only.
void ExpectMatchesReplay(const QueryCandidates& adaptive,
                         const AdaptiveGenerationStats& stats,
                         const Replay& replay, const GenerateCache& by_limit,
                         const std::string& label) {
  EXPECT_EQ(stats.rounds, replay.stats.rounds) << label;
  EXPECT_EQ(stats.cells_total, replay.stats.cells_total) << label;
  EXPECT_EQ(stats.cells_certified, replay.stats.cells_certified) << label;
  EXPECT_EQ(stats.cells_escalated, replay.stats.cells_escalated) << label;
  EXPECT_EQ(stats.cells_at_cap, replay.stats.cells_at_cap) << label;
  EXPECT_EQ(stats.achieved_completeness, replay.stats.achieved_completeness)
      << label;
  EXPECT_EQ(stats.final_limit_distribution,
            replay.stats.final_limit_distribution)
      << label;
  EXPECT_EQ(adaptive.limit(),
            *std::max_element(replay.limits.begin(), replay.limits.end()))
      << label;
  EXPECT_LE(stats.costs_computed, stats.budget_spent) << label;
  for (size_t pos = 0; pos < adaptive.positions(); ++pos) {
    for (size_t si = 0; si < adaptive.schema_count(); ++si) {
      const auto schema_index = static_cast<int32_t>(si);
      const QueryCandidates& expected =
          by_limit.at(replay.limits[pos * adaptive.schema_count() + si]);
      const std::string cell = label + " cell (" + std::to_string(pos) +
                               ", " + std::to_string(si) + ")";
      const double bound = adaptive.SkipLowerBound(pos, schema_index);
      if (bound != expected.SkipLowerBound(pos, schema_index) ||
          (std::isfinite(bound) && bound > 1.0)) {
        ADD_FAILURE() << cell << " skip-bound " << bound << " expected "
                      << expected.SkipLowerBound(pos, schema_index);
        return;
      }
      const auto& a = *adaptive.CandidatesFor(pos, schema_index);
      const auto& e = *expected.CandidatesFor(pos, schema_index);
      bool same = a.size() == e.size();
      for (size_t i = 0; same && i < e.size(); ++i) {
        same = a[i].node == e[i].node && a[i].cost == e[i].cost;
      }
      if (!same) {
        ADD_FAILURE() << cell << " entries differ from Generate("
                      << replay.limits[pos * adaptive.schema_count() + si]
                      << ")";
        return;
      }
    }
  }
}

/// The Δ-unit bound of a skip-bound of 1.0 — the largest finite one —
/// for an m-position query (`QueryCandidates::CellDeltaBound`'s formula).
double CeilingDeltaBound(const match::ObjectiveOptions& objective, size_t m) {
  double normalizer = objective.weight_name * static_cast<double>(m);
  normalizer += objective.weight_structure * static_cast<double>(m - 1);
  return objective.weight_name * 1.0 / normalizer;
}

/// True when no finite skip-bound can certify a cell at `delta`, so a cell
/// certifies exactly when its list covers its schema.
bool OnlyFullCoverageCertifies(const match::ObjectiveOptions& objective,
                               size_t m, double delta) {
  return !(CeilingDeltaBound(objective, m) > delta + 1e-9);
}

TEST(AdaptiveCandidateTest, EscalationMatchesFromScratchReplay) {
  // Escalated cells reuse their entries' costs; the lists, bounds,
  // certificates and budget must be exactly those of scoring each round
  // from scratch, whatever the target, Δ, traversal or thread count. At
  // Δ = 0.25 only full coverage certifies, so generation plans the rounds
  // and scores each cell once: its budget is the final pass alone.
  size_t configs_with_rounds = 0;
  for (double delta : {0.02, 0.25}) {
    AdaptiveSetup setup = MakeSetup(30, 111, delta);
    const match::ObjectiveOptions& objective = setup.options.objective;
    const bool planned = OnlyFullCoverageCertifies(
        objective, setup.query.PreOrder().size(), delta);
    EXPECT_EQ(planned, delta == 0.25);
    auto prepared = PreparedRepository::Build(setup.repo, objective.name);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    for (bool block_max : {true, false}) {
      CandidateGenerator scratch(&*prepared, objective);
      scratch.set_block_max_enabled(block_max);
      GenerateCache by_limit;
      for (double target : {0.5, 0.9, 1.0}) {
        AdaptiveCandidatePolicy policy;
        policy.min_provable_completeness = target;
        policy.initial_limit = 2;
        const Replay replay = ReplayFromScratch(
            scratch, *prepared, setup.query, objective, policy, delta,
            &by_limit);
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
          ExpectMatchesReplay(*adaptive, stats, replay, by_limit, label);
          if (planned) {
            EXPECT_EQ(stats.budget_spent, replay.final_scoring_sets) << label;
          } else {
            EXPECT_EQ(stats.budget_spent, replay.stats.budget_spent) << label;
          }
        }
      }
    }
  }
  EXPECT_GT(configs_with_rounds, 0u)
      << "no configuration escalated over two rounds";
}

TEST(AdaptiveCandidateTest, PlannedRoundsMatchRoundByRoundReplay) {
  // Property test of the planned path against the round-by-round replay,
  // over seeds × Δ × target × initial limit × growth × cap × traversal ×
  // threads. With m = 4 the ceiling is 0.6 / 3.6 ≈ 0.167: Δ 0.25 and 0.4
  // are planned; at Δ 0.1 only the truncation tier (exact costs up to 1)
  // can certify and at 0.02 every tier can, so both run the round loop.
  size_t planned_configs = 0;
  size_t round_loop_configs = 0;
  size_t planned_with_rounds = 0;
  for (uint64_t seed : {211u, 212u}) {
    AdaptiveSetup setup = MakeSetup(12, seed);
    const match::ObjectiveOptions& objective = setup.options.objective;
    const size_t m = setup.query.PreOrder().size();
    auto prepared = PreparedRepository::Build(setup.repo, objective.name);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    for (bool block_max : {true, false}) {
      CandidateGenerator scratch(&*prepared, objective);
      scratch.set_block_max_enabled(block_max);
      GenerateCache by_limit;
      for (double delta : {0.02, 0.1, 0.25, 0.4}) {
        const bool planned = OnlyFullCoverageCertifies(objective, m, delta);
        for (double target : {0.0, 0.5, 0.9, 1.0}) {
          for (size_t initial : {1u, 2u, 4u}) {
            for (size_t growth : {2u, 3u}) {
              for (size_t cap : {0u, 5u}) {
                AdaptiveCandidatePolicy policy;
                policy.min_provable_completeness = target;
                policy.initial_limit = initial;
                policy.growth_factor = growth;
                policy.max_limit = cap;
                const Replay replay =
                    ReplayFromScratch(scratch, *prepared, setup.query,
                                      objective, policy, delta, &by_limit);
                ++(planned ? planned_configs : round_loop_configs);
                if (planned && replay.stats.rounds >= 2) {
                  ++planned_with_rounds;
                }
                for (size_t threads : {1u, 3u}) {
                  const std::string label =
                      "seed=" + std::to_string(seed) +
                      " block_max=" + std::to_string(block_max) +
                      " delta=" + std::to_string(delta) +
                      " target=" + std::to_string(target) +
                      " initial=" + std::to_string(initial) +
                      " growth=" + std::to_string(growth) +
                      " cap=" + std::to_string(cap) +
                      " threads=" + std::to_string(threads);
                  CandidateGenerator generator(&*prepared, objective);
                  generator.set_block_max_enabled(block_max);
                  generator.set_num_threads(threads);
                  AdaptiveGenerationStats stats;
                  auto adaptive = generator.GenerateAdaptive(
                      setup.query, policy, delta, &stats);
                  ASSERT_TRUE(adaptive.ok()) << adaptive.status();
                  ExpectMatchesReplay(*adaptive, stats, replay, by_limit,
                                      label);
                  if (planned) {
                    EXPECT_EQ(stats.budget_spent, replay.final_scoring_sets)
                        << label;
                    EXPECT_EQ(stats.costs_computed, stats.budget_spent)
                        << label;
                    EXPECT_EQ(stats.speculative_scored, 0u) << label;
                  } else {
                    EXPECT_EQ(stats.budget_spent, replay.stats.budget_spent)
                        << label;
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(planned_configs, 0u);
  EXPECT_GT(round_loop_configs, 0u);
  EXPECT_GT(planned_with_rounds, 0u)
      << "no planned configuration escalated over two rounds";
}

TEST(AdaptiveCandidateTest, RegimeSwitchesOneStepFromTheCeiling) {
  // The two Δ values one `nextafter` step apart around the point where a
  // skip-bound of 1.0 stops certifying: at the upper one only full
  // coverage certifies (one scoring pass), at the lower one the round
  // loop runs and pays every round. Both must reproduce the replay.
  AdaptiveSetup setup = MakeSetup(12, 221);
  const match::ObjectiveOptions& objective = setup.options.objective;
  const size_t m = setup.query.PreOrder().size();
  const double ceiling = CeilingDeltaBound(objective, m);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double planned_delta = ceiling - 1e-9;
  while (ceiling > planned_delta + 1e-9) {
    planned_delta = std::nextafter(planned_delta, kInf);
  }
  while (!(ceiling > std::nextafter(planned_delta, -kInf) + 1e-9)) {
    planned_delta = std::nextafter(planned_delta, -kInf);
  }
  const double round_delta = std::nextafter(planned_delta, -kInf);
  ASSERT_TRUE(OnlyFullCoverageCertifies(objective, m, planned_delta));
  ASSERT_FALSE(OnlyFullCoverageCertifies(objective, m, round_delta));

  auto prepared = PreparedRepository::Build(setup.repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  AdaptiveCandidatePolicy policy;
  policy.min_provable_completeness = 1.0;
  policy.initial_limit = 2;
  for (bool block_max : {true, false}) {
    CandidateGenerator scratch(&*prepared, objective);
    scratch.set_block_max_enabled(block_max);
    GenerateCache by_limit;
    for (double delta : {planned_delta, round_delta}) {
      const bool planned = delta == planned_delta;
      const Replay replay = ReplayFromScratch(
          scratch, *prepared, setup.query, objective, policy, delta,
          &by_limit);
      ASSERT_GE(replay.stats.rounds, 2u);
      ASSERT_LT(replay.final_scoring_sets, replay.stats.budget_spent);
      for (size_t threads : {1u, 3u}) {
        const std::string label =
            std::string(planned ? "planned" : "round loop") +
            " block_max=" + std::to_string(block_max) +
            " threads=" + std::to_string(threads);
        CandidateGenerator generator(&*prepared, objective);
        generator.set_block_max_enabled(block_max);
        generator.set_num_threads(threads);
        AdaptiveGenerationStats stats;
        auto adaptive =
            generator.GenerateAdaptive(setup.query, policy, delta, &stats);
        ASSERT_TRUE(adaptive.ok()) << adaptive.status();
        ExpectMatchesReplay(*adaptive, stats, replay, by_limit, label);
        EXPECT_EQ(stats.budget_spent, planned ? replay.final_scoring_sets
                                              : replay.stats.budget_spent)
            << label;
      }
    }
  }
}

TEST(AdaptiveCandidateTest, FiniteSkipBoundsNeverExceedOne) {
  // The planned path rests on two facts about every cell: its skip-bound
  // is +infinity exactly when its list covers its schema, and otherwise
  // lies in [0, 1]. A large type-mismatch penalty pushes many costs to the
  // min(1, ·) cap, the truncation tier's largest values.
  for (double penalty : {0.1, 0.6}) {
    for (uint64_t seed : {231u, 232u}) {
      AdaptiveSetup setup = MakeSetup(15, seed);
      match::ObjectiveOptions objective = setup.options.objective;
      objective.type_mismatch_penalty = penalty;
      auto prepared = PreparedRepository::Build(setup.repo, objective.name);
      ASSERT_TRUE(prepared.ok()) << prepared.status();
      for (bool block_max : {true, false}) {
        for (bool cutoff : {true, false}) {
          CandidateGenerator generator(&*prepared, objective);
          generator.set_block_max_enabled(block_max);
          generator.set_cutoff_enabled(cutoff);
          size_t finite = 0;
          for (size_t limit : {1u, 2u, 4u, 8u, 16u, 32u}) {
            auto candidates = generator.Generate(setup.query, limit);
            ASSERT_TRUE(candidates.ok()) << candidates.status();
            for (size_t pos = 0; pos < candidates->positions(); ++pos) {
              for (size_t si = 0; si < candidates->schema_count(); ++si) {
                const auto schema_index = static_cast<int32_t>(si);
                const double bound =
                    candidates->SkipLowerBound(pos, schema_index);
                const bool covers =
                    candidates->CandidatesFor(pos, schema_index)->size() ==
                    setup.repo.schema(schema_index).size();
                const std::string cell =
                    "penalty=" + std::to_string(penalty) +
                    " seed=" + std::to_string(seed) +
                    " block_max=" + std::to_string(block_max) +
                    " cutoff=" + std::to_string(cutoff) +
                    " limit=" + std::to_string(limit) + " cell (" +
                    std::to_string(pos) + ", " + std::to_string(si) + ")";
                ASSERT_EQ(std::isinf(bound), covers) << cell;
                if (covers) continue;
                ++finite;
                ASSERT_GE(bound, 0.0) << cell;
                ASSERT_LE(bound, 1.0) << cell;
              }
            }
          }
          EXPECT_GT(finite, 0u);
        }
      }
    }
  }
}

TEST(AdaptiveCandidateTest, TargetZeroMatchesFixedGenerateBitExactly) {
  // Fixed-C is the target-0 policy: no cell escalates, and every cell's
  // list and skip-bound are `Generate(C)`'s, at every Δ (inside and
  // outside the planned regime), thread count and initial limit (a full
  // schema included), with and without a name row cache. The budget is
  // one pass over the scoring sets and the same everywhere.
  AdaptiveSetup setup = MakeSetup(15, 61);
  const match::ObjectiveOptions& objective = setup.options.objective;
  auto prepared = PreparedRepository::Build(setup.repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  size_t max_schema_size = 0;
  for (const schema::Schema& s : setup.repo.schemas()) {
    max_schema_size = std::max(max_schema_size, s.size());
  }
  CandidateGenerator scratch(&*prepared, objective);
  GenerateCache by_limit;
  for (double delta : {0.02, 0.25}) {
    for (size_t initial : {size_t{1}, size_t{4}, max_schema_size}) {
      AdaptiveCandidatePolicy policy;
      policy.min_provable_completeness = 0.0;
      policy.initial_limit = initial;
      const Replay replay = ReplayFromScratch(
          scratch, *prepared, setup.query, objective, policy, delta,
          &by_limit);
      ASSERT_EQ(replay.stats.rounds, 0u);
      const QueryCandidates& fixed = by_limit.at(initial);
      for (size_t threads : {1u, 3u}) {
        for (bool cached : {false, true}) {
          const std::string label =
              "delta=" + std::to_string(delta) +
              " initial=" + std::to_string(initial) +
              " threads=" + std::to_string(threads) +
              " cached=" + std::to_string(cached);
          NameRowCache cache(&*prepared);
          CandidateGenerator generator(&*prepared, objective);
          generator.set_num_threads(threads);
          if (cached) generator.set_name_row_cache(&cache);
          // A cached run twice: the second one reads every row it can.
          for (int run = 0; run < (cached ? 2 : 1); ++run) {
            AdaptiveGenerationStats stats;
            auto adaptive =
                generator.GenerateAdaptive(setup.query, policy, delta, &stats);
            ASSERT_TRUE(adaptive.ok()) << adaptive.status();
            ExpectMatchesReplay(*adaptive, stats, replay, by_limit,
                                label + " run=" + std::to_string(run));
            EXPECT_EQ(stats.cells_escalated, 0u) << label;
            EXPECT_EQ(stats.speculative_scored, 0u) << label;
            EXPECT_EQ(stats.budget_spent, replay.final_scoring_sets) << label;
            EXPECT_EQ(stats.costs_computed, stats.budget_spent) << label;
            EXPECT_EQ(adaptive->candidates_generated(),
                      fixed.candidates_generated())
                << label;
            EXPECT_EQ(adaptive->candidates_skipped(),
                      fixed.candidates_skipped())
                << label;
          }
        }
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
