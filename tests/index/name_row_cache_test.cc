#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "index/candidate_generator.h"
#include "index/name_row_cache.h"
#include "index/prepared_repository.h"
#include "match/fingerprint.h"
#include "match/objective.h"
#include "name_row_collection.h"
#include "sim/name_similarity.h"
#include "sim/prepared_kernel.h"

/// The cross-request name-row cache (index/name_row_cache.h): candidate
/// lists and skip-bounds with a cold, a warm and no cache must be bit-equal;
/// a row is shared by query names that fold alike, never across scorer
/// weights; the LRU stays within its byte budget; and concurrent readers
/// and writers only ever see exact rows.

namespace smb::index {
namespace {

using name_row_testing::ExpectSameList;
using name_row_testing::MakeMixedSizeRepo;
using name_row_testing::MakeObjective;
using name_row_testing::MakeQuery;
using name_row_testing::OracleCosts;

/// Lists and skip-bounds of two outputs are bit-equal.
void ExpectSameCandidates(const QueryCandidates& got,
                          const QueryCandidates& want,
                          const std::string& label) {
  ASSERT_EQ(got.positions(), want.positions()) << label;
  ASSERT_EQ(got.schema_count(), want.schema_count()) << label;
  for (size_t pos = 0; pos < want.positions(); ++pos) {
    for (size_t si = 0; si < want.schema_count(); ++si) {
      const auto schema_index = static_cast<int32_t>(si);
      const std::string cell = label + " cell (" + std::to_string(pos) +
                               ", " + std::to_string(si) + ")";
      ExpectSameList(*got.CandidatesFor(pos, schema_index),
                     *want.CandidatesFor(pos, schema_index), cell);
      EXPECT_EQ(got.SkipLowerBound(pos, schema_index),
                want.SkipLowerBound(pos, schema_index))
          << cell;
    }
  }
  EXPECT_EQ(got.candidates_generated(), want.candidates_generated()) << label;
  EXPECT_EQ(got.limit(), want.limit()) << label;
}

/// Every stats field a cache must not move.
void ExpectSameWork(const AdaptiveGenerationStats& got,
                    const AdaptiveGenerationStats& want,
                    const std::string& label) {
  EXPECT_EQ(got.rounds, want.rounds) << label;
  EXPECT_EQ(got.cells_certified, want.cells_certified) << label;
  EXPECT_EQ(got.cells_escalated, want.cells_escalated) << label;
  EXPECT_EQ(got.cells_at_cap, want.cells_at_cap) << label;
  EXPECT_EQ(got.budget_spent, want.budget_spent) << label;
  EXPECT_EQ(got.costs_computed, want.costs_computed) << label;
  EXPECT_EQ(got.achieved_completeness, want.achieved_completeness) << label;
  EXPECT_EQ(got.final_limit_distribution, want.final_limit_distribution)
      << label;
}

/// The exact similarity of `query_name` to every name id of `prepared`.
std::vector<double> ExactRow(const PreparedRepository& prepared,
                             const std::string& query_name,
                             const sim::NameSimilarityOptions& options) {
  const sim::PreparedName query =
      sim::PrepareName(query_name, options, prepared.token_table());
  sim::BlockScorer scorer(query, options);
  std::vector<double> row(prepared.name_count());
  for (uint32_t name = 0; name < prepared.name_count(); ++name) {
    row[name] =
        scorer.Score(prepared.element(prepared.name_representative(name)).name);
  }
  return row;
}

size_t MaxSchemaSize(const schema::SchemaRepository& repo) {
  size_t max_size = 0;
  for (const schema::Schema& s : repo.schemas()) {
    max_size = std::max(max_size, s.size());
  }
  return max_size;
}

TEST(NameRowCacheTest, ListsAreBitEqualWithColdWarmAndNoCache) {
  const schema::SchemaRepository repo = MakeMixedSizeRepo();
  const match::ObjectiveOptions objective = MakeObjective();
  auto prepared = PreparedRepository::Build(repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const schema::Schema query = MakeQuery();
  const size_t m = query.PreOrder().size();

  for (size_t threads : {1u, 2u, 3u}) {
    const std::string at = "threads=" + std::to_string(threads);
    CandidateGenerator uncached(&*prepared, objective);
    uncached.set_num_threads(threads);
    // Planned adaptive runs at targets 0.9 (a position with both full and
    // partial cells; every position has a full cell in the 3- and 4-node
    // schemas) and 1.0, each on a fresh cache, cold and then warm.
    for (double target : {0.9, 1.0}) {
      const std::string label = at + " target=" + std::to_string(target);
      AdaptiveCandidatePolicy policy;
      policy.min_provable_completeness = target;
      AdaptiveGenerationStats want_stats;
      auto want = uncached.GenerateAdaptive(query, policy, 0.25, &want_stats);
      ASSERT_TRUE(want.ok()) << want.status();
      EXPECT_EQ(want_stats.rows_cached, 0u) << label;
      NameRowCache cache(&*prepared);
      CandidateGenerator cached(&*prepared, objective);
      cached.set_num_threads(threads);
      cached.set_name_row_cache(&cache);
      for (const char* pass : {" cold", " warm"}) {
        AdaptiveGenerationStats stats;
        auto got = cached.GenerateAdaptive(query, policy, 0.25, &stats);
        ASSERT_TRUE(got.ok()) << got.status();
        ExpectSameCandidates(*got, *want, label + pass);
        ExpectSameWork(stats, want_stats, label + pass);
        if (std::string(pass) == " cold") {
          EXPECT_EQ(stats.rows_cached, 0u) << label;
        } else {
          EXPECT_EQ(stats.rows_cached, m) << label;
          EXPECT_EQ(stats.names_scored, 0u) << label;
        }
      }
      EXPECT_EQ(cache.stats().entries, m) << label;
    }
    // Fixed limits: every cell partial (C=2), a limit equal to one schema's
    // size that leaves the 17-node schema partial beside full cells
    // (C=16), and every cell full.
    for (size_t limit : {size_t{2}, size_t{16}, MaxSchemaSize(repo)}) {
      const std::string label = at + " C=" + std::to_string(limit);
      auto want = uncached.Generate(query, limit);
      ASSERT_TRUE(want.ok()) << want.status();
      NameRowCache cache(&*prepared);
      CandidateGenerator cached(&*prepared, objective);
      cached.set_num_threads(threads);
      cached.set_name_row_cache(&cache);
      for (const char* pass : {" cold", " warm"}) {
        auto got = cached.Generate(query, limit);
        ASSERT_TRUE(got.ok()) << got.status();
        ExpectSameCandidates(*got, *want, label + pass);
      }
    }
  }
}

TEST(NameRowCacheTest, AFirstRunFillsCompleteRowsOnlyWhereACellIsFull) {
  const schema::SchemaRepository repo = MakeMixedSizeRepo();
  const match::ObjectiveOptions objective = MakeObjective();
  auto prepared = PreparedRepository::Build(repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const schema::Schema query = MakeQuery();
  const size_t m = query.PreOrder().size();

  // Limit 2 leaves every cell partial (no schema has fewer than 3 nodes):
  // nothing is inserted and nothing hits.
  NameRowCache cache(&*prepared);
  CandidateGenerator generator(&*prepared, objective);
  generator.set_name_row_cache(&cache);
  ASSERT_TRUE(generator.Generate(query, 2).ok());
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().misses, m);

  // Planned 0.9 on the cold cache: each position scores its complete row,
  // so names_scored is exactly positions × name count, and the partial
  // cells read every name from it.
  AdaptiveCandidatePolicy policy;
  policy.min_provable_completeness = 0.9;
  AdaptiveGenerationStats cold;
  ASSERT_TRUE(generator.GenerateAdaptive(query, policy, 0.25, &cold).ok());
  EXPECT_EQ(cold.rows_cached, 0u);
  EXPECT_EQ(cold.names_scored, m * prepared->name_count());
  EXPECT_EQ(cache.stats().entries, m);

  // Limit 2 again: every position hits, the memo is never consulted.
  ASSERT_TRUE(generator.Generate(query, 2).ok());
  EXPECT_EQ(cache.stats().hits, m);
}

TEST(NameRowCacheTest, FoldedNamesHitAcrossCaseAndDeclaredType) {
  const schema::SchemaRepository repo = MakeMixedSizeRepo();
  const match::ObjectiveOptions objective = MakeObjective();
  auto prepared = PreparedRepository::Build(repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  NameRowCache cache(&*prepared);
  CandidateGenerator generator(&*prepared, objective);
  generator.set_name_row_cache(&cache);
  AdaptiveCandidatePolicy complete;
  complete.min_provable_completeness = 1.0;
  ASSERT_TRUE(generator.GenerateAdaptive(MakeQuery(), complete, 0.25).ok());

  // The same five names in other cases and under other declared types
  // (`MakeQuery` declares price :decimal and orderId :string).
  schema::Schema variant("variant");
  const schema::NodeId root = variant.AddRoot("ORDER", "string").value();
  variant.AddChild(root, "Customer", "string").value();
  variant.AddChild(root, "PRICE").value();
  variant.AddChild(root, "orderid", "decimal").value();
  variant.AddChild(root, "ZipCode", "int").value();
  const size_t m = variant.PreOrder().size();

  AdaptiveGenerationStats stats;
  auto got = generator.GenerateAdaptive(variant, complete, 0.25, &stats);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(stats.rows_cached, m);
  EXPECT_EQ(stats.names_scored, 0u);

  // Every cell is full at target 1.0: each cost is the unmemoized
  // `ComputeNodeCost` of the variant's own node, type penalty included.
  const std::vector<std::vector<double>> oracle =
      OracleCosts(repo, variant, objective);
  for (size_t pos = 0; pos < m; ++pos) {
    for (size_t si = 0; si < repo.schema_count(); ++si) {
      const auto& entries = *got->CandidatesFor(pos, static_cast<int32_t>(si));
      const std::vector<double>& costs = oracle[pos * repo.schema_count() + si];
      ASSERT_EQ(entries.size(), costs.size());
      for (const match::CandidateEntry& entry : entries) {
        EXPECT_EQ(entry.cost, costs[static_cast<size_t>(entry.node)])
            << "cell (" << pos << ", " << si << ") node " << entry.node;
      }
    }
  }
  CandidateGenerator uncached(&*prepared, objective);
  auto want = uncached.GenerateAdaptive(variant, complete, 0.25);
  ASSERT_TRUE(want.ok()) << want.status();
  ExpectSameCandidates(*got, *want, "variant");
}

TEST(NameRowCacheTest, DifferentNameWeightsNeverShareARow) {
  const schema::SchemaRepository repo = MakeMixedSizeRepo();
  const match::ObjectiveOptions objective = MakeObjective();
  auto prepared = PreparedRepository::Build(repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const schema::Schema query = MakeQuery();
  const size_t m = query.PreOrder().size();
  // Same folding and synonyms (so the index accepts it), other weights.
  match::ObjectiveOptions reweighted = objective;
  reweighted.name.weight_levenshtein = 0.5;
  reweighted.name.weight_token = 0.05;

  NameRowCache cache(&*prepared);
  AdaptiveCandidatePolicy complete;
  complete.min_provable_completeness = 1.0;
  CandidateGenerator first(&*prepared, objective);
  first.set_name_row_cache(&cache);
  ASSERT_TRUE(first.GenerateAdaptive(query, complete, 0.25).ok());

  CandidateGenerator second(&*prepared, reweighted);
  second.set_name_row_cache(&cache);
  AdaptiveGenerationStats stats;
  auto got = second.GenerateAdaptive(query, complete, 0.25, &stats);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(stats.rows_cached, 0u);
  EXPECT_EQ(cache.stats().entries, 2 * m);
  CandidateGenerator uncached(&*prepared, reweighted);
  auto want = uncached.GenerateAdaptive(query, complete, 0.25);
  ASSERT_TRUE(want.ok()) << want.status();
  ExpectSameCandidates(*got, *want, "reweighted");

  // Both weightings now hit their own rows.
  ASSERT_TRUE(first.GenerateAdaptive(query, complete, 0.25, &stats).ok());
  EXPECT_EQ(stats.rows_cached, m);
  ASSERT_TRUE(second.GenerateAdaptive(query, complete, 0.25, &stats).ok());
  EXPECT_EQ(stats.rows_cached, m);
}

TEST(NameRowCacheTest, TinyBudgetEvictsLeastRecentlyUsedAndHeldRowsStay) {
  const schema::SchemaRepository repo = MakeMixedSizeRepo();
  const match::ObjectiveOptions objective = MakeObjective();
  auto prepared = PreparedRepository::Build(repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const size_t n = prepared->name_count();
  const size_t entry = NameRowCache::EntryBytes(5, n);
  // Room for two rows with five-character keys, not three.
  NameRowCache cache(&*prepared, 2 * entry + entry / 2);
  auto row_of = [&](double value) {
    return std::make_shared<const std::vector<double>>(n, value);
  };
  NameRow held = row_of(0.25);
  cache.Insert("alpha", 1, held);
  cache.Insert("bravo", 1, row_of(0.5));
  ASSERT_NE(cache.Lookup("alpha", 1), nullptr);  // alpha is now the newest
  cache.Insert("delta", 1, row_of(0.75));        // evicts bravo
  NameRowCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 2 * entry);
  EXPECT_LE(stats.bytes, cache.budget_bytes());
  EXPECT_EQ(cache.Lookup("bravo", 1), nullptr);
  ASSERT_NE(cache.Lookup("alpha", 1), nullptr);
  EXPECT_EQ(cache.Lookup("alpha", 1), held);
  // A second insert under a resident key replaces its row.
  const NameRow replacement = row_of(0.9);
  cache.Insert("alpha", 1, replacement);
  EXPECT_EQ(cache.Lookup("alpha", 1), replacement);
  EXPECT_EQ(cache.stats().bytes, 2 * entry);

  cache.Insert("echo1", 1, row_of(0.1));  // evicts delta
  cache.Insert("foxtr", 1, row_of(0.2));  // evicts alpha, which we hold
  EXPECT_EQ(cache.Lookup("alpha", 1), nullptr);
  EXPECT_EQ(cache.stats().evictions, 3u);
  ASSERT_EQ(held->size(), n);
  EXPECT_TRUE(std::all_of(held->begin(), held->end(),
                          [](double v) { return v == 0.25; }));

  // A row larger than the whole budget is not stored.
  NameRowCache small(&*prepared, entry - 1);
  small.Insert("alpha", 1, row_of(0.3));
  EXPECT_EQ(small.stats().entries, 0u);
  EXPECT_EQ(small.stats().bytes, 0u);

  // Generation under a two-row budget: rows are evicted on every run, the
  // resident bytes stay within the budget, and the lists stay exact.
  const schema::Schema query = MakeQuery();
  NameRowCache tight(&*prepared, 2 * NameRowCache::EntryBytes(8, n));
  CandidateGenerator cached(&*prepared, objective);
  cached.set_name_row_cache(&tight);
  CandidateGenerator uncached(&*prepared, objective);
  AdaptiveCandidatePolicy complete;
  complete.min_provable_completeness = 1.0;
  auto want = uncached.GenerateAdaptive(query, complete, 0.25);
  ASSERT_TRUE(want.ok()) << want.status();
  for (int run = 0; run < 3; ++run) {
    auto got = cached.GenerateAdaptive(query, complete, 0.25);
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectSameCandidates(*got, *want, "tight run " + std::to_string(run));
    EXPECT_LE(tight.stats().bytes, tight.budget_bytes());
    EXPECT_LE(tight.stats().entries, 2u);
  }
  EXPECT_GE(tight.stats().evictions, 3u);
}

TEST(NameRowCacheTest, ConcurrentLookupsAndInsertsGiveExactRows) {
  const schema::SchemaRepository repo = MakeMixedSizeRepo();
  const match::ObjectiveOptions objective = MakeObjective();
  auto prepared = PreparedRepository::Build(repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  // Queries sharing some names, so threads race on the same keys.
  std::vector<schema::Schema> queries = {MakeQuery()};
  for (const char* root_name : {"Order", "client", "price"}) {
    schema::Schema q(std::string("q-") + root_name);
    const schema::NodeId root = q.AddRoot(root_name).value();
    q.AddChild(root, "customer").value();
    q.AddChild(root, "qty", "int").value();
    q.AddChild(root, "note").value();
    queries.push_back(std::move(q));
  }
  AdaptiveCandidatePolicy policy;
  policy.min_provable_completeness = 0.9;
  std::vector<QueryCandidates> want;
  CandidateGenerator uncached(&*prepared, objective);
  for (const schema::Schema& q : queries) {
    auto generated = uncached.GenerateAdaptive(q, policy, 0.25);
    ASSERT_TRUE(generated.ok()) << generated.status();
    want.push_back(std::move(generated).value());
  }

  // Budget for about six of the nine distinct names: hits, misses and
  // evictions all race.
  NameRowCache cache(&*prepared,
                     6 * NameRowCache::EntryBytes(8, prepared->name_count()));
  constexpr size_t kThreads = 4;
  std::vector<std::vector<std::string>> failures(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      CandidateGenerator generator(&*prepared, objective);
      generator.set_name_row_cache(&cache);
      generator.set_num_threads(1 + t % 2);
      for (size_t round = 0; round < 6; ++round) {
        const size_t qi = (t + round) % queries.size();
        auto got = generator.GenerateAdaptive(queries[qi], policy, 0.25);
        if (!got.ok()) {
          failures[t].push_back(got.status().ToString());
          continue;
        }
        for (size_t pos = 0; pos < want[qi].positions(); ++pos) {
          for (size_t si = 0; si < want[qi].schema_count(); ++si) {
            const auto s = static_cast<int32_t>(si);
            const auto& a = *got->CandidatesFor(pos, s);
            const auto& b = *want[qi].CandidatesFor(pos, s);
            bool same = a.size() == b.size() &&
                        got->SkipLowerBound(pos, s) ==
                            want[qi].SkipLowerBound(pos, s);
            for (size_t i = 0; same && i < a.size(); ++i) {
              same = a[i].node == b[i].node && a[i].cost == b[i].cost;
            }
            if (!same) {
              failures[t].push_back("query " + std::to_string(qi) +
                                    " cell (" + std::to_string(pos) + ", " +
                                    std::to_string(si) + ")");
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty())
        << "thread " << t << ": " << failures[t].size()
        << " mismatches, first " << failures[t].front();
  }
  const NameRowCacheStats stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(stats.bytes, cache.budget_bytes());

  // Every resident row is the exact similarity row of its name.
  const uint64_t options = match::FingerprintNameOptions(objective.name);
  size_t resident = 0;
  for (const schema::Schema& q : queries) {
    for (schema::NodeId node : q.PreOrder()) {
      const std::string& name = q.node(node).name;
      const sim::PreparedName folded =
          sim::PrepareName(name, objective.name, prepared->token_table());
      const NameRow row = cache.Lookup(folded.folded, options);
      if (row == nullptr) continue;
      ++resident;
      EXPECT_EQ(*row, ExactRow(*prepared, name, objective.name)) << name;
    }
  }
  EXPECT_GT(resident, 0u);
}

TEST(NameRowCacheTest, ACacheOfAnotherIndexIsRejected) {
  const schema::SchemaRepository repo = MakeMixedSizeRepo();
  const match::ObjectiveOptions objective = MakeObjective();
  auto prepared = PreparedRepository::Build(repo, objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto other = PreparedRepository::Build(repo, objective.name);
  ASSERT_TRUE(other.ok()) << other.status();
  NameRowCache cache(&*other);
  CandidateGenerator generator(&*prepared, objective);
  generator.set_name_row_cache(&cache);
  EXPECT_EQ(generator.Generate(MakeQuery(), 4).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace smb::index
