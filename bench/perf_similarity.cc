// Perf-2: throughput of the similarity measures that make up the objective
// function Δ. These dominate matcher run time (they sit in the innermost
// loop before caching), so their cost motivates both the name-cost cache
// and the paper's broader efficiency agenda.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "sim/edit_distance.h"
#include "sim/jaro_winkler.h"
#include "sim/name_similarity.h"
#include "sim/ngram.h"
#include "sim/prepared_kernel.h"
#include "sim/token_similarity.h"
#include "synth/vocabulary.h"

namespace {

using namespace smb;

std::vector<std::string> MakeNames(size_t n) {
  synth::Vocabulary vocab = synth::Vocabulary::ForDomain(
      synth::Domain::kECommerce);
  Rng rng(42);
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    names.push_back(vocab.RandomElementName(&rng));
  }
  return names;
}

const std::vector<std::string>& Names() {
  static const std::vector<std::string> kNames = MakeNames(256);
  return kNames;
}

sim::NameSimilarityOptions SynonymOptions() {
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  sim::NameSimilarityOptions options;
  options.synonyms = &kTable;
  return options;
}

const std::vector<sim::PreparedName>& PreparedNames() {
  static const std::vector<sim::PreparedName> kPrepared = [] {
    sim::NameSimilarityOptions options = SynonymOptions();
    std::vector<sim::PreparedName> prepared;
    prepared.reserve(Names().size());
    for (const std::string& name : Names()) {
      prepared.push_back(sim::PrepareName(name, options));
    }
    return prepared;
  }();
  return kPrepared;
}

void BM_Levenshtein(benchmark::State& state) {
  const auto& names = Names();
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = names[i % names.size()];
    const auto& b = names[(i * 7 + 3) % names.size()];
    benchmark::DoNotOptimize(sim::LevenshteinSimilarity(a, b));
    ++i;
  }
}
BENCHMARK(BM_Levenshtein);

void BM_DamerauLevenshtein(benchmark::State& state) {
  const auto& names = Names();
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = names[i % names.size()];
    const auto& b = names[(i * 7 + 3) % names.size()];
    benchmark::DoNotOptimize(sim::DamerauLevenshteinSimilarity(a, b));
    ++i;
  }
}
BENCHMARK(BM_DamerauLevenshtein);

void BM_JaroWinkler(benchmark::State& state) {
  const auto& names = Names();
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = names[i % names.size()];
    const auto& b = names[(i * 7 + 3) % names.size()];
    benchmark::DoNotOptimize(sim::JaroWinklerSimilarity(a, b));
    ++i;
  }
}
BENCHMARK(BM_JaroWinkler);

void BM_TrigramDice(benchmark::State& state) {
  const auto& names = Names();
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = names[i % names.size()];
    const auto& b = names[(i * 7 + 3) % names.size()];
    benchmark::DoNotOptimize(sim::NgramDiceSimilarity(a, b));
    ++i;
  }
}
BENCHMARK(BM_TrigramDice);

void BM_TokenSimilarity(benchmark::State& state) {
  const auto& names = Names();
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  sim::TokenSimilarityOptions options;
  options.synonyms = &kTable;
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = names[i % names.size()];
    const auto& b = names[(i * 7 + 3) % names.size()];
    benchmark::DoNotOptimize(sim::TokenNameSimilarity(a, b, options));
    ++i;
  }
}
BENCHMARK(BM_TokenSimilarity);

void BM_CompositeNameSimilarity(benchmark::State& state) {
  const auto& names = Names();
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  sim::NameSimilarityOptions options;
  options.synonyms = &kTable;
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = names[i % names.size()];
    const auto& b = names[(i * 7 + 3) % names.size()];
    benchmark::DoNotOptimize(sim::NameSimilarity(a, b, options));
    ++i;
  }
}
BENCHMARK(BM_CompositeNameSimilarity);

// --- Allocation-free kernel vs the legacy per-pair path ----------------
//
// The pairwise benches score *prepared* names — the shape of every hot
// loop (dense pool fill, candidate scoring): preparation is amortized over
// thousands of pairs, so per-pair cost is what matters. "Legacy" is the
// pre-kernel scorer kept as `internal::ScoreFoldedReference` (it
// heap-allocates the padded-trigram string multisets, DP rows, Jaro flags
// and token pairs on every call); "kernel" is the bit-identical
// allocation-free scorer. `tools/bench_diff.py BENCH_sim.json
// BENCH_sim.json --a-filter Legacy --b-filter Kernel --strip 'Legacy|Kernel'`
// prints the per-pair speedups from one snapshot.

void BM_NameSimilarityPairLegacy(benchmark::State& state) {
  const auto& prepared = PreparedNames();
  sim::NameSimilarityOptions options = SynonymOptions();
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = prepared[i % prepared.size()];
    const auto& b = prepared[(i * 7 + 3) % prepared.size()];
    benchmark::DoNotOptimize(sim::internal::ScoreFoldedReference(
        a.folded, b.folded, &a.tokens, &b.tokens, options));
    ++i;
  }
}
BENCHMARK(BM_NameSimilarityPairLegacy);

void BM_NameSimilarityPairKernel(benchmark::State& state) {
  const auto& prepared = PreparedNames();
  sim::NameSimilarityOptions options = SynonymOptions();
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = prepared[i % prepared.size()];
    const auto& b = prepared[(i * 7 + 3) % prepared.size()];
    benchmark::DoNotOptimize(sim::NameSimilarity(a, b, options));
    ++i;
  }
}
BENCHMARK(BM_NameSimilarityPairKernel);

void BM_NameDistancePairLegacy(benchmark::State& state) {
  const auto& prepared = PreparedNames();
  sim::NameSimilarityOptions options = SynonymOptions();
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = prepared[i % prepared.size()];
    const auto& b = prepared[(i * 7 + 3) % prepared.size()];
    benchmark::DoNotOptimize(
        1.0 - sim::internal::ScoreFoldedReference(a.folded, b.folded,
                                                  &a.tokens, &b.tokens,
                                                  options));
    ++i;
  }
}
BENCHMARK(BM_NameDistancePairLegacy);

void BM_NameDistancePairKernel(benchmark::State& state) {
  const auto& prepared = PreparedNames();
  sim::NameSimilarityOptions options = SynonymOptions();
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = prepared[i % prepared.size()];
    const auto& b = prepared[(i * 7 + 3) % prepared.size()];
    benchmark::DoNotOptimize(sim::NameDistance(a, b, options));
    ++i;
  }
}
BENCHMARK(BM_NameDistancePairKernel);

// One query against a block of targets through one BlockScorer — the
// name-row pattern of candidate generation, where the query-side PEQ table
// loads once. Reported per pair.
void BM_NameSimilarityBlockKernel(benchmark::State& state) {
  const auto& prepared = PreparedNames();
  sim::NameSimilarityOptions options = SynonymOptions();
  std::vector<const sim::PreparedName*> targets;
  targets.reserve(prepared.size());
  for (const sim::PreparedName& p : prepared) targets.push_back(&p);
  std::vector<sim::CutoffScore> scores(targets.size());
  size_t i = 0;
  for (auto _ : state) {
    const auto& query = prepared[i % prepared.size()];
    sim::BlockScorer(query, options).ScoreMany(targets, 0.0, scores.data());
    benchmark::DoNotOptimize(scores.data());
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(targets.size()));
}
BENCHMARK(BM_NameSimilarityBlockKernel);

// Threshold-aware block scoring at a selective cutoff — the candidate
// generator's regime, where most targets die on the cheap bounds.
void BM_NameSimilarityBlockCutoff(benchmark::State& state) {
  const auto& prepared = PreparedNames();
  sim::NameSimilarityOptions options = SynonymOptions();
  std::vector<const sim::PreparedName*> targets;
  targets.reserve(prepared.size());
  for (const sim::PreparedName& p : prepared) targets.push_back(&p);
  std::vector<sim::CutoffScore> scores(targets.size());
  const double min_score = 0.7;
  size_t pruned = 0;
  size_t i = 0;
  for (auto _ : state) {
    const auto& query = prepared[i % prepared.size()];
    sim::BlockScorer(query, options)
        .ScoreMany(targets, min_score, scores.data());
    for (const sim::CutoffScore& s : scores) pruned += s.exact ? 0 : 1;
    benchmark::DoNotOptimize(scores.data());
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(targets.size()));
  state.counters["pruned_frac"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(pruned) /
                (static_cast<double>(state.iterations()) *
                 static_cast<double>(targets.size()));
}
BENCHMARK(BM_NameSimilarityBlockCutoff);

// The per-pair baseline for the vectorized block above: identical scores
// and pruning decisions, but each target goes through the scalar
// ScoreWithCutoff path one at a time. CI gates
// BlockCutoffPairwise / BlockCutoff ≥ 2 via tools/bench_diff.py — the
// SIMD batching must stay worth at least 2x on this workload.
void BM_NameSimilarityBlockCutoffPairwise(benchmark::State& state) {
  const auto& prepared = PreparedNames();
  sim::NameSimilarityOptions options = SynonymOptions();
  std::vector<sim::CutoffScore> scores(prepared.size());
  const double min_score = 0.7;
  size_t i = 0;
  for (auto _ : state) {
    const auto& query = prepared[i % prepared.size()];
    for (size_t t = 0; t < prepared.size(); ++t) {
      scores[t] = sim::ScoreWithCutoff(query, prepared[t], options,
                                       min_score);
    }
    benchmark::DoNotOptimize(scores.data());
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(prepared.size()));
}
BENCHMARK(BM_NameSimilarityBlockCutoffPairwise);

// The bit-parallel Levenshtein against the two-row reference DP.
void BM_LevenshteinKernel(benchmark::State& state) {
  const auto& names = Names();
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = names[i % names.size()];
    const auto& b = names[(i * 7 + 3) % names.size()];
    benchmark::DoNotOptimize(sim::KernelLevenshteinDistance(a, b));
    ++i;
  }
}
BENCHMARK(BM_LevenshteinKernel);

// Preparation itself (fold + tokenize + intern + PEQ compile) — the
// one-time cost the per-pair benches amortize away.
void BM_PrepareName(benchmark::State& state) {
  const auto& names = Names();
  sim::NameSimilarityOptions options = SynonymOptions();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::PrepareName(names[i % names.size()], options));
    ++i;
  }
}
BENCHMARK(BM_PrepareName);

}  // namespace

// The bounds computation itself must be negligible next to matching — the
// paper's pitch is "quick evaluation of many parameter settings". Scaling
// in the number of thresholds:

#include "bounds/incremental_bounds.h"

namespace {

void BM_IncrementalBounds(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(9);
  bounds::BoundsInput input;
  double a1 = 0, t1 = 0, a2 = 0;
  for (size_t i = 0; i < n; ++i) {
    double inc_a1 = 1.0 + rng.UniformDouble() * 50.0;
    double inc_t1 = rng.UniformDouble() * inc_a1;
    a1 += inc_a1;
    t1 += inc_t1;
    a2 += rng.UniformDouble() * inc_a1;
    input.thresholds.push_back(static_cast<double>(i + 1));
    input.s1_answers.push_back(a1);
    input.s1_correct.push_back(t1);
    input.s2_answers.push_back(a2);
  }
  input.total_correct = t1 + 1.0;
  for (auto _ : state) {
    auto curve = bounds::ComputeIncrementalBounds(input);
    benchmark::DoNotOptimize(curve);
  }
  state.counters["thresholds"] = static_cast<double>(n);
}
BENCHMARK(BM_IncrementalBounds)->Arg(25)->Arg(250)->Arg(2500);

}  // namespace
