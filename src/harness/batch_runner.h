#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/result.h"
#include "eval/experiment_batch.h"
#include "eval/load_harness.h"

/// \file batch_runner.h
/// \brief Executes a declarative experiment batch end-to-end.
///
/// One batch file enumerates a repository-size × matcher × policy sweep;
/// this runner executes every experiment with the same recipe — stream a
/// synthetic repository, derive Zipfian queries and a workload trace from
/// it, stand up an in-process `serve::MatchService`, replay — and emits
/// the results both as CSV (one row per experiment) and as
/// Google-Benchmark-shaped JSON next to the other `BENCH_*.json` files,
/// so `tools/bench_diff.py --metric p99_ms` (or any other emitted
/// counter) can gate sweeps against each other.
///
/// Recognized experiment keys (anything else is an error at batch start):
/// the workload keys `repo_schemas, vocab_size, zipf_name, min_elements,
/// max_elements, typed_leaf_fraction, queries, query_elements, requests,
/// zipf_query, rate_qps, open_loop, speed, threads, target_mix
/// (comma-separated bounds), deadline_ms, seed` (defaults in
/// batch_runner.cc), plus the service keys of serve::ServiceSettingNames()
/// (`delta, matcher, engine_threads, top_k, candidates, cache_capacity,
/// target_bound, min_target`), parsed by serve::ParseServiceSpec exactly
/// as `matchbounds serve` parses its flags. The policy is derived: an
/// experiment is bound-driven iff it sets `target_bound`. Semantics in
/// docs/loadtest.md.

namespace smb::harness {

/// \brief Where a batch run puts its artifacts.
struct BatchRunOptions {
  /// Scratch directory for generated query files and traces (one
  /// subdirectory per experiment). Required.
  std::string work_dir;
  /// When non-empty, the per-experiment summary CSV is written here.
  std::string csv_path;
  /// When non-empty, Google-Benchmark-shaped JSON is written here
  /// (consumable by tools/bench_diff.py).
  std::string json_path;
  /// Write per-request answer files (off by default: a 10k-request sweep
  /// would produce 10k CSVs per experiment).
  bool keep_answers = false;
  /// Progress log (one line per experiment); null = silent.
  std::ostream* log = nullptr;
};

/// \brief One executed experiment.
struct ExperimentResult {
  std::string name;
  uint64_t repo_schemas = 0;
  std::string policy;
  /// Repository synthesis + index build time, seconds.
  double build_seconds = 0.0;
  eval::LoadReplayReport report;
};

/// \brief The one experiment `matchbounds loadtest` synth mode runs: each
/// workload or service flag present on `cl` becomes its batch key
/// (`--label` names it, `--open-loop` sets `open_loop=1`); absent ones
/// keep the runner's defaults.
eval::ExperimentSpec ExperimentFromCommandLine(const CommandLine& cl);

/// \brief Runs every experiment of `batch` in order, writing CSV/JSON per
/// `options`. Fails fast on unknown keys or invalid parameter values;
/// per-request errors inside a replay are counted, not fatal.
Result<std::vector<ExperimentResult>> RunExperimentBatch(
    const eval::ExperimentBatch& batch, const BatchRunOptions& options);

/// \brief One CSV row per experiment (the uniform stats dump).
void WriteBatchCsv(std::ostream& os,
                   const std::vector<ExperimentResult>& results);

/// \brief Google-Benchmark-shaped JSON: one `benchmarks[]` row per
/// experiment named `loadtest/<name>` (`real_time` = mean wall latency
/// (ms) with p50/p95/p99, throughput, cache-hit-rate, shed-fraction
/// counters), plus one `loadtest/<name>/target=<B>` row per distinct
/// per-request target bound — the budget-vs-bound curve (per-mix
/// percentiles, mean-certified, mean-budget, shed) machine-readable from
/// the same file; `context.smb_build_type` reflects how this binary was
/// compiled.
std::string FormatBatchBenchJson(
    const std::vector<ExperimentResult>& results);

}  // namespace smb::harness
