#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/batch_match_engine.h"
#include "index/prepared_repository.h"
#include "eval/ground_truth.h"
#include "eval/pr_curve.h"
#include "match/matcher.h"

/// \file workload.h
/// \brief Multi-query workloads.
///
/// A large-scale study runs *many* personal schemas against one repository
/// and reports one system-level curve (micro-averaged over the matching
/// problems, §2.2's P/R summed over counts). The workload runner executes a
/// matcher over every problem and aggregates.
///
/// `RunIndexedWorkload` is the prepare-once/serve-many variant: one
/// query-independent repository index, prepared by the caller, is amortized
/// over every query, each served through the batch engine's sparse candidate
/// path. Per-query latency and — optionally — recall against the dense
/// (index-free) run of the same matcher are reported, so the candidate
/// cutoff C becomes a measurable S2 knob for the bounds pipeline.

namespace smb::eval {

/// \brief One matching problem: a query plus its judged correct mappings.
struct MatchingProblem {
  std::string name;
  schema::Schema query;
  GroundTruth truth;
};

/// \brief Per-problem and aggregated results of one system over a workload.
struct WorkloadResult {
  std::string system_name;
  /// Ranked answers per problem (same order as the workload's problems).
  std::vector<match::AnswerSet> answers;
  /// Work counters summed over all problems.
  match::MatchStats stats;
  /// Micro-averaged measured curve over all problems.
  PrCurve pooled_curve;
};

/// \brief Runs `matcher` on every problem against `repo` and micro-averages
/// the measured curves at `thresholds`.
///
/// Fails if any problem fails to match or if the pooled H is empty.
Result<WorkloadResult> RunWorkload(const match::Matcher& matcher,
                                   const std::vector<MatchingProblem>& problems,
                                   const schema::SchemaRepository& repo,
                                   const match::MatchOptions& options,
                                   const std::vector<double>& thresholds);

/// \brief Pooled answer sizes |A^δ| of a workload result at each threshold
/// (summed over problems) — the S2 size observations the bounds consume.
std::vector<size_t> PooledSizes(const WorkloadResult& result,
                                const std::vector<double>& thresholds);

/// \brief Configuration of an indexed (prepare-once/serve-many) workload.
struct IndexedWorkloadOptions {
  /// The sparse run's engine configuration: the S2 selectivity knob C
  /// (`candidate_limit`) or the bound-driven policy (`adaptive`, whose
  /// per-query budget and achieved bound land in `QueryRunReport`), plus
  /// threads, shard size and top-k. `prepared_repository` is ignored: the
  /// run always uses the index passed to `RunIndexedWorkload`.
  engine::BatchMatchOptions engine_options;
  /// Also run each query through the dense path and report recall of the
  /// dense answers (and of the dense top-1) in the sparse answer set.
  bool compare_dense = false;
};

/// \brief What one query of an indexed workload did.
struct QueryRunReport {
  std::string name;
  double sparse_seconds = 0.0;
  size_t sparse_answers = 0;
  /// Of the sparse run's index work: candidate generation share.
  double index_seconds = 0.0;
  /// Filled only when `compare_dense`:
  double dense_seconds = 0.0;
  size_t dense_answers = 0;
  /// |sparse ∩ dense| / |dense| by mapping key (1.0 when dense is empty).
  double answer_recall = 1.0;
  /// True iff the dense run's rank-1 answer is in the sparse answers.
  bool top_answer_retained = true;
  /// Fraction of (position, schema) cells the skip-bound certifies
  /// complete at the run's Δ threshold. The empty/dense convention is
  /// **1.0** — "nothing was skipped" certifies completeness vacuously —
  /// matching `engine::BatchMatchStats::provably_complete_fraction` (the
  /// two used to disagree: 0.0 here vs 1.0 there; regression-tested in
  /// tests/eval/indexed_workload_test.cc).
  double provably_complete_fraction = 1.0;
  /// Adaptive mode only: candidates scored for this query (including
  /// escalation re-scoring), escalated cells, and escalation rounds.
  uint64_t budget_spent = 0;
  size_t cells_escalated = 0;
  size_t adaptive_rounds = 0;
};

/// \brief Results of `RunIndexedWorkload`.
struct IndexedWorkloadResult {
  std::string system_name;
  /// Sparse (indexed) answers per problem, in problem order.
  std::vector<match::AnswerSet> answers;
  /// Dense answers per problem (empty unless `compare_dense`).
  std::vector<match::AnswerSet> dense_answers;
  std::vector<QueryRunReport> reports;
  /// Sparse-run work counters summed over all problems (including the
  /// index's candidates_generated/_skipped).
  match::MatchStats stats;
  /// Micro-averages over the queries (compare_dense only, else 1.0).
  double mean_answer_recall = 1.0;
  /// Fraction of queries whose dense top-1 answer the sparse run retained.
  double top_answer_recall = 1.0;
  /// Mean certified completeness over the queries — the workload-level
  /// achieved bound.
  double mean_provable_completeness = 1.0;
  /// Adaptive mode: total candidates scored across all queries.
  uint64_t total_budget_spent = 0;
  /// Micro-averaged measured sparse curve; only when some problem carries
  /// ground truth (see `has_curve`).
  PrCurve pooled_curve;
  bool has_curve = false;
};

/// \brief Runs `matcher` over every problem through the batch engine's
/// sparse candidate path, sharing the one `prepared` repository index
/// (built or loaded by the caller, e.g. `serve::OpenServingIndex`) across
/// every query. The repository is `prepared.repo()`.
///
/// Problems may carry empty ground truth (recall-vs-dense is measured
/// against the dense run, not against H); the pooled curve is computed only
/// when truth is present.
Result<IndexedWorkloadResult> RunIndexedWorkload(
    const match::Matcher& matcher,
    const std::vector<MatchingProblem>& problems,
    const index::PreparedRepository& prepared,
    const match::MatchOptions& options,
    const std::vector<double>& thresholds,
    const IndexedWorkloadOptions& workload_options);

}  // namespace smb::eval
