#include "eval/workload.h"

#include <unordered_set>
#include <utility>

#include "common/timing.h"

/// \file workload.cc
/// \brief Workload runner: repository + query batch through a matcher to
/// answer sets.

namespace smb::eval {

namespace {

using Clock = SteadyClock;

}  // namespace

Result<WorkloadResult> RunWorkload(const match::Matcher& matcher,
                                   const std::vector<MatchingProblem>& problems,
                                   const schema::SchemaRepository& repo,
                                   const match::MatchOptions& options,
                                   const std::vector<double>& thresholds) {
  if (problems.empty()) {
    return Status::InvalidArgument("workload has no matching problems");
  }
  WorkloadResult result;
  result.system_name = matcher.name();
  result.answers.reserve(problems.size());
  for (const MatchingProblem& problem : problems) {
    auto answers = matcher.Match(problem.query, repo, options, &result.stats);
    if (!answers.ok()) {
      return answers.status().WithContext("while matching problem '" +
                                          problem.name + "'");
    }
    result.answers.push_back(std::move(answers).value());
  }
  std::vector<const match::AnswerSet*> answer_ptrs;
  std::vector<const GroundTruth*> truth_ptrs;
  for (size_t i = 0; i < problems.size(); ++i) {
    answer_ptrs.push_back(&result.answers[i]);
    truth_ptrs.push_back(&problems[i].truth);
  }
  SMB_ASSIGN_OR_RETURN(
      result.pooled_curve,
      PrCurve::MeasurePooled(answer_ptrs, truth_ptrs, thresholds));
  return result;
}

Result<IndexedWorkloadResult> RunIndexedWorkload(
    const match::Matcher& matcher,
    const std::vector<MatchingProblem>& problems,
    const index::PreparedRepository& prepared,
    const match::MatchOptions& options,
    const IndexedWorkloadOptions& workload_options) {
  if (problems.empty()) {
    return Status::InvalidArgument("workload has no matching problems");
  }
  engine::BatchMatchOptions sparse_opts = workload_options.engine_options;
  if (!sparse_opts.adaptive.has_value()) {
    return Status::InvalidArgument(
        "the sparse run needs a candidate policy (`adaptive`: target 0 "
        "for a fixed C, above 0 for the bound-driven mode)");
  }

  IndexedWorkloadResult result;
  result.system_name = matcher.name();
  const schema::SchemaRepository& repo = prepared.repo();

  sparse_opts.prepared_repository = &prepared;
  engine::BatchMatchEngine sparse_engine(sparse_opts);

  // The dense run is the exact one (no budget: target 1.0) over the same
  // index.
  engine::BatchMatchOptions dense_opts = sparse_opts;
  dense_opts.adaptive.reset();
  engine::BatchMatchEngine dense_engine(dense_opts);

  result.answers.reserve(problems.size());
  result.reports.reserve(problems.size());
  size_t top_retained = 0;
  double recall_sum = 0.0;
  for (const MatchingProblem& problem : problems) {
    QueryRunReport report;
    report.name = problem.name;

    engine::BatchMatchStats sparse_stats;
    Clock::time_point start = Clock::now();
    auto sparse = sparse_engine.Run(matcher, problem.query, repo, options,
                                    &sparse_stats);
    report.sparse_seconds = SecondsSince(start);
    if (!sparse.ok()) {
      return sparse.status().WithContext("while matching problem '" +
                                         problem.name + "'");
    }
    report.sparse_answers = sparse->size();
    report.index_seconds = sparse_stats.index_seconds;
    report.provably_complete_fraction =
        sparse_stats.provably_complete_fraction;
    report.budget_spent = sparse_stats.adaptive.budget_spent;
    report.cells_escalated = sparse_stats.adaptive.cells_escalated;
    report.adaptive_rounds = sparse_stats.adaptive.rounds;
    result.total_budget_spent += report.budget_spent;
    result.stats += sparse_stats.match;

    if (workload_options.compare_dense) {
      start = Clock::now();
      auto dense = dense_engine.Run(matcher, problem.query, repo, options);
      report.dense_seconds = SecondsSince(start);
      if (!dense.ok()) {
        return dense.status().WithContext("while dense-matching problem '" +
                                          problem.name + "'");
      }
      report.dense_answers = dense->size();
      std::unordered_set<match::Mapping::Key, match::MappingKeyHash>
          sparse_keys;
      sparse_keys.reserve(sparse->size());
      for (const match::Mapping& mapping : sparse->mappings()) {
        sparse_keys.insert(mapping.key());
      }
      if (!dense->empty()) {
        size_t retained = 0;
        for (const match::Mapping& mapping : dense->mappings()) {
          if (sparse_keys.count(mapping.key()) > 0) ++retained;
        }
        report.answer_recall = static_cast<double>(retained) /
                               static_cast<double>(dense->size());
        report.top_answer_retained =
            sparse_keys.count(dense->mappings().front().key()) > 0;
      }
      result.dense_answers.push_back(std::move(dense).value());
    }
    recall_sum += report.answer_recall;
    if (report.top_answer_retained) ++top_retained;
    result.answers.push_back(std::move(sparse).value());
    result.reports.push_back(std::move(report));
  }
  result.mean_answer_recall =
      recall_sum / static_cast<double>(problems.size());
  result.top_answer_recall = static_cast<double>(top_retained) /
                             static_cast<double>(problems.size());
  double completeness_sum = 0.0;
  for (const QueryRunReport& report : result.reports) {
    completeness_sum += report.provably_complete_fraction;
  }
  result.mean_provable_completeness =
      completeness_sum / static_cast<double>(result.reports.size());
  return result;
}

std::vector<size_t> PooledSizes(const WorkloadResult& result,
                                const std::vector<double>& thresholds) {
  std::vector<size_t> sizes(thresholds.size(), 0);
  for (const match::AnswerSet& answers : result.answers) {
    for (size_t i = 0; i < thresholds.size(); ++i) {
      sizes[i] += answers.CountAtThreshold(thresholds[i]);
    }
  }
  return sizes;
}

}  // namespace smb::eval
