#pragma once

#include <vector>

#include "match/answer_set.h"
#include "match/matcher.h"
#include "match/objective.h"
#include "schema/repository.h"
#include "schema/schema.h"

/// \file dfs_oracle.h
/// \brief Test-side reference enumeration for the exhaustive matcher.
///
/// A plain depth-first search over the targets the matcher may take: every
/// node of the schema, or the candidate list when a `CandidateProvider`
/// attached to the objective lists the cell. It adds the contributions in
/// the matcher's order and divides by the normalizer the same way, so its
/// Δ values are bit-equal to the matcher's. A complete mapping is kept when
/// its unnormalized sum Σ ≤ δ·normalizer + 1e-12, the matcher's own budget.
///
/// `OraclePrune::kNone` prunes nothing: the definition of S1's answer set.
/// `OraclePrune::kBudget` cuts a partial assignment once its Σ so far is
/// over the budget, and nothing else: the baseline against which tests
/// measure the work the matcher's lookahead saves.

namespace smb::match {

enum class OraclePrune { kNone, kBudget };

namespace oracle_internal {

class OracleSearch {
 public:
  OracleSearch(const ObjectiveFunction& objective, const MatchOptions& options,
               OraclePrune prune, AnswerSet* out, MatchStats* stats)
      : objective_(objective),
        options_(options),
        prune_(prune),
        out_(out),
        stats_(stats),
        budget_(options.delta_threshold * objective.normalizer() + 1e-12) {}

  void RunSchema(int32_t schema_index) {
    schema_index_ = schema_index;
    const size_t n = objective_.repo().schema(schema_index).size();
    used_.assign(n, false);
    targets_.assign(objective_.query_preorder().size(), schema::kInvalidNode);
    Recurse(0, 0.0);
  }

 private:
  void Recurse(size_t pos, double sum) {
    const size_t m = objective_.query_preorder().size();
    if (pos == m) {
      if (sum > budget_) return;
      out_->Add(
          Mapping{schema_index_, targets_, sum / objective_.normalizer()});
      if (stats_ != nullptr) ++stats_->mappings_emitted;
      return;
    }
    const size_t parent_pos = objective_.parent_position()[pos];
    const schema::RelationCode* parent_codes =
        parent_pos == ObjectiveFunction::kNoParent
            ? nullptr
            : objective_.EdgeCodes(schema_index_, targets_[parent_pos]);
    const std::vector<CandidateEntry>* list =
        objective_.candidates() == nullptr
            ? nullptr
            : objective_.candidates()->CandidatesFor(pos, schema_index_);
    if (list != nullptr) {
      for (const CandidateEntry& entry : *list) {
        Step(pos, sum, entry.node,
             objective_.AssignCostWithNodeCost(parent_codes, entry.node,
                                               entry.cost));
      }
      return;
    }
    for (size_t i = 0; i < used_.size(); ++i) {
      const auto target = static_cast<schema::NodeId>(i);
      Step(pos, sum, target,
           objective_.AssignCost(pos, schema_index_, target, parent_codes));
    }
  }

  void Step(size_t pos, double sum, schema::NodeId target, double cost) {
    const auto t = static_cast<size_t>(target);
    if (options_.injective && used_[t]) return;
    if (stats_ != nullptr) ++stats_->states_explored;
    const double next = sum + cost;
    if (prune_ == OraclePrune::kBudget && next > budget_) {
      if (stats_ != nullptr) ++stats_->states_pruned;
      return;
    }
    targets_[pos] = target;
    used_[t] = true;
    Recurse(pos + 1, next);
    used_[t] = false;
  }

  const ObjectiveFunction& objective_;
  const MatchOptions& options_;
  OraclePrune prune_;
  AnswerSet* out_;
  MatchStats* stats_;
  double budget_;
  int32_t schema_index_ = 0;
  std::vector<bool> used_;
  std::vector<schema::NodeId> targets_;
};

}  // namespace oracle_internal

/// \brief S1's answer set by plain enumeration (see the file comment) over
/// every schema of `objective.repo()`. Reads costs through the objective
/// like the matchers do. `stats`, when non-null, accumulates work counters.
inline AnswerSet OracleMatch(const ObjectiveFunction& objective,
                             const MatchOptions& options,
                             OraclePrune prune = OraclePrune::kNone,
                             MatchStats* stats = nullptr) {
  AnswerSet answers;
  oracle_internal::OracleSearch search(objective, options, prune, &answers,
                                       stats);
  for (size_t s = 0; s < objective.repo().schema_count(); ++s) {
    search.RunSchema(static_cast<int32_t>(s));
  }
  answers.Finalize();
  return answers;
}

/// \brief The same over the lazy node-cost cache of a fresh objective.
inline AnswerSet OracleMatch(const schema::Schema& query,
                             const schema::SchemaRepository& repo,
                             const MatchOptions& options,
                             OraclePrune prune = OraclePrune::kNone,
                             MatchStats* stats = nullptr) {
  return OracleMatch(ObjectiveFunction(&query, &repo, options.objective),
                     options, prune, stats);
}

}  // namespace smb::match
