#include "match/exhaustive_matcher.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "match/tree_bound.h"

/// \file exhaustive_matcher.cc
/// \brief S1 implementation: exhaustive pairwise matching.

namespace smb::match {

namespace {

/// Depth-first enumeration of assignments within one repository schema —
/// over the full node set, or over sparse candidate lists when a
/// `CandidateProvider` is attached to the objective.
class SchemaEnumerator {
 public:
  SchemaEnumerator(const ObjectiveFunction& objective, int32_t schema_index,
                   const MatchOptions& options, AnswerSet* out,
                   MatchStats* stats)
      : objective_(objective),
        schema_index_(schema_index),
        options_(options),
        out_(out),
        stats_(stats) {
    const auto& s = objective_.repo().schema(schema_index_);
    schema_size_ = s.size();
    used_.assign(schema_size_, false);
    targets_.assign(objective_.query_preorder().size(), schema::kInvalidNode);
    cost_budget_ = options_.delta_threshold * objective_.normalizer() + 1e-12;
    lookahead_budget_ = cost_budget_ + kLookaheadSlack;
    weight_name_ = objective_.options().weight_name;
  }

  void Run() {
    const size_t m = objective_.query_preorder().size();
    suffix_.assign(m + 1, 0.0);
    for (size_t pos = m; pos-- > 0;) {
      suffix_[pos] = suffix_[pos + 1] + MinContribution(pos);
    }
    // Even the cheapest node of every position is over budget (or some
    // position has no candidate at all): nothing in this schema qualifies.
    if (suffix_[0] > lookahead_budget_) {
      CountPruned();
      return;
    }
    Recurse(0, 0.0);
  }

 private:
  /// The candidate list of `pos` in this schema, or nullptr when the
  /// position is unrestricted (dense).
  const std::vector<CandidateEntry>* ListFor(size_t pos) const {
    const CandidateProvider* provider = objective_.candidates();
    return provider == nullptr ? nullptr
                               : provider->CandidatesFor(pos, schema_index_);
  }

  /// `w_name · min node cost` over the targets `pos` may take: a lower
  /// bound on its contribution. +infinity when it has no target, also
  /// when `w_name` is 0 (0 · inf would be NaN, which never prunes).
  double MinContribution(size_t pos) const {
    double min_cost = std::numeric_limits<double>::infinity();
    if (const std::vector<CandidateEntry>* list = ListFor(pos)) {
      if (!list->empty()) min_cost = list->front().cost;  // ascending
    } else {
      for (size_t i = 0; i < schema_size_; ++i) {
        min_cost = std::min(
            min_cost, objective_.NodeCost(pos, schema_index_,
                                          static_cast<schema::NodeId>(i)));
      }
    }
    return std::isinf(min_cost) ? min_cost : weight_name_ * min_cost;
  }

  void CountPruned() {
    if (stats_ != nullptr) ++stats_->states_pruned;
  }

  /// One step of the recursion for a fixed target with a known node cost.
  void Visit(size_t pos, double cost_so_far, schema::NodeId target,
             double assign_cost) {
    if (stats_ != nullptr) ++stats_->states_explored;
    double cost = cost_so_far + assign_cost;
    if (cost > cost_budget_ || cost + suffix_[pos + 1] > lookahead_budget_) {
      CountPruned();
      return;
    }
    targets_[pos] = target;
    used_[static_cast<size_t>(target)] = true;
    Recurse(pos + 1, cost);
    used_[static_cast<size_t>(target)] = false;
  }

  void Recurse(size_t pos, double cost_so_far) {
    const size_t m = objective_.query_preorder().size();
    if (pos == m) {
      Mapping mapping;
      mapping.schema_index = schema_index_;
      mapping.targets = targets_;
      mapping.delta = cost_so_far / objective_.normalizer();
      out_->Add(std::move(mapping));
      if (stats_ != nullptr) ++stats_->mappings_emitted;
      return;
    }
    const schema::RelationCode* parent_codes = nullptr;
    size_t parent_pos = objective_.parent_position()[pos];
    if (parent_pos != ObjectiveFunction::kNoParent) {
      parent_codes = objective_.EdgeCodes(schema_index_, targets_[parent_pos]);
    }
    if (const std::vector<CandidateEntry>* list = ListFor(pos)) {
      for (const CandidateEntry& entry : *list) {
        // The list ascends by cost, so once the cheapest completion through
        // this entry is over budget, it is through every later one too.
        if (cost_so_far + weight_name_ * entry.cost + suffix_[pos + 1] >
            lookahead_budget_) {
          CountPruned();
          break;
        }
        if (options_.injective && used_[static_cast<size_t>(entry.node)]) {
          continue;
        }
        Visit(pos, cost_so_far, entry.node,
              objective_.AssignCostWithNodeCost(parent_codes, entry.node,
                                                entry.cost));
      }
      return;
    }
    for (size_t i = 0; i < schema_size_; ++i) {
      const auto target = static_cast<schema::NodeId>(i);
      if (options_.injective && used_[i]) continue;
      Visit(pos, cost_so_far, target,
            objective_.AssignCost(pos, schema_index_, target, parent_codes));
    }
  }

  const ObjectiveFunction& objective_;
  int32_t schema_index_;
  const MatchOptions& options_;
  AnswerSet* out_;
  MatchStats* stats_;
  size_t schema_size_ = 0;
  std::vector<bool> used_;
  std::vector<schema::NodeId> targets_;
  double cost_budget_ = 0.0;
  double lookahead_budget_ = 0.0;
  double weight_name_ = 0.0;
  /// suffix_[p] = Σ_{q ≥ p} MinContribution(q); suffix_[m] = 0.
  std::vector<double> suffix_;
};

}  // namespace

Status ExhaustiveMatcher::MatchSchemas(const ObjectiveFunction& objective,
                                       size_t first, size_t count,
                                       const MatchOptions& options,
                                       AnswerSet* out,
                                       MatchStats* stats) const {
  for (size_t s = first; s < first + count; ++s) {
    SchemaEnumerator enumerator(objective, static_cast<int32_t>(s), options,
                                out, stats);
    enumerator.Run();
  }
  return Status::OK();
}

}  // namespace smb::match
