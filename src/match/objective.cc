#include "match/objective.h"

#include <algorithm>
#include <cassert>

#include "sim/prepared_kernel.h"

/// \file objective.cc
/// \brief The match objective: weighted name/type/structure scoring.

namespace smb::match {

double ApplyTypePenalty(double cost, const schema::SchemaNode& q,
                        const schema::SchemaNode& t,
                        const ObjectiveOptions& options) {
  if (options.type_aware && !q.type.empty() && !t.type.empty() &&
      q.type != t.type) {
    return std::min(1.0, cost + options.type_mismatch_penalty);
  }
  return cost;
}

double ComputeNodeCost(const schema::SchemaNode& q, const schema::SchemaNode& t,
                       const ObjectiveOptions& options) {
  return ApplyTypePenalty(sim::NameDistance(q.name, t.name, options.name), q, t,
                          options);
}

double ComputeNodeCost(const schema::SchemaNode& q, const sim::PreparedName& qp,
                       const schema::SchemaNode& t, const sim::PreparedName& tp,
                       const ObjectiveOptions& options) {
  return ApplyTypePenalty(sim::NameDistance(qp, tp, options.name), q, t,
                          options);
}

NodeCostCutoff ComputeNodeCostWithCutoff(sim::BlockScorer& scorer,
                                         const schema::SchemaNode& q,
                                         const schema::SchemaNode& t,
                                         const sim::PreparedName& tp,
                                         const ObjectiveOptions& options,
                                         double max_cost) {
  const bool mismatch = options.type_aware && !q.type.empty() &&
                        !t.type.empty() && q.type != t.type;
  const double penalty = mismatch ? options.type_mismatch_penalty : 0.0;
  // cost = min(1, (1 - sim) + penalty), so cost ≤ max_cost needs
  // sim ≥ 1 + penalty - max_cost.
  const double min_score = 1.0 + penalty - max_cost;
  sim::CutoffScore scored = scorer.ScoreWithCutoff(tp, min_score);
  if (scored.exact) {
    return {ApplyTypePenalty(1.0 - scored.score, q, t, options), true};
  }
  // Pruned: `scored.score` is an admissible upper bound on the similarity,
  // so `1 - score (+ penalty, capped)` lower-bounds the exact cost; shave a
  // hair so a few ulps of float disagreement can never make it inadmissible.
  double lower = 1.0 - scored.score;
  if (mismatch) lower = std::min(1.0, lower + penalty);
  return {std::max(0.0, lower - 1e-9), false};
}

ObjectiveFunction::ObjectiveFunction(const schema::Schema* query,
                                     const schema::SchemaRepository* repo,
                                     ObjectiveOptions options,
                                     const CandidateProvider* candidates)
    : query_(query),
      repo_(repo),
      options_(std::move(options)),
      candidates_(candidates) {
  assert(query_ != nullptr && repo_ != nullptr);
  preorder_ = query_->PreOrder();
  // Map NodeId -> pre-order position, then derive parent positions.
  std::vector<size_t> pos_of(query_->size(), 0);
  for (size_t p = 0; p < preorder_.size(); ++p) {
    pos_of[static_cast<size_t>(preorder_[p])] = p;
  }
  parent_position_.resize(preorder_.size(), kNoParent);
  for (size_t p = 0; p < preorder_.size(); ++p) {
    schema::NodeId parent = query_->node(preorder_[p]).parent;
    if (parent != schema::kInvalidNode) {
      parent_position_[p] = pos_of[static_cast<size_t>(parent)];
    }
  }
  const double m = static_cast<double>(preorder_.size());
  normalizer_ = options_.weight_name * m;
  if (preorder_.size() > 1) {
    normalizer_ += options_.weight_structure * (m - 1.0);
  }
  if (normalizer_ <= 0.0) normalizer_ = 1.0;
  cache_.resize(repo_->schema_count());
}

double ObjectiveFunction::NodeCost(size_t pos, int32_t schema_index,
                                   schema::NodeId target) const {
  const schema::Schema& s = repo_->schema(schema_index);
  auto& schema_cache = cache_[static_cast<size_t>(schema_index)];
  if (schema_cache.empty()) {
    schema_cache.assign(preorder_.size() * s.size(), -1.0);
  }
  double& slot = schema_cache[pos * s.size() + static_cast<size_t>(target)];
  if (slot >= 0.0) return slot;

  slot = ComputeNodeCost(query_->node(preorder_[pos]), s.node(target),
                         options_);
  return slot;
}

double ObjectiveFunction::EdgeCost(int32_t schema_index,
                                   schema::NodeId parent_target,
                                   schema::NodeId child_target) const {
  const schema::Schema& s = repo_->schema(schema_index);
  if (parent_target == child_target) return options_.collapsed_penalty;
  const schema::SchemaNode& child = s.node(child_target);
  if (child.parent == parent_target) return 0.0;  // edge preserved
  if (s.IsAncestor(parent_target, child_target)) {
    int gap = child.depth - s.node(parent_target).depth;
    return std::min(1.0, options_.ancestor_penalty_base +
                             options_.ancestor_penalty_step *
                                 static_cast<double>(gap - 1));
  }
  if (s.IsAncestor(child_target, parent_target)) {
    return options_.inverted_penalty;
  }
  int dist = s.TreeDistance(parent_target, child_target);
  return std::min(1.0, options_.unrelated_penalty_base +
                           options_.unrelated_penalty_step *
                               static_cast<double>(std::max(0, dist - 2)));
}

double ObjectiveFunction::AssignCost(size_t pos, int32_t schema_index,
                                     schema::NodeId target,
                                     schema::NodeId parent_target) const {
  double cost = options_.weight_name * NodeCost(pos, schema_index, target);
  if (parent_target != schema::kInvalidNode) {
    cost += options_.weight_structure *
            EdgeCost(schema_index, parent_target, target);
  }
  return cost;
}

double ObjectiveFunction::AssignCostWithNodeCost(int32_t schema_index,
                                                 schema::NodeId target,
                                                 schema::NodeId parent_target,
                                                 double node_cost) const {
  double cost = options_.weight_name * node_cost;
  if (parent_target != schema::kInvalidNode) {
    cost += options_.weight_structure *
            EdgeCost(schema_index, parent_target, target);
  }
  return cost;
}

double ObjectiveFunction::Delta(
    int32_t schema_index, const std::vector<schema::NodeId>& targets) const {
  assert(targets.size() == preorder_.size());
  double total = 0.0;
  for (size_t pos = 0; pos < targets.size(); ++pos) {
    schema::NodeId parent_target = schema::kInvalidNode;
    if (parent_position_[pos] != kNoParent) {
      parent_target = targets[parent_position_[pos]];
    }
    total += AssignCost(pos, schema_index, targets[pos], parent_target);
  }
  return total / normalizer_;
}

}  // namespace smb::match
