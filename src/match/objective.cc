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
    return PenalizeTypeMismatch(cost, options);
  }
  return cost;
}

double PenalizeTypeMismatch(double cost, const ObjectiveOptions& options) {
  return std::min(1.0, cost + options.type_mismatch_penalty);
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

namespace {

/// The edge cost of a query edge whose parent's and child's targets relate
/// as `code` says: the penalties of `ObjectiveOptions`, each capped at 1.
double RelationCost(schema::RelationCode code, const ObjectiveOptions& o) {
  const int distance = schema::RelationDistance(code);
  switch (schema::RelationKindOf(code)) {
    case schema::RelationKind::kSame:
      return o.collapsed_penalty;
    case schema::RelationKind::kAncestor:
      if (distance == 1) return 0.0;  // edge preserved
      return std::min(1.0, o.ancestor_penalty_base +
                               o.ancestor_penalty_step *
                                   static_cast<double>(distance - 1));
    case schema::RelationKind::kInverted:
      return o.inverted_penalty;
    case schema::RelationKind::kUnrelated:
      break;
  }
  return std::min(1.0, o.unrelated_penalty_base +
                           o.unrelated_penalty_step *
                               static_cast<double>(std::max(0, distance - 2)));
}

}  // namespace

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
  edge_cost_.resize(size_t{repo_->max_relation_code()} + 1);
  for (size_t code = 0; code < edge_cost_.size(); ++code) {
    edge_cost_[code] =
        RelationCost(static_cast<schema::RelationCode>(code), options_);
  }
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

double ObjectiveFunction::Delta(
    int32_t schema_index, const std::vector<schema::NodeId>& targets) const {
  assert(targets.size() == preorder_.size());
  double total = 0.0;
  for (size_t pos = 0; pos < targets.size(); ++pos) {
    schema::NodeId parent_target = schema::kInvalidNode;
    if (parent_position_[pos] != kNoParent) {
      parent_target = targets[parent_position_[pos]];
    }
    total += AssignCost(pos, schema_index, targets[pos],
                        EdgeCodes(schema_index, parent_target));
  }
  return total / normalizer_;
}

}  // namespace smb::match
