#include "match/tree_bound.h"

#include <algorithm>
#include <limits>

/// \file tree_bound.cc
/// \brief The min-sum over the query tree behind the schema filter.

namespace smb::match {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Smallest of `values[0, n)`; a branch-free loop.
double MinOf(const double* values, size_t n) {
  double least = kInf;
  for (size_t i = 0; i < n; ++i) least = std::min(least, values[i]);
  return least;
}

}  // namespace

TreeBound::TreeBound(const ObjectiveFunction* objective)
    : objective_(objective) {
  const std::vector<size_t>& parent = objective_->parent_position();
  const size_t m = parent.size();
  children_.resize(m);
  for (size_t p = 0; p < m; ++p) {
    if (parent[p] != ObjectiveFunction::kNoParent) {
      children_[parent[p]].push_back(p);
    }
  }
  // Pre-order: a subtree is a contiguous run, and every descendant of p
  // comes after p, so the runs close from the last position backwards.
  subtree_end_.assign(m, 0);
  for (size_t p = m; p-- > 0;) {
    subtree_end_[p] = p + 1;
    for (size_t q : children_[p]) {
      subtree_end_[p] = std::max(subtree_end_[p], subtree_end_[q]);
    }
  }
  // The product `AssignCostWithNodeCost` forms, once per code.
  const double weight_structure = objective_->options().weight_structure;
  edge_term_.resize(size_t{objective_->repo().max_relation_code()} + 1);
  for (size_t code = 0; code < edge_term_.size(); ++code) {
    edge_term_[code] =
        weight_structure *
        objective_->CodeCost(static_cast<schema::RelationCode>(code));
  }
  min_node_.resize(m);
  outside_.resize(m);
  min_f_.resize(m);
  finite_count_.resize(m);
}

double TreeBound::MinSum(int32_t schema_index, std::span<const double> costs,
                         double budget) {
  const size_t m = children_.size();
  const size_t n = objective_->repo().schema(schema_index).size();
  const double weight_name = objective_->options().weight_name;

  // The sum of the per-position minimum node terms: cheap, and what many
  // schemas already fail.
  double total = 0.0;
  for (size_t p = 0; p < m; ++p) {
    min_node_[p] = weight_name * MinOf(costs.data() + p * n, n);
    total += min_node_[p];
  }
  if (total > budget) return total;
  for (size_t p = 0; p < m; ++p) {
    double outside = 0.0;
    for (size_t q = 0; q < m; ++q) {
      if (q < p || q >= subtree_end_[p]) outside += min_node_[q];
    }
    outside_[p] = outside;
  }

  f_.resize(m * n);
  finite_.resize(m * n);
  for (size_t p = m; p-- > 0;) {
    double children_min = 0.0;
    for (size_t q : children_[p]) children_min += min_f_[q];
    // Every target of p is over budget: so is every mapping.
    if (children_min + outside_[p] > budget) return kInf;
    const double* node_costs = costs.data() + p * n;
    double* f = f_.data() + p * n;
    for (size_t t = 0; t < n; ++t) {
      const double node = weight_name * node_costs[t];
      if (node + children_min + outside_[p] > budget) {
        f[t] = kInf;
        continue;
      }
      double sum = node;
      if (!children_[p].empty()) {
        const schema::RelationCode* codes =
            objective_->EdgeCodes(schema_index, static_cast<schema::NodeId>(t));
        for (size_t q : children_[p]) {
          // Dropped child targets hold +inf and never win: only the kept
          // ones are read.
          const double* child_f = f_.data() + q * n;
          const uint32_t* kept = finite_.data() + q * n;
          double best = kInf;
          for (size_t k = 0; k < finite_count_[q]; ++k) {
            const uint32_t u = kept[k];
            best = std::min(best, edge_term_[codes[u]] + child_f[u]);
          }
          sum += best;
        }
      }
      f[t] = sum + outside_[p] > budget ? kInf : sum;
    }
    min_f_[p] = MinOf(f, n);
    if (min_f_[p] == kInf) return kInf;
    uint32_t* kept = finite_.data() + p * n;
    size_t count = 0;
    for (size_t t = 0; t < n; ++t) {
      kept[count] = static_cast<uint32_t>(t);
      count += f[t] != kInf ? 1 : 0;
    }
    finite_count_[p] = count;
  }
  return min_f_[0];
}

}  // namespace smb::match
