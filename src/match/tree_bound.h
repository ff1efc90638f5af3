#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "match/objective.h"

/// \file tree_bound.h
/// \brief The exact tree bound: the cheapest Σ of any mapping of the query
/// into one repository schema, by a min-sum over the query tree.
///
/// Σ (= Δ·normalizer) is a sum of one node term per query position and one
/// edge term per query parent–child edge (objective.h). Drop injectivity
/// and the positions interact only along those edges, so the cheapest Σ
/// is a dynamic program over the query tree, children before parents:
///
///   f[p][t] = w_n·cost(p, t) + Σ_{child q of p} min_u (w_s·edge(t, u) +
///   f[q][u]),
///
/// and the bound is min_t f[root][t]. An edge term is one read of the
/// parent target's relation-code row (`ObjectiveFunction::EdgeCodes`) and
/// one of a table of `w_s · CodeCost(code)` built from the objective's
/// edge-cost table: the product the enumerators form. The minimum over
/// child targets is a branch-free loop over the child targets the budget
/// kept, so the program is O(n²) per query edge for an n-element schema at
/// worst (schemas hold at most `schema::kMaxSchemaElements`).
///
/// The program is lazy against a caller's budget. A target t of position p
/// is dropped when even `w_n·cost(p, t)`, plus the cheapest f of each child
/// and the cheapest node terms of every position outside p's subtree, is
/// over the budget; and when f[p][t] itself, plus that outside term, is.
/// Both are lower bounds on every mapping through t at p, so a dropped
/// target is never part of a mapping within the budget. Before any of it,
/// the sum of the per-position minimum node terms is tested the same way.
///
/// With injectivity the enumerators search a subset of these mappings, so
/// the bound is a lower bound there too. It adds the same terms as an
/// enumerator in a different order, so a pruning test against it must
/// allow for rounding: compare with the enumerators' budget plus
/// `kLookaheadSlack`, orders of magnitude above that rounding.

namespace smb::match {

/// \brief Slack of every admissible pruning test over the matchers' plain
/// budget `δ·normalizer + 1e-12`: the exhaustive matcher's lookahead and
/// the candidate generator's schema filter both sum the contributions in
/// another order than the search does, and never cut within this margin.
inline constexpr double kLookaheadSlack = 1e-9;

/// \brief Scratch and query shape for `MinSum`; one instance per thread,
/// reused across schemas.
class TreeBound {
 public:
  /// `objective` (its query shape, options and edge-cost table) must
  /// outlive the instance.
  explicit TreeBound(const ObjectiveFunction* objective);

  /// \brief The cheapest Σ over every assignment of the query positions to
  /// nodes of schema `schema_index`, targets allowed to repeat, when it is
  /// at most `budget`; otherwise some value above `budget` (it may be
  /// +infinity). `costs[pos · n + node]` is the name+type node cost
  /// (unweighted, ≥ 0) of query pre-order position `pos` at `node`, with n
  /// the schema size. Exact up to the rounding of its own summation order.
  double MinSum(int32_t schema_index, std::span<const double> costs,
                double budget);

 private:
  const ObjectiveFunction* objective_;
  /// Children of each pre-order position.
  std::vector<std::vector<size_t>> children_;
  /// One past the last pre-order position of each position's subtree.
  std::vector<size_t> subtree_end_;
  /// `w_s · CodeCost(code)` by relation code.
  std::vector<double> edge_term_;
  // Per-schema scratch.
  std::vector<double> min_node_;   // w_n · min_t cost(p, t)
  std::vector<double> outside_;    // Σ of min_node_ outside p's subtree
  std::vector<double> min_f_;      // min_t f[p][t]; +inf when none is left
  std::vector<double> f_;          // f[p · n + t]; +inf when dropped
  /// The targets of each position that were not dropped: position p's are
  /// finite_[p · n, p · n + finite_count_[p]).
  std::vector<uint32_t> finite_;
  std::vector<size_t> finite_count_;
};

}  // namespace smb::match
