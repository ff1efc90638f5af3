#pragma once

#include "match/matcher.h"

/// \file exhaustive_matcher.h
/// \brief S1 — the complete (exhaustive) matching system.
///
/// Enumerates *every* mapping of the query elements into each repository
/// schema and returns all with Δ ≤ δ_max. Completeness is what defines an
/// exhaustive system in the paper (§2.1): `A^δ_S = {a ∈ SS | Δ(a) ≤ δ}`.
///
/// The depth-first search is a branch-and-bound over the unnormalized sum
/// Σ = Δ·normalizer, with budget `δ·normalizer + 1e-12`. It cuts a branch
/// only when no completion of it can stay within that budget, so it never
/// removes a qualifying answer:
///  * every contribution (`ObjectiveFunction::AssignCost`) is ≥ 0, so a
///    partial sum already over budget stays over budget;
///  * the contribution of query position q is `w_name·node + w_s·edge ≥
///    w_name·min(q)`, where `min(q)` is the cheapest node cost q can get in
///    the schema (the first entry of its candidate list, which ascends by
///    cost, or the row minimum of the node costs on the dense path). So
///    `suffix[p] = Σ_{q ≥ p} w_name·min(q)` lower-bounds what positions
///    p..m−1 still add, and a partial sum `cost` at position p is cut when
///    `cost + suffix[p + 1]` exceeds the budget — the *lookahead*;
///  * the lookahead compares against the budget plus a further
///    `kLookaheadSlack` (1e-9, match/tree_bound.h). The suffix sums add the
///    same terms in a different order than the search does, and the slack
///    is orders of magnitude above that rounding, so a mapping the plain
///    `Σ ≤ budget` test keeps is never cut. The candidate generator's
///    schema filter tests its tree bound against the same slack.
///
/// The same bound cuts a sorted candidate list at its first entry whose
/// cheapest completion is over budget, and skips a schema outright when
/// `suffix[0]` is. The search order and every emitted Δ are those of the
/// unpruned enumeration; only the work counters differ.

namespace smb::match {

/// \brief The complete reference system S1.
class ExhaustiveMatcher : public Matcher {
 public:
  std::string name() const override { return "exhaustive"; }

  Status MatchSchemas(const ObjectiveFunction& objective, size_t first,
                      size_t count, const MatchOptions& options,
                      AnswerSet* out, MatchStats* stats) const override;
};

}  // namespace smb::match
