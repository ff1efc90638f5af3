#pragma once

#include <cstdint>
#include <vector>

#include "schema/repository.h"
#include "schema/schema.h"
#include "sim/name_similarity.h"

/// \file objective.h
/// \brief The objective function Δ : SS → R (§2.1).
///
/// Δ computes *how different* a query schema and the image of a mapping are
/// — lower is better, 0 means a perfect copy. It is the one component both
/// the exhaustive system S1 and every non-exhaustive improvement S2 must
/// share (§2.3): the entire bounds technique rests on identical ranking.
///
/// Composition (a weighted mean over per-node and per-edge costs, Δ ∈ [0,1]):
///  * node cost   — composite name distance (see sim/name_similarity.h)
///                  plus a type agreement adjustment;
///  * edge cost   — how much a query parent-child edge is distorted in the
///                  target schema: preserved edges cost 0, ancestor jumps a
///                  little, inverted or unrelated placements a lot.
///
/// `Delta = (w_n·Σ node + w_s·Σ edge) / (w_n·m + w_s·(m−1))`.
///
/// Edge costs are table lookups. The repository holds each schema's
/// query-independent relation codes (schema/repository.h: kind plus exact
/// gap or distance per node pair, built once in `SchemaRepository::Add`);
/// the objective maps every code to its cost once, in its constructor. An
/// enumerator fetches the code row of a parent's target once (`EdgeCodes`),
/// and each child state's edge cost is then one read of the code and one of
/// its cost (`CodeCost`). The candidate generator's schema filter
/// (match/tree_bound.h) reads the same two tables, so its bound is over the
/// very edge costs the enumerators add.

namespace smb::sim {
class BlockScorer;  // prepared_kernel.h
}  // namespace smb::sim

namespace smb::match {

/// \brief Δ parameters. Defaults give planted copies Δ≈0 and random
/// placements Δ near 1.
struct ObjectiveOptions {
  sim::NameSimilarityOptions name;

  /// Relative weight of name costs.
  double weight_name = 0.6;
  /// Relative weight of structural (edge) costs.
  double weight_structure = 0.4;

  /// Edge cost when the target of the query child is a proper descendant
  /// (not direct child) of the target of the query parent.
  double ancestor_penalty_base = 0.25;
  /// Added per extra level of depth gap (capped at 1).
  double ancestor_penalty_step = 0.10;
  /// Edge cost when the child's target is an *ancestor* of the parent's
  /// target (inverted hierarchy).
  double inverted_penalty = 0.85;
  /// Edge cost when the two targets are unrelated (siblings/cousins).
  double unrelated_penalty_base = 0.55;
  /// Added per unit of tree distance beyond 2 (capped at 1).
  double unrelated_penalty_step = 0.10;
  /// Edge cost when both query elements map to the same target node
  /// (only reachable with `injective == false`).
  double collapsed_penalty = 1.0;

  /// Consider declared simple types in the node cost.
  bool type_aware = true;
  /// Added to the name distance when both sides declare different types.
  double type_mismatch_penalty = 0.10;
};

/// \brief Name+type cost of assigning query node `q` to target node `t`.
/// In [0, 1]. The one formula shared by the lazy per-instance cache and the
/// candidate generator — both must rank identically.
double ComputeNodeCost(const schema::SchemaNode& q, const schema::SchemaNode& t,
                       const ObjectiveOptions& options);

/// \brief Same cost over pre-folded/pre-tokenized names — the per-pair
/// reference the candidate generator's kept costs are tested against
/// (tests/index/name_dictionary_test.cc). `qp`/`tp` must be
/// `sim::PrepareName` of `q.name`/`t.name` under `options.name`.
double ComputeNodeCost(const schema::SchemaNode& q, const sim::PreparedName& qp,
                       const schema::SchemaNode& t, const sim::PreparedName& tp,
                       const ObjectiveOptions& options);

/// \brief The type-agreement adjustment of the node cost, exposed so
/// kernel-driven fills (the candidate generator's BlockScorer loops) can
/// turn a raw name similarity into the full node cost with the exact
/// same expression: `min(1, cost + type_mismatch_penalty)` on a declared
/// type mismatch, `cost` otherwise.
double ApplyTypePenalty(double cost, const schema::SchemaNode& q,
                        const schema::SchemaNode& t,
                        const ObjectiveOptions& options);

/// \brief The cost `ApplyTypePenalty` returns on a declared type mismatch,
/// for callers that know the mismatch without the nodes (the candidate
/// generator reads it off the index's type buckets).
double PenalizeTypeMismatch(double cost, const ObjectiveOptions& options);

/// \brief Result of a threshold-aware node cost (see
/// `ComputeNodeCostWithCutoff`).
struct NodeCostCutoff {
  double cost = 0.0;
  bool exact = true;
};

/// \brief Node cost with an early-exit budget, through a caller-held
/// `sim::BlockScorer` (constructed over the query's prepared name with
/// `options.name`), so query-side setup — weight clamping, the PEQ bitmask
/// scatter — is paid once per query position instead of once per pair.
/// While the scorer is live, all costs for that position must go through
/// it (the kernel's thread-local scratch hosts one scorer at a time).
///
/// When the exact cost could be ≤ `max_cost`, computes it in full
/// precision (`exact == true`, bit-identical to `ComputeNodeCost`); when
/// the threshold-aware kernel proves the cost must exceed `max_cost`,
/// returns `exact == false` with an admissible *lower bound* on the exact
/// cost that is itself > `max_cost`. Top-C candidate selections feed their
/// current C-th cost in as `max_cost`: pruning then never changes the
/// selected set, and the lower bound keeps the skip-bound's truncation tier
/// admissible.
NodeCostCutoff ComputeNodeCostWithCutoff(sim::BlockScorer& scorer,
                                         const schema::SchemaNode& q,
                                         const schema::SchemaNode& t,
                                         const sim::PreparedName& tp,
                                         const ObjectiveOptions& options,
                                         double max_cost);

/// \brief One retrieved candidate target with its exact name+type cost.
///
/// The cost is produced by `ComputeNodeCost` over prepared names, so it is
/// bit-identical to what the lazy cache would compute for the same pair —
/// iterating candidates never changes a Δ, it only restricts which targets
/// are considered.
struct CandidateEntry {
  schema::NodeId node = schema::kInvalidNode;
  /// Exact name+type node cost in [0, 1].
  double cost = 0.0;
};

/// \brief Per query position and repository schema, the set of target nodes
/// worth scoring (implemented by index::QueryCandidates).
///
/// Matchers holding a provider iterate the returned lists instead of every
/// node of every schema — the non-exhaustive S2 restriction of the search
/// space. `SkipLowerBound` makes the restriction measurable: it is an
/// admissible lower bound on the node cost of every target *not* listed, so
/// Δ-threshold completeness can be argued (or refuted) per cell.
/// Implementations must be immutable and safe for concurrent reads.
class CandidateProvider {
 public:
  virtual ~CandidateProvider() = default;

  /// Candidate targets for query pre-order position `pos` in
  /// `schema_index`, sorted by ascending (cost, node). nullptr means
  /// "unrestricted" — the matcher falls back to iterating every node. An
  /// empty list means no viable target exists for that cell: either the
  /// schema has none, or the provider proved that no mapping into the
  /// schema is within the run's Δ (index::CandidateGenerator's schema
  /// filter empties every cell of such a schema). Either way the matchers
  /// find no answer through the cell.
  virtual const std::vector<CandidateEntry>* CandidatesFor(
      size_t pos, int32_t schema_index) const = 0;

  /// Admissible lower bound on the name+type cost of any node of
  /// `schema_index` not listed by `CandidatesFor(pos, schema_index)`.
  /// +infinity when the list is complete (nothing was skipped).
  virtual double SkipLowerBound(size_t pos, int32_t schema_index) const = 0;
};

/// \brief Evaluates Δ for mappings of one query schema into one repository.
///
/// Name costs are cached lazily per (query element, repository element)
/// inside the instance. Only `NodeCost` (and `AssignCost` / `Delta`, which
/// call it) writes that cache. With a `CandidateProvider` attached and node
/// costs read only from its lists (as the enumerating matchers do), the
/// instance is never written after construction and is safe for concurrent
/// reads: the batch engine shares one per run across its worker threads.
/// Without one, it is *not* thread-safe.
class ObjectiveFunction {
 public:
  /// `query`, `repo` and `candidates` (when non-null) must outlive the
  /// objective, and the provider must index schemas the way `repo` does.
  ObjectiveFunction(const schema::Schema* query,
                    const schema::SchemaRepository* repo,
                    ObjectiveOptions options = {},
                    const CandidateProvider* candidates = nullptr);

  /// Query elements in pre-order (position 0 is the root).
  const std::vector<schema::NodeId>& query_preorder() const {
    return preorder_;
  }

  /// For each pre-order position, the position of its parent
  /// (`kNoParent` for the root). Parents always precede children, which is
  /// what lets matchers accumulate edge costs incrementally.
  const std::vector<size_t>& parent_position() const {
    return parent_position_;
  }
  static constexpr size_t kNoParent = static_cast<size_t>(-1);

  /// \brief Name+type cost of assigning query position `pos` to `target`
  /// in schema `schema_index` (cached). In [0, 1].
  double NodeCost(size_t pos, int32_t schema_index,
                  schema::NodeId target) const;

  /// \brief Structural cost of a query edge whose endpoints map to
  /// `parent_target` and `child_target` in the same schema. In [0, 1].
  double EdgeCost(int32_t schema_index, schema::NodeId parent_target,
                  schema::NodeId child_target) const {
    return CodeCost(EdgeCodes(schema_index, parent_target)
                        [static_cast<size_t>(child_target)]);
  }

  /// \brief The edge cost of relation code `code`: one read of the table
  /// the constructor built. In [0, 1].
  double CodeCost(schema::RelationCode code) const { return edge_cost_[code]; }

  /// \brief The relation codes from `parent_target` to every node of
  /// schema `schema_index`, indexed by the child's target; nullptr for
  /// `kInvalidNode` (the root position has no edge). Enumerators fetch it
  /// once per parent target and hand it to `AssignCost`.
  const schema::RelationCode* EdgeCodes(int32_t schema_index,
                                        schema::NodeId parent_target) const {
    if (parent_target == schema::kInvalidNode) return nullptr;
    return repo_->relation_codes(schema_index) +
           static_cast<size_t>(parent_target) *
               repo_->schema(schema_index).size();
  }

  /// \brief Un-normalized cost contribution of assigning `pos` -> `target`,
  /// given the code row of `pos`'s parent target (`EdgeCodes`; nullptr for
  /// the root position). Summing contributions over all positions and
  /// dividing by `normalizer()` yields Δ. All contributions are >= 0, which
  /// makes prefix sums an admissible lower bound for search pruning.
  double AssignCost(size_t pos, int32_t schema_index, schema::NodeId target,
                    const schema::RelationCode* parent_codes) const {
    return AssignCostWithNodeCost(parent_codes, target,
                                  NodeCost(pos, schema_index, target));
  }

  /// \brief Same contribution when the name+type node cost is already known
  /// (the candidate path: `CandidateEntry::cost` is exact, so going through
  /// the lazy cache again would be wasted work).
  double AssignCostWithNodeCost(const schema::RelationCode* parent_codes,
                                schema::NodeId target,
                                double node_cost) const {
    double cost = options_.weight_name * node_cost;
    if (parent_codes != nullptr) {
      cost += options_.weight_structure *
              CodeCost(parent_codes[static_cast<size_t>(target)]);
    }
    return cost;
  }

  /// Candidate lists attached to this objective (nullptr = every node,
  /// costs from the lazy cache).
  const CandidateProvider* candidates() const { return candidates_; }

  /// Denominator of the weighted mean: `w_n·m + w_s·(m−1)`.
  double normalizer() const { return normalizer_; }

  /// \brief Full Δ of an assignment (targets indexed by pre-order position).
  double Delta(int32_t schema_index,
               const std::vector<schema::NodeId>& targets) const;

  const schema::Schema& query() const { return *query_; }
  const schema::SchemaRepository& repo() const { return *repo_; }
  const ObjectiveOptions& options() const { return options_; }

 private:
  const schema::Schema* query_;
  const schema::SchemaRepository* repo_;
  ObjectiveOptions options_;
  const CandidateProvider* candidates_ = nullptr;
  std::vector<schema::NodeId> preorder_;
  std::vector<size_t> parent_position_;
  double normalizer_ = 1.0;
  /// edge_cost_[code] = the edge cost of relation code `code`, for every
  /// code up to the repository's largest.
  std::vector<double> edge_cost_;
  /// Lazy node costs:
  /// cache_[schema_index][pos * schema_size + node] = node cost; empty until
  /// the schema is first touched.
  mutable std::vector<std::vector<double>> cache_;
};

}  // namespace smb::match
