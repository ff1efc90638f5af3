#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "index/prepared_repository.h"
#include "match/objective.h"
#include "schema/schema.h"

/// \file candidate_generator.h
/// \brief Sparse candidate generation: top-C targets per query element with
/// an admissible cost bound for everything skipped — at a fixed C, or
/// adaptively grown per cell until the bound certifies a completeness
/// target (`AdaptiveCandidatePolicy`).
///
/// For each (query position, repository schema) cell the generator
/// retrieves elements through the `PreparedRepository` postings (tokens,
/// synonym groups, exact/synonym name buckets, trigrams), scores the
/// retrieved set with the *exact* objective node cost (`ComputeNodeCost`
/// over prepared names — bit-identical to the dense pool), and keeps the C
/// cheapest. Cells short of C are padded with unretrieved elements (same
/// declared type first, then node order) so every cell offers
/// min(C, |schema|) candidates; with C ≥ |schema| every cell is complete
/// and matchers reproduce the dense answers exactly.
///
/// The skip-bound per cell is the minimum over three tiers (see
/// prepared_repository.h for the admissibility argument):
///  * scored-but-truncated elements: their exact minimum cost;
///  * retrieved-but-unscored elements: `(w_t/Σw)·(1 − D)` from their exact
///    trigram Dice D;
///  * never-retrieved elements: `(w_t/Σw)` (their Dice is 0).
///
/// **Bound as controller.** The skip-bound is not only telemetry: a cell is
/// *certified complete* at a Δ threshold when any mapping through one of
/// its skipped elements provably exceeds the threshold
/// (`QueryCandidates::CellProvablyComplete`). `GenerateAdaptive` uses that
/// certificate to drive the budget — each cell starts small and grows
/// geometrically only until it certifies (or a cap is hit), so easy cells
/// stay cheap and the hard ones get the candidates. The certification
/// margin is strictly wider than the matchers' pruning epsilon, so a
/// certified cell can never change an answer (every matcher discards
/// assignments whose cost exceeds `delta·normalizer + 1e-12`, and
/// certification requires the skipped cost to exceed that by ≥ 1e-9 in
/// normalized Δ units).
///
/// **When only full coverage certifies, the rounds are planned.** Every
/// finite skip-bound is at most 1: node costs, the cutoff kernel's lower
/// bounds and the trigram tiers all lie in [0, 1]. With `weight_name ≥ 0`
/// the Δ-unit bound `weight_name · skip / normalizer` is monotone in the
/// skip-bound under IEEE rounding, so when a skip-bound of 1.0 does not
/// certify at Δ, no finite one does. A cell then certifies exactly when
/// its limit reaches its schema size (skip-bound +infinity). That is the
/// served regime: with m = 5 and the default weights `weight_name / 4.6`
/// is 0.13 against Δ = 0.25. There `GenerateAdaptive` runs the round
/// schedule on the integer limits alone, with no scoring, and then scores
/// every cell once at its final limit — the same pass `Generate` runs with
/// one uniform limit. Lists, skip-bounds, certificates and every
/// `AdaptiveGenerationStats` field except the two work counters are those
/// of the round-by-round loop (scoring at a limit from scratch equals the
/// escalated cell, below); `budget_spent` and `costs_computed` count the
/// single pass. Outside the regime (a tight Δ, or m ≤ 2 at Δ = 0.25) the
/// round loop scores each round as described next.
///
/// **Escalation reuses costs.** An escalated cell is scored again at the
/// larger limit, but the costs of its current entries are exact, so they
/// are reused wherever a full `ComputeNodeCost` would run (while the
/// list is filling, and when threshold-aware pruning is off or cannot
/// apply). Only the pruned branch (`ComputeNodeCostWithCutoff`) always
/// runs, since a pruned candidate's lower bound feeds the skip-bound.
/// A reused cost is the value `ComputeNodeCost` would return (and an exact
/// cutoff cost is bit-identical to it), so lists, skip-bounds and
/// certificates are byte-identical to scoring every round from scratch
/// (`tests/index/adaptive_candidate_test.cc` replays the rounds through
/// `Generate` as the oracle). A larger limit visits the same candidates
/// first, in the same order, so the old entries fill the new list before
/// any new candidate is costed. The candidates considered
/// per round are counted in `AdaptiveGenerationStats::budget_spent`; the
/// costs actually evaluated in `costs_computed`.
///
/// **Each distinct name is scored once per position.** A full node cost is
/// `ApplyTypePenalty(1 − sim(query name, element name), types)`, and the
/// similarity depends on the element only through its folded name, which
/// `PreparedRepository::name_id` numbers densely. So the engine keeps, per
/// query position, the similarity of every name id it has scored, and an
/// element whose name was already scored at that position pays only its
/// type penalty. The memo holds the raw similarity, never a penalized
/// cost, and the cost is `ComputeNodeCost`'s own expression, so every cost
/// is bit-identical to the unmemoized one. The threshold-aware branch is
/// not memoized (its pruned lower bounds feed the skip-bound). The memo
/// changes no list, no skip-bound and neither `budget_spent` nor
/// `costs_computed`; the similarity-kernel runs it leaves are counted in
/// `AdaptiveGenerationStats::names_scored`.
///
/// **Threads.** Cells are independent, so with `set_num_threads(N > 1)`
/// retrieval runs per query position and scoring per block of cells on N
/// workers (`ParallelFor`), each with its own scratch, `BlockScorer` and
/// copy of the block-max resume hints. The output never depends on N:
///  * round 0, the planned single pass and fixed-C generation score every
///    cell, so blocks simply land in their own cells;
///  * an escalation round must stop at the very cell where the serial loop
///    stops — the first one, in (position, schema) order, after which the
///    certified fraction reaches the target. Workers score order-contiguous
///    blocks speculatively into scratch, and blocks are *committed in
///    order*: a cell's result reaches the output (and the budget) only
///    after every earlier cell of the round was committed and the target
///    was still unmet before it. Once the target is met the rest of the
///    round is discarded; that wasted work is counted separately
///    (`AdaptiveGenerationStats::speculative_scored`).
/// A worker escalating a cell reads that cell's current entries in the
/// output, for cost reuse, without a lock: only the cell's own in-order
/// commit writes them, and that commit runs after the worker's block has
/// finished.
/// With one thread (the default) generation is the plain serial loop.

namespace smb::index {

/// \brief Per-query candidate lists — the sparse `match::CandidateProvider`
/// handed to matchers. Immutable, safe for concurrent reads, and
/// independent of any other query, so many queries can share one
/// `PreparedRepository` while each holds its own `QueryCandidates`.
class QueryCandidates : public match::CandidateProvider {
 public:
  const std::vector<match::CandidateEntry>* CandidatesFor(
      size_t pos, int32_t schema_index) const override {
    return &cells_[pos * schema_count_ + static_cast<size_t>(schema_index)]
                .entries;
  }

  double SkipLowerBound(size_t pos, int32_t schema_index) const override {
    return cells_[pos * schema_count_ + static_cast<size_t>(schema_index)]
        .skip_bound;
  }

  /// Query pre-order positions covered.
  size_t positions() const { return positions_; }
  size_t schema_count() const { return schema_count_; }
  /// The cutoff C the lists were generated with (for adaptive generation:
  /// the largest per-cell limit any cell ended at).
  size_t limit() const { return limit_; }

  /// Σ list sizes — candidate entries the index produced.
  uint64_t candidates_generated() const { return generated_; }
  /// Σ (|schema| − list size) — repository nodes never handed to matchers.
  uint64_t candidates_skipped() const { return skipped_; }

  /// \brief The cell's skip-bound translated to Δ units: an admissible
  /// lower bound on the Δ of any mapping that assigns this query position
  /// to a target *not* in the cell's candidate list
  /// (`weight_name · skip_bound / normalizer`). +infinity when the list
  /// covers the whole schema.
  double CellDeltaBound(size_t pos, int32_t schema_index) const {
    const Cell& cell =
        cells_[pos * schema_count_ + static_cast<size_t>(schema_index)];
    return weight_name_ * cell.skip_bound / normalizer_;
  }

  /// \brief True when the cell's skip-bound *certifies* that no mapping
  /// with Δ ≤ `delta_threshold` passes through a skipped element of the
  /// cell. The margin (1e-9 in Δ units) strictly dominates the matchers'
  /// pruning epsilon (1e-12 on the un-normalized cost scale), so matching
  /// over a certified cell is provably answer-identical to matching over
  /// the full node set of that cell.
  bool CellProvablyComplete(size_t pos, int32_t schema_index,
                            double delta_threshold) const;

  /// \brief Fraction of (position, schema) cells certified complete at
  /// `delta_threshold` (`CellProvablyComplete`) — the measurable
  /// completeness knob: at 1.0 the sparse answers are certified identical
  /// to the dense ones.
  double ProvablyCompleteFraction(double delta_threshold) const;

 private:
  friend class CandidateGenerator;

  struct Cell {
    std::vector<match::CandidateEntry> entries;
    /// Admissible lower bound on the node cost of any unlisted target;
    /// +infinity when the list covers the whole schema.
    double skip_bound = 0.0;
  };

  std::vector<Cell> cells_;
  size_t positions_ = 0;
  size_t schema_count_ = 0;
  size_t limit_ = 0;
  uint64_t generated_ = 0;
  uint64_t skipped_ = 0;
  /// Objective shape for the Δ-unit bound: Δ of a mapping through a
  /// skipped node is at least `weight_name_ · skip_bound / normalizer_`.
  double weight_name_ = 0.0;
  double normalizer_ = 1.0;
};

/// \brief Bound-driven budget policy for `GenerateAdaptive`: grow each
/// cell's candidate list geometrically until its skip-bound certifies
/// completeness, stopping globally once the target fraction of cells is
/// certified.
struct AdaptiveCandidatePolicy {
  /// Per-query completeness target in [0, 1]: escalation stops as soon as
  /// `ProvablyCompleteFraction(delta) ≥` this. 1.0 demands every cell be
  /// certified — with an unbounded cap the answers are then byte-identical
  /// to the dense path for every matcher; 0.0 never escalates (every cell
  /// stays at `initial_limit`, exactly `Generate(query, initial_limit)`).
  double min_provable_completeness = 1.0;
  /// Candidate list size every cell starts at (round 0).
  size_t initial_limit = 4;
  /// Per-escalation multiplier of a cell's limit (≥ 2).
  size_t growth_factor = 2;
  /// Hard per-cell cap on the limit; 0 = unbounded (a cell may grow until
  /// it covers its whole schema, which always certifies). With a finite
  /// cap the target may be unreachable — generation still succeeds and the
  /// achieved fraction is reported in `AdaptiveGenerationStats`.
  size_t max_limit = 0;
};

/// \brief What one `GenerateAdaptive` run spent and achieved — the
/// bound-as-scheduler telemetry (budget, escalations, achieved bound
/// distribution).
struct AdaptiveGenerationStats {
  /// Escalation rounds after the initial one (0 = round 0 already met the
  /// target).
  size_t rounds = 0;
  size_t cells_total = 0;
  /// Cells certified complete at the run's Δ threshold when generation
  /// stopped.
  size_t cells_certified = 0;
  /// Cells whose list was regenerated at a larger limit at least once.
  size_t cells_escalated = 0;
  /// Cells that hit `max_limit` (or full schema coverage) without
  /// certifying.
  size_t cells_at_cap = 0;
  /// Candidates *considered* across all rounds: the size of each scored
  /// cell's scoring set, summed per round, so an escalated cell counts its
  /// earlier candidates again. Costs reused from earlier rounds are not
  /// paid again; `costs_computed` is the paid cost. Counts committed cells
  /// only, so it is the same for every thread count. When only full
  /// coverage can certify at the run's Δ (see "planned" in the file
  /// comment) each cell is scored once at its final limit, so this is the
  /// sum of the final scoring sets and equals `costs_computed`.
  uint64_t budget_spent = 0;
  /// Node costs actually evaluated for committed cells (full or
  /// threshold-pruned), after reusing each escalated cell's known entry
  /// costs. At most `budget_spent`; the same for every thread count.
  uint64_t costs_computed = 0;
  /// Full name similarities (`sim::BlockScorer::Score`) computed for
  /// committed cells: the full costs among `costs_computed` that the
  /// per-position name memo did not absorb (see "Each distinct name is
  /// scored once per position" above). Threshold-pruned costs are not
  /// counted. Each engine, one per call and one per worker thread, keeps
  /// its own memo, so like `speculative_scored` this varies with the
  /// thread count; with one thread it is at most positions × name count
  /// per pass over the positions.
  uint64_t names_scored = 0;
  /// Candidates scored on worker threads for cells past the point where
  /// the target was met, then discarded (see "Threads" above). Always 0
  /// with one thread; with `names_scored`, the only field that may vary
  /// with the thread count or the scheduling.
  uint64_t speculative_scored = 0;
  /// `ProvablyCompleteFraction(delta_threshold)` of the final lists — the
  /// certified per-query bound.
  double achieved_completeness = 1.0;
  /// Achieved budget distribution: (final per-cell limit, cell count),
  /// ascending by limit. Shows where the bound spent the budget — easy
  /// cells stay at `initial_limit`, hard ones climb.
  std::vector<std::pair<size_t, uint64_t>> final_limit_distribution;
};

/// \brief Turns a `PreparedRepository` into per-query candidate lists.
class CandidateGenerator {
 public:
  /// `prepared` must outlive the generator. `objective` must use the same
  /// name options the index was built with (checked in Generate).
  CandidateGenerator(const PreparedRepository* prepared,
                     match::ObjectiveOptions objective);

  /// \brief Generates the top-`limit` candidate lists for every
  /// (query pre-order position, repository schema) cell.
  Result<QueryCandidates> Generate(const schema::Schema& query,
                                   size_t limit) const;

  /// \brief Bound-driven generation: every cell starts at
  /// `policy.initial_limit` and uncertified cells are regenerated at
  /// geometrically growing limits until the fraction of cells certified
  /// complete at `delta_threshold` reaches
  /// `policy.min_provable_completeness`, or every uncertified cell has hit
  /// its cap. Retrieval runs once per query position and is reused across
  /// rounds, and so are the exact costs of an escalated cell's entries;
  /// scoring reuses the same max-heap/cutoff machinery as `Generate`, so
  /// kept candidate costs stay bit-identical to the dense pool's. When no
  /// list short of its whole schema can certify at `delta_threshold`, the
  /// rounds are planned from the schema sizes and every cell is scored
  /// once (see the file comment). `stats`, when non-null, receives the
  /// spent budget and the achieved bound.
  Result<QueryCandidates> GenerateAdaptive(
      const schema::Schema& query, const AdaptiveCandidatePolicy& policy,
      double delta_threshold, AdaptiveGenerationStats* stats = nullptr) const;

  /// \brief Toggles threshold-aware scoring (on by default): once a cell's
  /// list is full, the current C-th cost feeds
  /// `match::ComputeNodeCostWithCutoff` so provably-worse candidates stop
  /// early instead of being scored in full. Pruning never changes the
  /// selected entries or their costs (tests disable it to prove that);
  /// pruned candidates contribute admissible lower bounds to the
  /// skip-bound's truncation tier.
  void set_cutoff_enabled(bool enabled) { cutoff_enabled_ = enabled; }

  /// \brief Toggles block-max postings traversal (on by default). When
  /// enabled, retrieval skips the full trigram postings walk and each cell
  /// selects its trigram candidates with a WAND-style traversal over the
  /// `PreparedRepository`'s per-block score upper bounds, skipping posting
  /// blocks that provably cannot beat the cell's current C-th-best Dice.
  /// The selected candidate set — and therefore every entry and its cost —
  /// is identical to the classic retrieve-everything path (tests compare
  /// the two); only the skip-bound may differ, downward, and it stays
  /// admissible. Disable to use the classic path as the oracle.
  void set_block_max_enabled(bool enabled) { block_max_enabled_ = enabled; }

  /// \brief Worker threads for retrieval and cell scoring (1 by default:
  /// the calling thread only; 0 = one per hardware thread). Candidate
  /// lists, skip-bounds and every `AdaptiveGenerationStats` field except
  /// `speculative_scored` and `names_scored` are identical for every
  /// value.
  void set_num_threads(size_t threads) { num_threads_ = threads; }

 private:
  Status ValidateQuery(const schema::Schema& query) const;
  void InitOutput(const schema::Schema& query, QueryCandidates* out) const;
  /// Scores every cell of `out` once, at `limits[cell]` (position-major),
  /// from scratch — serially, or on the workers — and adds the candidates
  /// considered, costs computed and names scored to `spent`.
  void ScoreEveryCell(const schema::Schema& query,
                      const std::vector<schema::NodeId>& preorder,
                      const std::vector<size_t>& limits, QueryCandidates* out,
                      AdaptiveGenerationStats* spent) const;
  /// Recomputes generated/skipped totals from the final cells (the
  /// adaptive path re-scores cells, so accumulating during generation
  /// would double-count).
  void FinalizeCounts(QueryCandidates* out) const;

  const PreparedRepository* prepared_;
  match::ObjectiveOptions objective_;
  /// w_t / Σw — the trigram share of the composite measure, the analytic
  /// floor of the skip-bound.
  double trigram_weight_share_ = 0.0;
  bool cutoff_enabled_ = true;
  bool block_max_enabled_ = true;
  size_t num_threads_ = 1;
};

}  // namespace smb::index
