#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "index/name_row_cache.h"
#include "index/prepared_repository.h"
#include "match/objective.h"
#include "schema/schema.h"

/// \file candidate_generator.h
/// \brief Sparse candidate generation: top-C targets per query element with
/// an admissible cost bound for everything skipped, grown per cell until
/// the bound certifies a completeness target (`AdaptiveCandidatePolicy`;
/// a fixed C is its target 0).
///
/// For each (query position, repository schema) cell the generator
/// retrieves elements through the `PreparedRepository` postings (tokens,
/// synonym groups, exact/synonym name buckets, trigrams), scores the
/// retrieved set with the *exact* objective node cost (`ComputeNodeCost`
/// over prepared names — bit-identical to the lazy path), and keeps the C
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
/// single pass. Outside the regime (a tight Δ, or m ≤ 2 at Δ = 0.25)
/// round 0 is that same pass at the initial limit, and each escalation
/// round scores the cells it grows as described next.
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
/// **Full-coverage cells are gathered from name rows.** A full node cost
/// is `ApplyTypePenalty(1 − sim(query name, element name), types)`, and
/// the similarity depends on the element only through its folded name,
/// which `PreparedRepository::name_id` numbers densely. In the single pass
/// that scores every cell (round 0, or the planned pass), each query
/// position first gets a *name row*: the distinct names of its
/// full-coverage cells (limit ≥ |schema|), scored in one batched
/// `sim::BlockScorer::ScoreMany` call (`min_score` 0, bit-identical to
/// `Score`) over one representative element per name
/// (`PreparedRepository::name_representative`). The pass then walks the
/// schemas in ranges, one schema at a time on a worker's scratch: every
/// node of a full-coverage cell is costed from its position's row (the
/// type penalty read off the index's type buckets, one flag per element,
/// instead of comparing type strings), and the cell is those costs sorted
/// by (cost, node), skip-bound +infinity — no retrieval, WAND walk or
/// heap. That is exactly
/// what the heap path keeps at such a limit, since it drops and prunes
/// nothing there. The row never scores more names than the per-cell path
/// did: that path sends every node of a full-coverage cell through a full
/// cost, so it scored each of the row's names too. Partial cells keep the
/// heap path; their full costs read the row for names it holds and else a
/// per-engine memo keyed by name id, so each other name is scored at most
/// once per position and engine. The row and the memo hold raw
/// similarities, never penalized costs, and every cost is
/// `ComputeNodeCost`'s own expression, so every cost is bit-identical to
/// the unmemoized one. The threshold-aware branch reads neither (its
/// pruned lower bounds feed the skip-bound); escalation rounds read the
/// rows round 0 left and the memo. None of this changes a list, a
/// skip-bound, `budget_spent` or `costs_computed`; the similarity-kernel
/// runs left are counted in `AdaptiveGenerationStats::names_scored`.
/// Retrieval runs only for positions that have a partial cell left to
/// score: every position prepares its query name, which the row needs,
/// and the rest of the retrieval waits until the schema filter below has
/// run (a position whose cells are all full coverage never escalates).
///
/// **Schemas with no answer are dropped before their lists are built.**
/// `GenerateForMatching`, the matching engine's entry, adds one step to
/// the planned pass, where no round follows it. In that schema-major walk
/// each schema first gets the node cost of every (position, node) from
/// the rows: a full-coverage cell's exactly, and for a partial cell 0 for
/// any name its position's row does not hold (an admissible lower bound
/// that needs no extra name scoring; with a `NameRowCache` the rows hold
/// every name). `match::TreeBound` then computes the exact cheapest Σ of
/// any mapping into the schema over those costs — the sum of per-position
/// minimums first, then a min-sum over the query tree whose edge terms are
/// the objective's relation-code table — lazily against the matchers'
/// budget `Δ·normalizer + 1e-12` plus `match::kLookaheadSlack`. A schema
/// over that budget holds no answer within Δ for any matcher, injective or
/// not, so its cells stay empty: no gather, sort, retrieval, heap scoring
/// or search. Its full-coverage cells keep skip-bound +infinity
/// (certified, as when gathered), its partial cells get 0 (uncertified, as
/// every finite bound is in this regime), so certificates,
/// `ProvablyCompleteFraction` and the stats of the rounds do not change; a
/// schema that passes gets exactly `GenerateAdaptive`'s cells. So matching
/// over either gives the same answers and Δ values, and only work counters
/// move: `schemas_pruned` counts the dropped schemas, and `budget_spent`,
/// `costs_computed` and `names_scored` lose the heap work of their partial
/// cells (their full-coverage cells are still costed, by the filter).
/// `candidates_generated` and `candidates_skipped` count a dropped cell's
/// `CandidatesOffered`, so they do not move either. `GenerateAdaptive` and
/// `Generate` never drop a schema: their lists are exact at every cell.
///
/// **Rows across requests.** With a `NameRowCache` set
/// (`set_name_row_cache`; the serve path passes its generation's), each
/// position of the single pass first looks up its folded query name. On a
/// hit the position gathers from the cached row and its partial cells
/// read every name from it, so the position scores no name. On a miss a
/// position with a full-coverage cell scores the *complete* row, every
/// name id of the index, and inserts it; a position without one inserts
/// nothing and scores as above. A cached entry is the `min_score` 0
/// `ScoreMany` value of its name, the value the memo and an uncached row
/// hold, and the type penalty is applied per element after the lookup, so
/// lists, skip-bounds, certificates, `budget_spent` and `costs_computed`
/// are those of an uncached run; only `names_scored` falls.
///
/// **Threads.** Cells are independent, so with `set_num_threads(N > 1)`
/// retrieval runs per query position and scoring per block of cells on N
/// workers (`ParallelFor`), each with its own scratch, `BlockScorer` and
/// copy of the block-max resume hints. Every pass goes through one
/// scorer, `ParallelCellScorer`, at every thread count; with one worker it
/// runs inline on the calling thread. The output never depends on N:
///  * the single pass scores every cell, so blocks simply land in their
///    own cells. The name rows are filled first, in (position, name chunk)
///    items, and the workers then share them read-only; the schema-major
///    walk (costs, tree bound, gather) runs in schema-range items, each
///    worker with its own cost and `match::TreeBound` scratch;
///  * an escalation round must stop at the very cell where a serial loop
///    stops — the first one, in (position, schema) order, after which the
///    certified fraction reaches the target. Workers score order-contiguous
///    blocks speculatively into scratch, and blocks are *committed in
///    order*: a cell's result reaches the output (and the budget) only
///    after every earlier cell of the round was committed and the target
///    was still unmet before it. Once the target is met the rest of the
///    round is discarded; that wasted work is counted separately
///    (`AdaptiveGenerationStats::speculative_scored`). One worker checks
///    the target before it scores each cell, so it scores nothing past
///    the stop point.
/// A worker escalating a cell reads that cell's current entries in the
/// output, for cost reuse, without a lock: only the cell's own in-order
/// commit writes them, and that commit runs after the worker's block has
/// finished.

namespace smb::index {

// Defined in candidate_generator.cc.
struct PositionRetrieval;
class ParallelCellScorer;

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

  /// The candidates cell (`pos`, `schema_index`) was given:
  /// min(final limit, |schema|). Its list holds exactly these unless the
  /// schema filter of `GenerateForMatching` emptied it (see "Schemas with
  /// no answer" in the file comment).
  size_t CandidatesOffered(size_t pos, int32_t schema_index) const {
    return cells_[pos * schema_count_ + static_cast<size_t>(schema_index)]
        .offered;
  }

  /// Σ `CandidatesOffered` — candidate entries the index produced, or would
  /// have for the schemas the filter emptied, so the count does not depend
  /// on the filter.
  uint64_t candidates_generated() const { return generated_; }
  /// Σ (|schema| − `CandidatesOffered`) — repository nodes the cutoff left
  /// out.
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
    /// min(final limit, |schema|); see `CandidatesOffered`.
    size_t offered = 0;
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
  /// to the dense path for every matcher; 0.0 is the fixed-C policy
  /// (`--candidates=C`): it never escalates, so every cell stays at
  /// `initial_limit`, and `Generate(query, C)` is this policy with
  /// `initial_limit` C.
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
  /// Name similarities computed for committed cells: the entries of the
  /// name rows this call scored plus the per-engine memo's misses (full
  /// costs of partial cells whose name is in no row; see "gathered from
  /// name rows" above). Without a row cache a position's row holds one
  /// entry per distinct name of its full-coverage cells; with one, a
  /// position that missed the cache and has a full-coverage cell scores
  /// its complete row (the index's name count), and a position that hit
  /// scores nothing. Threshold-pruned costs are not counted. The rows are
  /// the same for every thread count, but each engine, one per call and
  /// one per worker thread, keeps its own memo, so like
  /// `speculative_scored` this varies with the thread count when some cell
  /// is partial and its position has no cached row; when every cell covers
  /// its schema and no cache is set it is positions × name count. With one
  /// thread and no cache it is at most positions × name count per pass
  /// over the positions, and never more than scoring each cell's names
  /// through the memo alone.
  uint64_t names_scored = 0;
  /// Query positions whose name row came from the `NameRowCache` (hits);
  /// 0 without a cache. Those positions scored no name.
  uint64_t rows_cached = 0;
  /// Schemas `GenerateForMatching` left with empty cells because no
  /// mapping into them is within Δ (see "Schemas with no answer" in the
  /// file comment). 0 from `GenerateAdaptive` and outside the planned
  /// regime. The same for every thread count; with a `NameRowCache` it may
  /// be larger than without (a complete row bounds more names exactly).
  uint64_t schemas_pruned = 0;
  /// Candidates scored on worker threads for cells past the point where
  /// an escalation round met the target, then discarded (see "Threads"
  /// above). Always 0 with one thread, which checks the target before
  /// each cell, and when no round runs (target 0, or the planned rounds);
  /// with `names_scored`, the only field that may vary with the thread
  /// count or the scheduling.
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
  /// (query pre-order position, repository schema) cell: the fixed-C
  /// policy, `GenerateAdaptive` at target 0 with `initial_limit` `limit`.
  Result<QueryCandidates> Generate(const schema::Schema& query,
                                   size_t limit) const;

  /// \brief `GenerateAdaptive` for a matching run at `delta_threshold`.
  /// Outside the planned regime it is exactly `GenerateAdaptive`. In it
  /// (see "Schemas with no answer" in the file comment), a schema whose
  /// exact tree bound shows that no mapping into it is within
  /// `delta_threshold` gets empty cells: skip-bound +infinity where the
  /// cell's limit covers the schema, 0 elsewhere, so every certificate and
  /// `ProvablyCompleteFraction` are those of `GenerateAdaptive`. Every
  /// other cell is `GenerateAdaptive`'s, so matching over these lists gives
  /// the same answers for every matcher that keeps only mappings within Δ.
  /// The dropped schemas are counted in `schemas_pruned`.
  Result<QueryCandidates> GenerateForMatching(
      const schema::Schema& query, const AdaptiveCandidatePolicy& policy,
      double delta_threshold, AdaptiveGenerationStats* stats = nullptr) const;

  /// \brief Bound-driven generation: every cell starts at
  /// `policy.initial_limit` and uncertified cells are regenerated at
  /// geometrically growing limits until the fraction of cells certified
  /// complete at `delta_threshold` reaches
  /// `policy.min_provable_completeness`, or every uncertified cell has hit
  /// its cap. Round 0 scores every cell once, full-coverage cells by the
  /// name-row gather (see the file comment). Retrieval runs once per query
  /// position and is reused across rounds, and so are the exact costs of
  /// an escalated cell's entries; every cost stays bit-identical to
  /// `ComputeNodeCost`. When no list short of its whole schema can certify
  /// at `delta_threshold`, the rounds are planned from the schema sizes
  /// and that single pass runs at the final limits instead. `stats`, when
  /// non-null, receives the spent budget and the achieved bound.
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

  /// \brief Shares name rows across calls through `cache` (none by
  /// default; nullptr turns it off again). The cache must belong to this
  /// generator's `PreparedRepository` (checked in Generate) and outlive
  /// the calls. Lists and skip-bounds do not change (see "Rows across
  /// requests" in the file comment); `names_scored` falls and
  /// `rows_cached` counts the hits.
  void set_name_row_cache(NameRowCache* cache) { row_cache_ = cache; }

 private:
  /// Both entries: `GenerateForMatching` with `prune_schemas`, else
  /// `GenerateAdaptive`.
  Result<QueryCandidates> GenerateLists(const schema::Schema& query,
                                        const AdaptiveCandidatePolicy& policy,
                                        double delta_threshold,
                                        AdaptiveGenerationStats* stats,
                                        bool prune_schemas) const;
  Status ValidateQuery(const schema::Schema& query) const;
  void InitOutput(const schema::Schema& query, QueryCandidates* out) const;
  /// Scores every cell of `out` once, at `limits[cell]` (position-major),
  /// from scratch on `workers`, gathering each cell whose limit reaches
  /// its schema size from its position's name row (cached or scored), and
  /// adds the candidates considered, costs computed, names scored and rows
  /// cached to `spent`. With a `filter` (the run's objective), a schema
  /// whose tree bound exceeds `delta_threshold`'s budget gets empty cells
  /// instead and is counted in `schemas_pruned`. Leaves each position's
  /// retrieval (and row) in `retrievals` for the escalation rounds.
  void ScoreEveryCell(ParallelCellScorer& workers, const schema::Schema& query,
                      const std::vector<schema::NodeId>& preorder,
                      const std::vector<size_t>& limits,
                      const match::ObjectiveFunction* filter,
                      double delta_threshold,
                      std::vector<PositionRetrieval>* retrievals,
                      QueryCandidates* out,
                      AdaptiveGenerationStats* spent) const;
  /// Recomputes generated/skipped totals from the final cells and their
  /// `limits` (the adaptive path re-scores cells, so accumulating during
  /// generation would double-count).
  void FinalizeCounts(const std::vector<size_t>& limits,
                      QueryCandidates* out) const;

  const PreparedRepository* prepared_;
  match::ObjectiveOptions objective_;
  /// w_t / Σw — the trigram share of the composite measure, the analytic
  /// floor of the skip-bound.
  double trigram_weight_share_ = 0.0;
  bool cutoff_enabled_ = true;
  bool block_max_enabled_ = true;
  size_t num_threads_ = 1;
  NameRowCache* row_cache_ = nullptr;
};

}  // namespace smb::index
