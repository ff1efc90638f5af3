#include "index/candidate_generator.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string_view>
#include <utility>

#include "common/mutex.h"
#include "common/parallel.h"
#include "match/fingerprint.h"
#include "match/tree_bound.h"
#include "sim/prepared_kernel.h"
#include "sim/synonyms.h"

/// \file candidate_generator.cc
/// \brief Candidate generation under one policy: fixed-C is its target 0.
///
/// One engine serves every target: a per-position *retrieval* pass
/// (postings → retrieved elements with exact trigram Dice and
/// strong-evidence flags) and a per-cell *scoring* pass (max-heap of the C
/// cheapest exact node costs with threshold-aware pruning, emitting the
/// admissible skip-bound). `ScoreEveryCell` runs retrieval + one scoring
/// pass per cell at a per-cell limit. There a cell whose limit reaches its
/// schema size skips the scoring pass: it is gathered from its position's
/// name row (one batched similarity per distinct name of the position's
/// full-coverage cells) and sorted; for `GenerateForMatching` in the
/// planned regime a schema whose tree bound (`match::TreeBound`) is over
/// the run's budget is left empty first. `GenerateAdaptive` runs that pass
/// once:
/// at the initial limit (round 0), or — when only full coverage can
/// certify at the run's Δ — at the final limits of escalation rounds
/// planned from the schema sizes. Outside the planned regime it then keeps
/// the retrieval state alive and re-scores only the cells whose bound has
/// not yet certified the caller's completeness target, at geometrically
/// growing limits; at target 0 no round runs, which is `Generate`. A
/// re-scored cell reuses the exact costs of its current entries instead of
/// evaluating them again. Within one query position each distinct element
/// name is scored once per engine: full costs read the name row, else the
/// engine's memo of the name similarity by the index's name id, and add
/// each element's type penalty on top. With a `NameRowCache` the single
/// pass takes each position's row from the cache when it can and inserts
/// the complete rows it scores. Every scoring pass, at every thread count,
/// runs through `ParallelCellScorer`, which commits scored cells in cell
/// order so the output matches a serial loop exactly (one worker runs that
/// loop inline); rows and gathers write disjoint entries and cells, in any
/// order.

namespace smb::index {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Certification margin in Δ units. Every matcher, the exhaustive one
/// with its lookahead included, discards partial assignments whose cost
/// exceeds `delta·normalizer + 1e-12`, so a skipped element whose Δ-unit
/// bound exceeds the threshold by this much strictly cannot contribute an
/// answer.
constexpr double kCertifyMargin = 1e-9;

/// One retrieved element of the current query position.
struct Retrieved {
  uint32_t ordinal = 0;
  /// Exact trigram Dice against the query name (0 for strong-only hits).
  double dice = 0.0;
  /// Token / synonym / name-bucket evidence — always scored exactly (the
  /// synonym tiers are required for the skip-bound to stay admissible).
  bool strong = false;
};

/// One distinct query trigram for the block-max traversal: its posting
/// list in the index plus the query-side multiplicity. Scoring writes the
/// resume hint, so every worker thread scores through its own copy.
struct WandTerm {
  int32_t list = -1;
  uint32_t qmult = 0;
  /// Resume hint: where the previous cell's range ended in this term's
  /// list. Cells are scored in ascending ordinal order within a position,
  /// so the hint is usually exactly the next cell's lower bound; it is
  /// validated in O(1) and falls back to a binary search when stale
  /// (adaptive escalation rounds revisit cells out of order).
  const TrigramPosting* hint = nullptr;
};

/// Marks a name id that is not in a position's name row (similarities are
/// in [0, 1]).
constexpr double kNotInRow = -1.0;

}  // namespace

/// Retrieval results of one query position, valid for every schema and
/// every escalation round. A position with no partial cell holds only
/// `prepared` and `name_row` (none of its cells can escalate).
struct PositionRetrieval {
  /// Lookup-only preparation against the index's shared interner.
  sim::PreparedName prepared;
  /// Retrieved elements, ascending by ordinal (= grouped by schema). With
  /// block-max traversal enabled these are the strong hits only — trigram
  /// candidates are selected per cell by the WAND pass instead.
  std::vector<Retrieved> hits;
  /// `hits` index range of schema `si` is
  /// [hit_offsets[si], hit_offsets[si + 1]).
  std::vector<uint32_t> hit_offsets;
  /// Distinct query grams present in the index (block-max mode only); a
  /// worker scores through its own copy, so the hints carry across the
  /// cells it scores in a row.
  std::vector<WandTerm> wand_terms;
  const std::vector<uint32_t>* type_bucket = nullptr;
  /// The position's name row (null for a position with neither a cached
  /// row nor a full-coverage cell): by name id, the exact similarity of
  /// the query name to every name of the position's full-coverage cells,
  /// `kNotInRow` elsewhere; a row from or for the `NameRowCache` holds
  /// every name. Filled by `ScoreEveryCell` before any cell of the
  /// position is scored, then read-only, escalation rounds included.
  NameRow name_row;
};

namespace {

/// One posting-list cursor of the per-cell WAND traversal, restricted to
/// the cell's ordinal range [first, end).
struct WandCursor {
  const TrigramPosting* pos = nullptr;       // current posting
  const TrigramPosting* range_end = nullptr;  // end of the in-range span
  const TrigramPosting* list_begin = nullptr;  // whole list, for block math
  const uint32_t* block_last = nullptr;  // list-global block metadata
  const uint16_t* block_max = nullptr;
  uint32_t qmult = 0;
  /// min(qmult, max posting count over the blocks overlapping the range):
  /// the cursor's admissible cap on any element's Dice numerator.
  double range_ub = 0.0;
};

/// Top-k heap entry of the WAND traversal.
struct WandHit {
  double dice = 0.0;
  uint32_t ordinal = 0;
};

/// Marks a node of `GenerationEngine::known_cost_` with no reusable cost
/// (node costs are in [0, 1]).
constexpr double kNoKnownCost = -1.0;

/// What one `GenerationEngine::ScoreCell` call spent.
struct CellWork {
  /// Candidates considered — the cell's scoring set (the budget).
  size_t scored = 0;
  /// Node costs actually evaluated; the rest of the scoring set reused a
  /// cost from the cell's previous entries or was never reached.
  size_t computed = 0;
  /// Full name similarities computed (`BlockScorer::Score`); the rest of
  /// the full costs took the position's name row or the engine's memoized
  /// score of the same name.
  size_t names_scored = 0;
};

bool CellComplete(double skip_bound, double weight_name, double normalizer,
                  double delta_threshold) {
  return skip_bound == kInf ||
         weight_name * skip_bound / normalizer >
             delta_threshold + kCertifyMargin;
}

/// The shared generation machinery: retrieval scratch plus the max-heap /
/// cutoff cell scorer. One instance per Generate/GenerateAdaptive call and
/// worker thread; not thread-safe (the scratch is reused across cells).
/// It also memoizes, per query position, the name similarity of each
/// distinct element name the position's name row does not hold
/// (`UsePosition` selects the position).
class GenerationEngine {
 public:
  GenerationEngine(const PreparedRepository* prepared,
                   const match::ObjectiveOptions* objective,
                   double trigram_weight_share, bool cutoff_enabled,
                   bool block_max_enabled)
      : prepared_(prepared),
        objective_(objective),
        trigram_weight_share_(trigram_weight_share),
        cutoff_enabled_(cutoff_enabled),
        block_max_(block_max_enabled) {
    size_t max_schema_size = 0;
    for (const schema::Schema& s : prepared_->repo().schemas()) {
      max_schema_size = std::max(max_schema_size, s.size());
    }
    in_list_.assign(max_schema_size, 0);
    known_cost_.assign(max_schema_size, kNoKnownCost);
    name_score_.resize(prepared_->name_count());
    name_epoch_.assign(prepared_->name_count(), 0);
  }

  /// \brief Selects the query position the following `ScoreCell` calls
  /// score. A new position invalidates the name memo in O(1) by starting a
  /// new epoch; the same position again keeps it (the memoized scores
  /// depend only on the query name and the element name).
  void UsePosition(size_t pos) {
    if (epoch_ != 0 && pos == position_) return;
    position_ = pos;
    ++epoch_;
  }

  /// \brief Prepares the query name only: all a position needs whose
  /// cells are gathered from its name row.
  void Prepare(const schema::SchemaNode& qnode, PositionRetrieval* out) {
    out->prepared = sim::PrepareName(qnode.name, objective_->name,
                                     prepared_->token_table());
  }

  /// \brief Runs the retrieval pass for one query node whose name `out`
  /// already holds (`Prepare`): trigram postings with multiplicities (exact
  /// Dice numerators), strong evidence (shared tokens, token synonym groups,
  /// equal folded names, whole-name synonym groups), grouped by schema.
  void Retrieve(const schema::SchemaNode& qnode, PositionRetrieval* out) {
    if (shared_.size() != prepared_->element_count()) {
      shared_.assign(prepared_->element_count(), 0);
      strong_.assign(prepared_->element_count(), 0);
    }
    out->hits.clear();
    out->type_bucket =
        qnode.type.empty() ? nullptr : prepared_->TypeBucket(qnode.type);

    touched_.clear();
    auto touch = [&](uint32_t ordinal) {
      if (shared_[ordinal] == 0 && strong_[ordinal] == 0) {
        touched_.push_back(ordinal);
      }
    };

    // Trigram evidence with multiplicities: Σ_g min(mult_q, mult_e) is the
    // exact Dice numerator of every element sharing a gram. Gram ids are
    // sorted, so runs of equal ids give the query-side multiplicity. With
    // block-max traversal the full postings walk is skipped — this pass
    // only resolves each distinct gram to its posting list, and the
    // per-cell WAND pass (`SelectWandCandidates`) touches just the
    // postings it cannot prove irrelevant.
    out->wand_terms.clear();
    const auto& qgram_ids = out->prepared.gram_ids;
    for (size_t g = 0; g < qgram_ids.size();) {
      size_t end = g + 1;
      while (end < qgram_ids.size() && qgram_ids[end] == qgram_ids[g]) ++end;
      const auto query_mult = static_cast<uint32_t>(end - g);
      if (block_max_) {
        const int32_t list = prepared_->TrigramListIndex(qgram_ids[g]);
        if (list >= 0) out->wand_terms.push_back({list, query_mult});
      } else {
        for (const TrigramPosting& posting :
             prepared_->TrigramPostings(qgram_ids[g])) {
          touch(posting.ordinal);
          shared_[posting.ordinal] +=
              std::min(query_mult, static_cast<uint32_t>(posting.count));
        }
      }
      g = end;
    }

    // Strong evidence: shared tokens, shared token synonym groups, equal
    // folded names, whole-name synonym groups.
    auto mark_strong = [&](std::span<const uint32_t> postings) {
      for (uint32_t ordinal : postings) {
        touch(ordinal);
        strong_[ordinal] = 1;
      }
    };
    auto mark_strong_bucket = [&](const std::vector<uint32_t>* postings) {
      if (postings != nullptr) mark_strong(*postings);
    };
    // Token ids and synonym groups were already resolved by the
    // lookup-only PrepareName above — the same dedup the index build posts
    // under, so retrieval can never disagree with the postings. Unknown
    // ids (tokens no repository element contains) post nothing, but their
    // synonym group may still retrieve aliases.
    AppendUniqueTokenGroupPairs(out->prepared, &query_tokens_);
    for (const auto& [token_id, group] : query_tokens_) {
      if (token_id != sim::kUnknownTokenId) {
        mark_strong(prepared_->TokenPostings(token_id));
      }
      if (group >= 0) {
        mark_strong_bucket(prepared_->TokenGroupPostings(group));
      }
    }
    mark_strong_bucket(prepared_->NameBucket(out->prepared.folded));
    if (out->prepared.name_group >= 0) {
      mark_strong_bucket(prepared_->NameGroupBucket(out->prepared.name_group));
    }

    // Ordinals are (schema, node)-ordered, so one sorted walk groups the
    // retrieved elements by schema.
    std::sort(touched_.begin(), touched_.end());
    const double qa = static_cast<double>(qgram_ids.size());
    out->hits.reserve(touched_.size());
    for (uint32_t ordinal : touched_) {
      Retrieved hit;
      hit.ordinal = ordinal;
      hit.strong = strong_[ordinal] != 0;
      const double denom =
          qa + static_cast<double>(prepared_->element(ordinal).trigram_count);
      hit.dice = denom > 0.0
                     ? 2.0 * static_cast<double>(shared_[ordinal]) / denom
                     : 0.0;
      out->hits.push_back(hit);
    }

    const size_t schema_count = prepared_->repo().schema_count();
    out->hit_offsets.assign(schema_count + 1, 0);
    size_t ti = 0;
    for (size_t si = 0; si < schema_count; ++si) {
      out->hit_offsets[si] = static_cast<uint32_t>(ti);
      const uint32_t end =
          prepared_->first_ordinal(static_cast<int32_t>(si)) +
          static_cast<uint32_t>(
              prepared_->repo().schema(static_cast<int32_t>(si)).size());
      while (ti < out->hits.size() && out->hits[ti].ordinal < end) ++ti;
    }
    out->hit_offsets[schema_count] = static_cast<uint32_t>(ti);

    // Reset the per-element accumulators by walking only the touched list.
    for (uint32_t ordinal : touched_) {
      shared_[ordinal] = 0;
      strong_[ordinal] = 0;
    }
  }

  /// \brief Scores one (position, schema) cell at `limit` and writes its
  /// entries and skip-bound. Idempotent and limit-monotone (a larger limit
  /// keeps a superset of candidates with a no-smaller bound); re-invoked by
  /// the adaptive path on escalation. `wand_terms` is `retrieval.wand_terms`
  /// or a copy of them: only their resume hints are written, and the hints
  /// never change the result. `previous` is the cell's current entries
  /// (empty on first scoring; may alias `*cell_entries`): their costs are
  /// exact, so the loop reuses them wherever it would compute a full
  /// `ComputeNodeCost`, and the result is bit-identical to scoring from
  /// scratch. `scorer` must be built over the query name of the position
  /// last passed to `UsePosition`. Returns the candidates considered, the
  /// costs computed and the name similarities computed.
  CellWork ScoreCell(const PositionRetrieval& retrieval,
                     std::vector<WandTerm>& wand_terms,
                     sim::BlockScorer& scorer, const schema::SchemaNode& qnode,
                     int32_t schema_index, size_t limit,
                     std::span<const match::CandidateEntry> previous,
                     std::vector<match::CandidateEntry>* cell_entries,
                     double* cell_skip_bound) {
    const schema::Schema& schema = prepared_->repo().schema(schema_index);
    const size_t schema_size = schema.size();
    const uint32_t first = prepared_->first_ordinal(schema_index);
    const uint32_t end = first + static_cast<uint32_t>(schema_size);
    const auto si = static_cast<size_t>(schema_index);

    cell_hits_.assign(
        retrieval.hits.begin() + retrieval.hit_offsets[si],
        retrieval.hits.begin() + retrieval.hit_offsets[si + 1]);

    // Scoring set: every strong hit (required for admissibility of the
    // synonym tiers, and they are the high-precision candidates anyway),
    // then trigram-only hits by descending Dice until `limit` entries.
    auto weak_begin =
        std::stable_partition(cell_hits_.begin(), cell_hits_.end(),
                              [](const Retrieved& r) { return r.strong; });
    std::sort(weak_begin, cell_hits_.end(),
              [](const Retrieved& a, const Retrieved& b) {
                if (a.dice != b.dice) return a.dice > b.dice;
                return a.ordinal < b.ordinal;
              });
    const size_t strong_count =
        static_cast<size_t>(weak_begin - cell_hits_.begin());
    const size_t weak_count = cell_hits_.size() - strong_count;
    const size_t weak_scored =
        strong_count >= limit ? 0 : std::min(weak_count, limit - strong_count);

    scored_ordinals_.clear();
    for (size_t i = 0; i < strong_count + weak_scored; ++i) {
      scored_ordinals_.push_back(cell_hits_[i].ordinal);
      in_list_[cell_hits_[i].ordinal - first] = 1;
    }

    // Block-max mode: retrieval never walked the trigram postings
    // (weak_count is 0 above), so the weak candidates are selected here by
    // the WAND traversal, which appends to scored_ordinals_/in_list_ and
    // returns the admissible Dice cap of every trigram-sharing element it
    // skipped. A skip implies the selection heap was full, so the cell is
    // already at `limit` and the padding below never re-adds a skipped
    // element.
    double wand_dice_cap = 0.0;
    if (block_max_) {
      const size_t wand_target =
          strong_count >= limit ? 0 : limit - strong_count;
      wand_dice_cap = SelectWandCandidates(retrieval, wand_terms, first, end,
                                           wand_target);
    }

    // Pad to C with unretrieved elements: same declared type first, then
    // node order — deterministic and query-independent.
    if (scored_ordinals_.size() < limit && retrieval.type_bucket != nullptr) {
      auto it = std::lower_bound(retrieval.type_bucket->begin(),
                                 retrieval.type_bucket->end(), first);
      for (; it != retrieval.type_bucket->end() && *it < end &&
             scored_ordinals_.size() < limit;
           ++it) {
        if (in_list_[*it - first] == 0) {
          scored_ordinals_.push_back(*it);
          in_list_[*it - first] = 1;
        }
      }
    }
    for (uint32_t ordinal = first;
         ordinal < end && scored_ordinals_.size() < limit; ++ordinal) {
      if (in_list_[ordinal - first] == 0) {
        scored_ordinals_.push_back(ordinal);
        in_list_[ordinal - first] = 1;
      }
    }

    // Exact scoring — ComputeNodeCost over prepared names, so kept
    // candidate costs are bit-identical to the lazy objective's.
    // The loop maintains the C cheapest (cost, node) in a max-heap; once
    // the list is full, the current C-th cost feeds the threshold-aware
    // kernel, which drops provably-worse candidates after its cheap
    // admissible bounds instead of scoring them in full. Dropped and
    // pruned candidates both contribute to the truncation tier of the
    // skip-bound: an exact cost when fully scored, an admissible lower
    // bound (> the C-th cost) when pruned — so the bound stays
    // admissible and, without pruning, bit-identical to sorting
    // everything and reading the (C+1)-th cost.
    // Costs already known from the cell's previous entries are reused
    // wherever a full ComputeNodeCost would run. The threshold-aware branch
    // always runs the kernel: a pruned candidate's lower bound feeds the
    // skip-bound, and an exact cost cannot stand in for it.
    // A full cost is `ComputeNodeCost`'s own expression with the name
    // similarity taken from the position's name row, or else from the
    // engine's memo: elements sharing a name id share it, and the type
    // penalty is applied per element, so every cost is bit-identical to
    // the unmemoized one.
    assert(epoch_ != 0);
    for (const match::CandidateEntry& entry : previous) {
      known_cost_[static_cast<size_t>(entry.node)] = entry.cost;
    }
    CellWork work;
    const double* row =
        retrieval.name_row != nullptr ? retrieval.name_row->data() : nullptr;
    auto full_cost = [&](const schema::SchemaNode& tnode, uint32_t ordinal,
                         const PreparedElement& element) {
      const double known = known_cost_[static_cast<size_t>(element.node)];
      if (known != kNoKnownCost) return known;
      ++work.computed;
      const uint32_t name = prepared_->name_id(ordinal);
      double similarity;
      if (row != nullptr && row[name] != kNotInRow) {
        similarity = row[name];
      } else {
        if (name_epoch_[name] != epoch_) {
          name_epoch_[name] = epoch_;
          name_score_[name] = scorer.Score(element.name);
          ++work.names_scored;
        }
        similarity = name_score_[name];
      }
      return match::ApplyTypePenalty(1.0 - similarity, qnode, tnode,
                                     *objective_);
    };
    entries_.clear();
    double truncation_bound = kInf;
    auto heap_before = [](const match::CandidateEntry& a,
                          const match::CandidateEntry& b) {
      if (a.cost != b.cost) return a.cost < b.cost;
      return a.node < b.node;  // max-heap on (cost, node)
    };
    for (uint32_t ordinal : scored_ordinals_) {
      const PreparedElement& element = prepared_->element(ordinal);
      const schema::SchemaNode& tnode = schema.node(element.node);
      if (entries_.size() < limit) {
        match::CandidateEntry entry;
        entry.node = element.node;
        entry.cost = full_cost(tnode, ordinal, element);
        entries_.push_back(entry);
        std::push_heap(entries_.begin(), entries_.end(), heap_before);
        continue;
      }
      const match::CandidateEntry& top = entries_.front();
      double cost;
      // Cost ties at 1.0 break on node order through the min(1, ·) cap,
      // which the similarity-space cutoff cannot see — score those in
      // full.
      if (cutoff_enabled_ && top.cost < 1.0) {
        ++work.computed;
        match::NodeCostCutoff scored = match::ComputeNodeCostWithCutoff(
            scorer, qnode, tnode, element.name, *objective_, top.cost);
        if (!scored.exact) {  // provably > C-th cost: cannot enter
          truncation_bound = std::min(truncation_bound, scored.cost);
          continue;
        }
        cost = scored.cost;
      } else {
        cost = full_cost(tnode, ordinal, element);
      }
      if (cost < top.cost || (cost == top.cost && element.node < top.node)) {
        truncation_bound = std::min(truncation_bound, top.cost);
        std::pop_heap(entries_.begin(), entries_.end(), heap_before);
        entries_.back().node = element.node;
        entries_.back().cost = cost;
        std::push_heap(entries_.begin(), entries_.end(), heap_before);
      } else {
        truncation_bound = std::min(truncation_bound, cost);
      }
    }
    // Reset before `*cell_entries` is written: `previous` may alias it.
    for (const match::CandidateEntry& entry : previous) {
      known_cost_[static_cast<size_t>(entry.node)] = kNoKnownCost;
    }
    std::sort(entries_.begin(), entries_.end(),
              [](const match::CandidateEntry& a,
                 const match::CandidateEntry& b) {
                if (a.cost != b.cost) return a.cost < b.cost;
                return a.node < b.node;
              });

    const size_t scored_total = scored_ordinals_.size();
    double bound = truncation_bound;  // kInf when nothing was dropped
    if (block_max_) {
      // One tier covers every unscored element: the WAND traversal's
      // skipped elements have Dice ≤ wand_dice_cap, and elements sharing
      // no trigram with the query have Dice 0 ≤ wand_dice_cap. With cap 0
      // (nothing skipped) this is exactly the classic never-retrieved
      // tier. The classic tiers must NOT apply here — `bound = share`
      // would be inadmissible for a skipped element whose Dice is
      // positive.
      if (scored_total < schema_size) {
        bound =
            std::min(bound, trigram_weight_share_ * (1.0 - wand_dice_cap));
      }
    } else {
      if (weak_scored < weak_count) {
        // Retrieved but unscored: their exact Dice caps the trigram term.
        bound = std::min(
            bound, trigram_weight_share_ *
                       (1.0 - cell_hits_[strong_count + weak_scored].dice));
      }
      if (scored_total + (weak_count - weak_scored) < schema_size) {
        // Never-retrieved elements share no trigram with the query: D = 0.
        bound = std::min(bound, trigram_weight_share_);
      }
    }
    *cell_entries = entries_;
    *cell_skip_bound = bound;
    // in_list_ was set exactly for the scored ordinals — reset only those.
    for (uint32_t ordinal : scored_ordinals_) {
      in_list_[ordinal - first] = 0;
    }
    work.scored = scored_total;
    return work;
  }

 private:
  /// Advances the cursor to the first in-range posting with ordinal ≥
  /// `target`, skipping whole blocks through the per-block last-ordinal
  /// fence (the point of the block metadata: a skipped block's postings
  /// are never touched).
  static void AdvanceCursor(WandCursor* c, uint32_t target) {
    size_t block =
        static_cast<size_t>(c->pos - c->list_begin) / kTrigramBlockSize;
    while (c->block_last[block] < target) {
      const TrigramPosting* next =
          c->list_begin + (block + 1) * kTrigramBlockSize;
      if (next >= c->range_end) {
        c->pos = c->range_end;
        return;
      }
      c->pos = next;
      ++block;
    }
    while (c->pos != c->range_end && c->pos->ordinal < target) ++c->pos;
  }

  /// \brief Block-max WAND selection of one cell's trigram candidates.
  ///
  /// Walks the cell's posting ranges document-at-a-time, keeps the
  /// `k_target` best exact Dice scores, and skips posting spans whose
  /// upper bound provably cannot beat the current k-th best. Selected
  /// ordinals are appended to `scored_ordinals_` (descending Dice,
  /// ascending ordinal on ties — the classic weak order) and marked in
  /// `in_list_`; elements already marked (strong hits) are evaluated but
  /// never selected or counted as skipped, exactly like the classic weak
  /// pool. Returns an admissible Dice cap for every trigram-sharing
  /// element of the cell that was *not* selected (0 when none exists).
  ///
  /// Admissibility of the skip decisions: an element's Dice is
  ///   2·num / (qa + tc),  num = Σ_g min(qmult_g, count_g) ≤ acc,
  /// and tc ≥ num as well as tc ≥ the floor of any block containing one
  /// of its postings, so
  ///   Dice ≤ 2·acc / (qa + max(acc, tc_floor)) = dice_ub(acc),
  /// which is monotone increasing in acc. Prefix sums of per-cursor caps
  /// therefore bound whole cursor prefixes (pivoting), and per-block
  /// maxima bound the aligned span up to the earliest block fence
  /// (block-max skipping). Skips additionally require the bound to fall
  /// short of the k-th best by 1e-12 — far coarser than the spacing of
  /// the exact Dice quotients — so the selected set is identical to the
  /// classic retrieve-everything top-k (tests compare the two paths
  /// bit-for-bit).
  double SelectWandCandidates(const PositionRetrieval& retrieval,
                              std::vector<WandTerm>& wand_terms,
                              uint32_t first, uint32_t end, size_t k_target) {
    auto below = [](const TrigramPosting& p, uint32_t ordinal) {
      return p.ordinal < ordinal;
    };
    // Resolves the first in-range posting: the term's resume hint when it
    // is exactly the lower bound of `first` (the common case — cells are
    // visited in ascending ordinal order, so each list is swept linearly
    // across a position's cells), else a binary search.
    auto resolve_lo = [&](const WandTerm& term,
                          const std::span<const TrigramPosting>& list) {
      const TrigramPosting* const begin = list.data();
      const TrigramPosting* const lend = begin + list.size();
      const TrigramPosting* lo = term.hint;
      if (lo == nullptr || (lo != lend && lo->ordinal < first) ||
          (lo != begin && (lo - 1)->ordinal >= first)) {
        lo = std::lower_bound(begin, lend, first, below);
      }
      return lo;
    };
    const double qa = static_cast<double>(retrieval.prepared.gram_ids.size());

    // Worst-on-top heap ordering: lowest Dice, ties on *higher* ordinal.
    // Insertion is strict (`dice > top`), and both selection paths visit
    // ordinals ascending, so an equal-Dice later element never displaces
    // an earlier one — reproducing the classic (Dice desc, ordinal asc)
    // top-k exactly.
    auto worse_on_top = [](const WandHit& a, const WandHit& b) {
      if (a.dice != b.dice) return a.dice > b.dice;
      return a.ordinal < b.ordinal;
    };

    // Dense fast path for small cells. Pivoting can only skip whole block
    // spans, so a cell whose ordinal range fits within ~a block has
    // nothing to skip and would pay the cursor-ordering machinery for
    // free: evaluate every trigram-sharing element instead, exactly as
    // the classic path would (same Dice expression, ascending-ordinal
    // visit order, strict heap insertion), but still without the
    // repository-wide postings walk or any block metadata.
    if (k_target > 0 && end - first <= kTrigramBlockSize) {
      const uint32_t width = end - first;
      wand_dense_.assign(width, 0u);
      for (WandTerm& term : wand_terms) {
        const std::span<const TrigramPosting> list =
            prepared_->TrigramListPostings(term.list);
        const TrigramPosting* const lend = list.data() + list.size();
        const TrigramPosting* p = resolve_lo(term, list);
        for (; p != lend && p->ordinal < end; ++p) {
          wand_dense_[p->ordinal - first] +=
              std::min(term.qmult, static_cast<uint32_t>(p->count));
        }
        term.hint = p;
      }
      wand_heap_.clear();
      bool excluded_any = false;
      for (uint32_t off = 0; off < width; ++off) {
        const uint32_t num = wand_dense_[off];
        if (num == 0) continue;        // shares no trigram with the query
        if (in_list_[off] != 0) continue;  // already a strong hit
        const uint32_t ordinal = first + off;
        const double denom =
            qa + static_cast<double>(prepared_->element(ordinal).trigram_count);
        const double dice =
            denom > 0.0 ? 2.0 * static_cast<double>(num) / denom : 0.0;
        if (wand_heap_.size() < k_target) {
          wand_heap_.push_back({dice, ordinal});
          std::push_heap(wand_heap_.begin(), wand_heap_.end(), worse_on_top);
        } else if (dice > wand_heap_.front().dice) {
          excluded_any = true;
          std::pop_heap(wand_heap_.begin(), wand_heap_.end(), worse_on_top);
          wand_heap_.back() = {dice, ordinal};
          std::push_heap(wand_heap_.begin(), wand_heap_.end(), worse_on_top);
        } else {
          excluded_any = true;
        }
      }
      return EmitWandSelection(first, excluded_any);
    }

    wand_cursors_.clear();
    uint32_t cell_tc_floor = std::numeric_limits<uint32_t>::max();
    for (WandTerm& term : wand_terms) {
      const std::span<const TrigramPosting> list =
          prepared_->TrigramListPostings(term.list);
      const TrigramPosting* lo = resolve_lo(term, list);
      const TrigramPosting* hi =
          std::lower_bound(lo, list.data() + list.size(), end, below);
      term.hint = hi;
      if (lo == hi) continue;
      const TrigramBlockSpans blocks = prepared_->TrigramBlocks(term.list);
      WandCursor cursor;
      cursor.pos = lo;
      cursor.range_end = hi;
      cursor.list_begin = list.data();
      cursor.block_last = blocks.last_ordinals.data();
      cursor.block_max = blocks.max_counts.data();
      cursor.qmult = term.qmult;
      uint16_t range_max = 0;
      const size_t first_block =
          static_cast<size_t>(lo - list.data()) / kTrigramBlockSize;
      const size_t last_block =
          static_cast<size_t>(hi - 1 - list.data()) / kTrigramBlockSize;
      for (size_t b = first_block; b <= last_block; ++b) {
        range_max = std::max(range_max, blocks.max_counts[b]);
        cell_tc_floor = std::min(cell_tc_floor, blocks.tc_floors[b]);
      }
      cursor.range_ub = std::min<double>(term.qmult, range_max);
      wand_cursors_.push_back(cursor);
    }
    if (wand_cursors_.empty()) return 0.0;

    const double tc_floor = static_cast<double>(cell_tc_floor);
    auto dice_ub = [&](double acc) {
      return 2.0 * acc / (qa + std::max(acc, tc_floor));
    };

    if (k_target == 0) {
      // Nothing to select (the strong hits already fill the cell): every
      // trigram-sharing element is skipped; cap all of them at the
      // range-level upper bound.
      double acc = 0.0;
      for (const WandCursor& c : wand_cursors_) acc += c.range_ub;
      return std::min(1.0, dice_ub(acc));
    }

    constexpr double kSkipSlack = 1e-12;
    wand_heap_.clear();
    bool skipped_any = false;

    wand_order_.clear();
    for (size_t i = 0; i < wand_cursors_.size(); ++i) {
      wand_order_.push_back(static_cast<uint32_t>(i));
    }
    while (!wand_order_.empty()) {
      // Drop exhausted cursors and order the rest by current ordinal.
      wand_order_.erase(
          std::remove_if(wand_order_.begin(), wand_order_.end(),
                         [&](uint32_t i) {
                           return wand_cursors_[i].pos ==
                                  wand_cursors_[i].range_end;
                         }),
          wand_order_.end());
      if (wand_order_.empty()) break;
      std::sort(wand_order_.begin(), wand_order_.end(),
                [&](uint32_t a, uint32_t b) {
                  return wand_cursors_[a].pos->ordinal <
                         wand_cursors_[b].pos->ordinal;
                });
      const double theta =
          wand_heap_.size() >= k_target ? wand_heap_.front().dice : -kInf;
      // Pivot: the first cursor prefix whose combined range-level bound
      // could still beat the k-th best. An element below the pivot's
      // ordinal is covered only by cursors currently at or before it — a
      // strict sub-prefix — so it is provably out.
      double acc = 0.0;
      size_t pivot = wand_order_.size();
      for (size_t i = 0; i < wand_order_.size(); ++i) {
        acc += wand_cursors_[wand_order_[i]].range_ub;
        if (dice_ub(acc) > theta - kSkipSlack) {
          pivot = i;
          break;
        }
      }
      if (pivot == wand_order_.size()) {
        // Even all cursors combined cannot beat the k-th best: every
        // remaining element is provably out.
        skipped_any = true;
        break;
      }
      const uint32_t pivot_ordinal =
          wand_cursors_[wand_order_[pivot]].pos->ordinal;
      if (wand_cursors_[wand_order_[0]].pos->ordinal != pivot_ordinal) {
        // Skip the pre-pivot cursors forward to the pivot; the elements
        // they pass over are provably out (see above).
        for (size_t i = 0; i < pivot; ++i) {
          AdvanceCursor(&wand_cursors_[wand_order_[i]], pivot_ordinal);
        }
        skipped_any = true;
        continue;
      }
      // Every contributing cursor sits on the pivot. Refine with the
      // metadata of the blocks actually containing it: if even the
      // block-level bound cannot beat θ, the whole aligned span up to the
      // earliest block fence (or the first non-aligned cursor) is out.
      double block_acc = 0.0;
      uint32_t span_last = end - 1;
      size_t at_pivot = 0;
      for (size_t i = 0; i < wand_order_.size(); ++i) {
        const WandCursor& c = wand_cursors_[wand_order_[i]];
        if (c.pos->ordinal != pivot_ordinal) {
          // Sorted, so this first non-aligned cursor bounds the span: it
          // could contribute from its current ordinal on.
          span_last = std::min(span_last, c.pos->ordinal - 1);
          break;
        }
        const size_t block =
            static_cast<size_t>(c.pos - c.list_begin) / kTrigramBlockSize;
        block_acc += std::min<double>(c.qmult, c.block_max[block]);
        span_last = std::min(span_last, c.block_last[block]);
        ++at_pivot;
      }
      if (dice_ub(block_acc) <= theta - kSkipSlack) {
        for (size_t i = 0; i < at_pivot; ++i) {
          AdvanceCursor(&wand_cursors_[wand_order_[i]], span_last + 1);
        }
        skipped_any = true;
        continue;
      }
      // Evaluate the pivot element exactly — the same Dice expression the
      // classic retrieval computes, bit for bit.
      uint32_t num = 0;
      for (size_t i = 0; i < at_pivot; ++i) {
        WandCursor& c = wand_cursors_[wand_order_[i]];
        num += std::min(c.qmult, static_cast<uint32_t>(c.pos->count));
        ++c.pos;
      }
      if (in_list_[pivot_ordinal - first] != 0) {
        continue;  // already selected as a strong hit — not a weak candidate
      }
      const double denom =
          qa +
          static_cast<double>(prepared_->element(pivot_ordinal).trigram_count);
      const double dice =
          denom > 0.0 ? 2.0 * static_cast<double>(num) / denom : 0.0;
      if (wand_heap_.size() < k_target) {
        wand_heap_.push_back({dice, pivot_ordinal});
        std::push_heap(wand_heap_.begin(), wand_heap_.end(), worse_on_top);
      } else if (dice > wand_heap_.front().dice) {
        skipped_any = true;  // the evicted element ends up unselected
        std::pop_heap(wand_heap_.begin(), wand_heap_.end(), worse_on_top);
        wand_heap_.back() = {dice, pivot_ordinal};
        std::push_heap(wand_heap_.begin(), wand_heap_.end(), worse_on_top);
      } else {
        skipped_any = true;
      }
    }

    return EmitWandSelection(first, skipped_any);
  }

  /// Appends the heap's selection to `scored_ordinals_` in the classic
  /// weak order and returns the skip-cap: 0 when nothing was excluded,
  /// else the final k-th best Dice (skipping/eviction requires a full
  /// heap, so it caps every excluded element's Dice).
  double EmitWandSelection(uint32_t first, bool skipped_any) {
    std::sort(wand_heap_.begin(), wand_heap_.end(),
              [](const WandHit& a, const WandHit& b) {
                if (a.dice != b.dice) return a.dice > b.dice;
                return a.ordinal < b.ordinal;
              });
    for (const WandHit& hit : wand_heap_) {
      scored_ordinals_.push_back(hit.ordinal);
      in_list_[hit.ordinal - first] = 1;
    }
    if (!skipped_any) return 0.0;
    return std::min(1.0, wand_heap_.back().dice);
  }

  const PreparedRepository* prepared_;
  const match::ObjectiveOptions* objective_;
  double trigram_weight_share_;
  bool cutoff_enabled_;
  bool block_max_;

  // Per-element evidence accumulators, reset between positions by walking
  // the touched list (never the full arrays).
  std::vector<uint32_t> shared_;
  std::vector<uint8_t> strong_;
  std::vector<uint32_t> touched_;
  // Deduplicated (token id, synonym group) pairs of the current position.
  std::vector<std::pair<uint32_t, int32_t>> query_tokens_;
  // Per-cell scoring scratch.
  std::vector<Retrieved> cell_hits_;
  std::vector<uint8_t> in_list_;
  // Exact costs of the cell's previous entries, by node; kNoKnownCost
  // elsewhere, reset by walking those entries.
  std::vector<double> known_cost_;
  // Name memo of the current position: `name_score_[id]` holds the name
  // similarity of name id `id` when `name_epoch_[id] == epoch_`.
  std::vector<double> name_score_;
  std::vector<uint32_t> name_epoch_;
  uint32_t epoch_ = 0;  // 0: no position selected yet
  size_t position_ = 0;
  std::vector<uint32_t> scored_ordinals_;
  std::vector<match::CandidateEntry> entries_;
  // Block-max WAND scratch.
  std::vector<WandCursor> wand_cursors_;
  std::vector<uint32_t> wand_order_;
  std::vector<WandHit> wand_heap_;
  std::vector<uint32_t> wand_dense_;
};

/// One cell to score: its index in the output (position-major), the
/// limit to score it at, and its current entries in the output (empty
/// unless the cell is being escalated), whose costs `ScoreCell` reuses.
struct CellTask {
  size_t cell_index = 0;
  size_t limit = 0;
  std::span<const match::CandidateEntry> previous;
};

/// A cell scored on a worker, waiting for its in-order commit.
struct ScoredCell {
  std::vector<match::CandidateEntry> entries;
  double skip_bound = 0.0;
  /// What scoring it spent (`ScoreCell`'s return value).
  CellWork work;
};

}  // namespace

/// \brief Retrieval and cell scoring on one or more workers, with
/// in-order commit (one worker runs inline on the calling thread).
///
/// Each worker owns a `GenerationEngine` (scratch) and a copy of the
/// current position's block-max resume hints, and builds its
/// `sim::BlockScorer` per block on its own thread (the scorer claims that
/// thread's resident pattern slot).
class ParallelCellScorer {
 public:
  ParallelCellScorer(size_t threads, const PreparedRepository* prepared,
                     const match::ObjectiveOptions* objective,
                     double trigram_weight_share, bool cutoff_enabled,
                     bool block_max_enabled, const schema::Schema& query,
                     const std::vector<schema::NodeId>& preorder)
      : threads_(threads),
        objective_(objective),
        query_(query),
        preorder_(preorder),
        schema_count_(prepared->repo().schema_count()) {
    workers_.reserve(threads);
    for (size_t w = 0; w < threads; ++w) {
      workers_.push_back({GenerationEngine(prepared, objective,
                                           trigram_weight_share,
                                           cutoff_enabled, block_max_enabled),
                          {}});
    }
  }

  size_t threads() const { return threads_; }

  /// Prepares the query name of every position, one position per work
  /// item.
  void PrepareAll(std::vector<PositionRetrieval>* retrievals) {
    retrievals->resize(preorder_.size());
    ParallelFor(threads_, preorder_.size(), [&](size_t worker, size_t pos) {
      workers_[worker].engine.Prepare(query_.node(preorder_[pos]),
                                      &(*retrievals)[pos]);
    });
  }

  /// Runs the retrieval pass of every prepared position whose `retrieve`
  /// flag is set, one position per work item.
  void RetrieveAll(const std::vector<uint8_t>& retrieve,
                   std::vector<PositionRetrieval>* retrievals) {
    ParallelFor(threads_, preorder_.size(), [&](size_t worker, size_t pos) {
      if (retrieve[pos] == 0) return;
      workers_[worker].engine.Retrieve(query_.node(preorder_[pos]),
                                       &(*retrievals)[pos]);
    });
  }

  /// \brief Scores `tasks` (ascending cell order) on the workers and hands
  /// each result to `commit(task, ScoredCell&)` in task order, from one
  /// thread at a time. Before each commit `done()` is asked whether the
  /// caller's stop point was reached; from the first `true` on, nothing is
  /// committed and workers stop starting new blocks. So the committed
  /// prefix is exactly the cells a serial loop checking `done()` before
  /// each cell would score. A task's `previous` entries are read by the
  /// worker scoring it without a lock: they live in the output cell, which
  /// only that task's own commit writes, and the commit runs after the
  /// task's block has finished. Returns the candidates scored for cells
  /// that were never committed: always 0 with one worker, which runs
  /// inline and asks `done()` before it scores each cell.
  template <typename Done, typename Commit>
  uint64_t ScoreInOrder(const std::vector<PositionRetrieval>& retrievals,
                        const std::vector<CellTask>& tasks, Done done,
                        Commit commit) {
    if (threads_ == 1) {
      Worker& w = workers_[0];
      ScoredCell cell;
      for (size_t t = 0; t < tasks.size();) {
        const size_t pos = tasks[t].cell_index / schema_count_;
        const PositionRetrieval& retrieval = retrievals[pos];
        const schema::SchemaNode& qnode = query_.node(preorder_[pos]);
        w.hints = retrieval.wand_terms;
        w.engine.UsePosition(pos);
        sim::BlockScorer scorer(retrieval.prepared, objective_->name);
        for (; t < tasks.size() && tasks[t].cell_index / schema_count_ == pos;
             ++t) {
          if (done()) return 0;
          Score(w, retrieval, scorer, qnode, tasks[t], &cell);
          commit(tasks[t], cell);
        }
      }
      return 0;
    }
    // Order-contiguous blocks that stay within one query position (one
    // scorer per block). Small enough that the work scored past a stop
    // point stays small, several per worker for balance.
    constexpr size_t kMaxBlockCells = 32;
    const size_t block_cells =
        std::clamp<size_t>(tasks.size() / (threads_ * 8), 1, kMaxBlockCells);
    std::vector<std::pair<size_t, size_t>> blocks;
    for (size_t begin = 0; begin < tasks.size();) {
      const size_t pos = tasks[begin].cell_index / schema_count_;
      size_t end = begin + 1;
      while (end < tasks.size() && end - begin < block_cells &&
             tasks[end].cell_index / schema_count_ == pos) {
        ++end;
      }
      blocks.emplace_back(begin, end);
      begin = end;
    }

    std::vector<ScoredCell> results(tasks.size());
    std::vector<uint8_t> block_done(blocks.size(), 0);
    std::atomic<bool> stop{false};
    Mutex mutex;
    size_t next_block = 0;  // next block to commit
    bool stopped = false;
    uint64_t scored_total = 0;
    uint64_t committed_total = 0;
    ParallelFor(threads_, blocks.size(), [&](size_t worker, size_t b) {
      if (stop.load(std::memory_order_relaxed)) return;
      const auto [begin, end] = blocks[b];
      const size_t pos = tasks[begin].cell_index / schema_count_;
      const PositionRetrieval& retrieval = retrievals[pos];
      const schema::SchemaNode& qnode = query_.node(preorder_[pos]);
      Worker& w = workers_[worker];
      w.hints = retrieval.wand_terms;
      w.engine.UsePosition(pos);
      uint64_t block_scored = 0;
      {
        sim::BlockScorer scorer(retrieval.prepared, objective_->name);
        for (size_t t = begin; t < end; ++t) {
          Score(w, retrieval, scorer, qnode, tasks[t], &results[t]);
          block_scored += results[t].work.scored;
        }
      }
      MutexLock lock(mutex);
      block_done[b] = 1;
      scored_total += block_scored;
      while (!stopped && next_block < blocks.size() &&
             block_done[next_block] != 0) {
        for (size_t t = blocks[next_block].first;
             t < blocks[next_block].second; ++t) {
          if (done()) {
            stopped = true;
            stop.store(true, std::memory_order_relaxed);
            break;
          }
          commit(tasks[t], results[t]);
          committed_total += results[t].work.scored;
        }
        ++next_block;
      }
    });
    return scored_total - committed_total;
  }

 private:
  /// One worker's state, cache-line aligned so workers never write to a
  /// line another worker reads.
  struct alignas(64) Worker {
    GenerationEngine engine;
    /// This worker's copy of the current position's resume hints.
    std::vector<WandTerm> hints;
  };

  /// Scores `task` with `w`'s engine and hints; `scorer` is built over the
  /// query name of the task's position.
  void Score(Worker& w, const PositionRetrieval& retrieval,
             sim::BlockScorer& scorer, const schema::SchemaNode& qnode,
             const CellTask& task, ScoredCell* cell) {
    cell->work = w.engine.ScoreCell(
        retrieval, w.hints, scorer, qnode,
        static_cast<int32_t>(task.cell_index % schema_count_), task.limit,
        task.previous, &cell->entries, &cell->skip_bound);
  }

  size_t threads_;
  const match::ObjectiveOptions* objective_;
  const schema::Schema& query_;
  const std::vector<schema::NodeId>& preorder_;
  size_t schema_count_;
  std::vector<Worker> workers_;
};

namespace {

/// Names per work item of the name-row fill: items are (position, chunk)
/// pairs, so a few thousand names spread over the workers.
constexpr size_t kRowChunk = 256;
/// Schemas per work item of the schema-major pass (costs, tree bound,
/// gather): small enough that a few hundred schemas still spread over the
/// workers.
constexpr size_t kGatherSchemas = 16;

/// Scores `names` against `query_name` in one `ScoreMany` batch over the
/// names' representatives and writes each similarity to `row[name]`. With
/// `min_score` 0 every score is exact and bit-identical to
/// `BlockScorer::Score`, so a row entry is the value the memo would hold.
void ScoreNameRow(const PreparedRepository& prepared,
                  const sim::NameSimilarityOptions& options,
                  const sim::PreparedName& query_name,
                  std::span<const uint32_t> names, double* row) {
  std::vector<const sim::PreparedName*> targets;
  targets.reserve(names.size());
  for (uint32_t name : names) {
    targets.push_back(
        &prepared.element(prepared.name_representative(name)).name);
  }
  std::vector<sim::CutoffScore> scores(names.size());
  sim::BlockScorer scorer(query_name, options);
  scorer.ScoreMany(targets, /*min_score=*/0.0, scores.data());
  for (size_t i = 0; i < names.size(); ++i) row[names[i]] = scores[i].score;
}

/// By element ordinal, whether the element's declared type differs from
/// `qnode`'s, so that `ApplyTypePenalty` penalizes the pair; empty when it
/// penalizes none. Read off the index's type buckets (untyped elements and
/// those of the query's type are the unpenalized ones), so no type string
/// is compared per node.
std::vector<uint8_t> TypeMismatches(const PreparedRepository& prepared,
                                    const match::ObjectiveOptions& objective,
                                    const schema::SchemaNode& qnode) {
  std::vector<uint8_t> mismatch;
  if (!objective.type_aware || qnode.type.empty()) return mismatch;
  mismatch.assign(prepared.element_count(), 1);
  for (const std::string_view type : {std::string_view(),
                                      std::string_view(qnode.type)}) {
    if (const std::vector<uint32_t>* bucket = prepared.TypeBucket(type)) {
      for (uint32_t ordinal : *bucket) mismatch[ordinal] = 0;
    }
  }
  return mismatch;
}

/// Writes the node cost of every node of `schema_index` for one query
/// position from the position's name row (`row`, null when it has none)
/// and its `TypeMismatches`: `ComputeNodeCost`'s expression over the row's
/// similarity, and 0 — a lower bound — for a name the row does not hold.
void RowCosts(const PreparedRepository& prepared,
              const match::ObjectiveOptions& objective, const double* row,
              const std::vector<uint8_t>& mismatch, int32_t schema_index,
              double* costs) {
  const uint32_t first = prepared.first_ordinal(schema_index);
  const size_t size = prepared.repo().schema(schema_index).size();
  for (size_t n = 0; n < size; ++n) {
    const uint32_t ordinal = first + static_cast<uint32_t>(n);
    const double similarity =
        row == nullptr ? kNotInRow : row[prepared.name_id(ordinal)];
    if (similarity == kNotInRow) {
      costs[n] = 0.0;
    } else if (!mismatch.empty() && mismatch[ordinal] != 0) {
      costs[n] = match::PenalizeTypeMismatch(1.0 - similarity, objective);
    } else {
      costs[n] = 1.0 - similarity;
    }
  }
}

/// Fills a full-coverage cell from the costs of every node of its schema
/// (`RowCosts` over a row that holds every name of the schema), sorted by
/// (cost, node) — exactly what the max-heap keeps when the limit reaches
/// the schema size, since then nothing is dropped or pruned.
void GatherCell(std::span<const double> costs,
                std::vector<match::CandidateEntry>* entries) {
  entries->resize(costs.size());
  for (size_t n = 0; n < costs.size(); ++n) {
    (*entries)[n] = {static_cast<schema::NodeId>(n), costs[n]};
  }
  std::sort(entries->begin(), entries->end(),
            [](const match::CandidateEntry& a,
               const match::CandidateEntry& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              return a.node < b.node;
            });
}

}  // namespace

bool QueryCandidates::CellProvablyComplete(size_t pos, int32_t schema_index,
                                           double delta_threshold) const {
  const Cell& cell =
      cells_[pos * schema_count_ + static_cast<size_t>(schema_index)];
  return CellComplete(cell.skip_bound, weight_name_, normalizer_,
                      delta_threshold);
}

double QueryCandidates::ProvablyCompleteFraction(
    double delta_threshold) const {
  if (cells_.empty()) return 1.0;
  size_t complete = 0;
  for (const Cell& cell : cells_) {
    if (CellComplete(cell.skip_bound, weight_name_, normalizer_,
                     delta_threshold)) {
      ++complete;
    }
  }
  return static_cast<double>(complete) / static_cast<double>(cells_.size());
}

CandidateGenerator::CandidateGenerator(const PreparedRepository* prepared,
                                       match::ObjectiveOptions objective)
    : prepared_(prepared), objective_(std::move(objective)) {
  assert(prepared_ != nullptr);
  // Mirror ScoreFolded's weight clamping: negative weights count as 0.
  const sim::NameSimilarityOptions& name = objective_.name;
  double wl = std::max(0.0, name.weight_levenshtein);
  double wj = std::max(0.0, name.weight_jaro_winkler);
  double wt = std::max(0.0, name.weight_trigram);
  double wk = std::max(0.0, name.weight_token);
  double wsum = wl + wj + wt + wk;
  trigram_weight_share_ = wsum > 0.0 ? wt / wsum : 0.0;
}

Status CandidateGenerator::ValidateQuery(const schema::Schema& query) const {
  if (query.empty()) {
    return Status::InvalidArgument("query schema is empty");
  }
  SMB_RETURN_IF_ERROR(query.Validate());
  const sim::NameSimilarityOptions& index_name = prepared_->name_options();
  if (index_name.case_insensitive != objective_.name.case_insensitive ||
      index_name.synonyms != objective_.name.synonyms) {
    return Status::InvalidArgument(
        "candidate generation requires the objective's name options "
        "(folding, synonyms) to match the ones the index was built with");
  }
  if (row_cache_ != nullptr && row_cache_->prepared() != prepared_) {
    return Status::InvalidArgument(
        "the name row cache belongs to a different prepared repository");
  }
  return Status::OK();
}

void CandidateGenerator::FinalizeCounts(const std::vector<size_t>& limits,
                                        QueryCandidates* out) const {
  const schema::SchemaRepository& repo = prepared_->repo();
  out->generated_ = 0;
  out->skipped_ = 0;
  for (size_t cell_index = 0; cell_index < out->cells_.size(); ++cell_index) {
    QueryCandidates::Cell& cell = out->cells_[cell_index];
    const size_t size =
        repo.schema(static_cast<int32_t>(cell_index % out->schema_count_))
            .size();
    // A scored cell lists exactly this many nodes; an emptied one, none.
    cell.offered = std::min(limits[cell_index], size);
    assert(cell.entries.size() == cell.offered || cell.entries.empty());
    out->generated_ += cell.offered;
    out->skipped_ += size - cell.offered;
  }
}

void CandidateGenerator::InitOutput(const schema::Schema& query,
                                    QueryCandidates* out) const {
  const size_t m = query.PreOrder().size();
  const size_t schema_count = prepared_->repo().schema_count();
  out->cells_.clear();
  out->cells_.resize(m * schema_count);
  out->positions_ = m;
  out->schema_count_ = schema_count;
  out->weight_name_ = objective_.weight_name;
  out->normalizer_ = objective_.weight_name * static_cast<double>(m);
  if (m > 1) {
    out->normalizer_ +=
        objective_.weight_structure * static_cast<double>(m - 1);
  }
  if (out->normalizer_ <= 0.0) out->normalizer_ = 1.0;
}

void CandidateGenerator::ScoreEveryCell(
    ParallelCellScorer& workers, const schema::Schema& query,
    const std::vector<schema::NodeId>& preorder,
    const std::vector<size_t>& limits, const match::ObjectiveFunction* filter,
    double delta_threshold, std::vector<PositionRetrieval>* retrieval_out,
    QueryCandidates* out, AdaptiveGenerationStats* spent) const {
  const schema::SchemaRepository& repo = prepared_->repo();
  const size_t schema_count = out->schema_count_;
  const size_t m = preorder.size();
  const size_t name_count = prepared_->name_count();
  auto full_coverage = [&](size_t cell_index) {
    return limits[cell_index] >=
           repo.schema(static_cast<int32_t>(cell_index % schema_count)).size();
  };

  // Full-coverage cells are gathered from their position's name row;
  // partial cells keep the heap path, the only reader of the retrieval.
  // The gather considers and costs every node, as the heap path does (the
  // filter costs them too, so a pruned schema's are counted as well).
  std::vector<uint8_t> has_full(m, 0);
  for (size_t pos = 0; pos < m; ++pos) {
    for (size_t si = 0; si < schema_count; ++si) {
      if (!full_coverage(pos * schema_count + si)) continue;
      has_full[pos] = 1;
      const size_t size = repo.schema(static_cast<int32_t>(si)).size();
      spent->budget_spent += size;
      spent->costs_computed += size;
    }
  }

  // With one thread every stage below runs inline (`ParallelFor`).
  const size_t threads = workers.threads();
  std::vector<PositionRetrieval>& retrievals = *retrieval_out;
  workers.PrepareAll(&retrievals);

  // The names each position's row scores. A row from or for the cache is
  // complete (every name id). An uncached row holds the distinct names of
  // the position's full-coverage cells: the heap path sends every node of
  // such a cell through a full cost, so its memo scored each of these
  // names as well, and the row never scores more names than the memo did.
  const uint64_t options_fingerprint =
      row_cache_ != nullptr ? match::FingerprintNameOptions(objective_.name)
                            : 0;
  std::vector<uint32_t> all_names;
  std::vector<std::vector<uint32_t>> distinct_names(m);
  std::vector<uint8_t> in_row;
  std::vector<std::span<const uint32_t>> row_names(m);
  std::vector<std::shared_ptr<std::vector<double>>> rows(m);
  for (size_t pos = 0; pos < m; ++pos) {
    if (row_cache_ != nullptr) {
      retrievals[pos].name_row = row_cache_->Lookup(
          retrievals[pos].prepared.folded, options_fingerprint);
      if (retrievals[pos].name_row != nullptr) {
        ++spent->rows_cached;
        continue;
      }
    }
    if (has_full[pos] == 0) continue;
    if (row_cache_ != nullptr) {
      if (all_names.empty()) {
        all_names.resize(name_count);
        std::iota(all_names.begin(), all_names.end(), 0u);
      }
      row_names[pos] = all_names;
    } else {
      in_row.resize(name_count, 0);
      for (size_t si = 0; si < schema_count; ++si) {
        if (!full_coverage(pos * schema_count + si)) continue;
        const auto schema_index = static_cast<int32_t>(si);
        const uint32_t first = prepared_->first_ordinal(schema_index);
        const auto size =
            static_cast<uint32_t>(repo.schema(schema_index).size());
        for (uint32_t ordinal = first; ordinal < first + size; ++ordinal) {
          const uint32_t name = prepared_->name_id(ordinal);
          if (in_row[name] == 0) {
            in_row[name] = 1;
            distinct_names[pos].push_back(name);
          }
        }
      }
      for (uint32_t name : distinct_names[pos]) in_row[name] = 0;
      row_names[pos] = distinct_names[pos];
    }
    rows[pos] = std::make_shared<std::vector<double>>(name_count, kNotInRow);
    spent->names_scored += row_names[pos].size();
  }

  // Rows in (position, name chunk) items, then shared read-only.
  std::vector<std::pair<size_t, size_t>> row_items;
  for (size_t pos = 0; pos < m; ++pos) {
    for (size_t begin = 0; begin < row_names[pos].size(); begin += kRowChunk) {
      row_items.emplace_back(pos, begin);
    }
  }
  ParallelFor(threads, row_items.size(), [&](size_t, size_t item) {
    const auto [pos, begin] = row_items[item];
    const std::span<const uint32_t> names = row_names[pos];
    const size_t count = std::min(kRowChunk, names.size() - begin);
    ScoreNameRow(*prepared_, objective_.name, retrievals[pos].prepared,
                 names.subspan(begin, count), rows[pos]->data());
  });
  for (size_t pos = 0; pos < m; ++pos) {
    if (rows[pos] == nullptr) continue;
    retrievals[pos].name_row = rows[pos];
    if (row_cache_ != nullptr) {
      row_cache_->Insert(retrievals[pos].prepared.folded, options_fingerprint,
                         retrievals[pos].name_row);
    }
  }

  // One pass over schema ranges, each cell with one writer: cost every
  // (position, node) the schema needs from the rows, drop the schema when
  // its tree bound is over budget, and gather its full-coverage cells from
  // those costs. Without a filter only full-coverage positions are costed.
  const double budget =
      filter == nullptr ? 0.0
                        : delta_threshold * filter->normalizer() + 1e-12 +
                              match::kLookaheadSlack;
  std::vector<uint8_t> pruned(schema_count, 0);
  const size_t ranges = (schema_count + kGatherSchemas - 1) / kGatherSchemas;
  struct FillScratch {
    std::vector<double> costs;
    std::optional<match::TreeBound> tree_bound;
  };
  std::vector<std::vector<uint8_t>> mismatch(m);
  for (size_t pos = 0; pos < m; ++pos) {
    // Only positions with a row have a cost that can be penalized.
    if (retrievals[pos].name_row == nullptr) continue;
    mismatch[pos] =
        TypeMismatches(*prepared_, objective_, query.node(preorder[pos]));
  }
  std::vector<FillScratch> scratch(ParallelWorkers(threads, ranges));
  ParallelFor(threads, ranges, [&](size_t worker, size_t item) {
    FillScratch& own = scratch[worker];
    if (filter != nullptr && !own.tree_bound) own.tree_bound.emplace(filter);
    const size_t begin = item * kGatherSchemas;
    const size_t end = std::min(schema_count, begin + kGatherSchemas);
    for (size_t si = begin; si < end; ++si) {
      const auto schema_index = static_cast<int32_t>(si);
      const size_t n = repo.schema(schema_index).size();
      own.costs.resize(m * n);
      for (size_t pos = 0; pos < m; ++pos) {
        if (filter == nullptr && !full_coverage(pos * schema_count + si)) {
          continue;
        }
        const NameRow& row = retrievals[pos].name_row;
        RowCosts(*prepared_, objective_, row == nullptr ? nullptr : row->data(),
                 mismatch[pos], schema_index, own.costs.data() + pos * n);
      }
      if (filter != nullptr &&
          own.tree_bound->MinSum(schema_index, own.costs, budget) > budget) {
        // No mapping into the schema is within Δ: empty cells, certified
        // where they cover the schema and uncertified (bound 0) elsewhere.
        pruned[si] = 1;
        for (size_t pos = 0; pos < m; ++pos) {
          QueryCandidates::Cell& cell = out->cells_[pos * schema_count + si];
          cell.skip_bound = full_coverage(pos * schema_count + si) ? kInf : 0.0;
        }
        continue;
      }
      for (size_t pos = 0; pos < m; ++pos) {
        const size_t cell_index = pos * schema_count + si;
        if (!full_coverage(cell_index)) continue;
        QueryCandidates::Cell& cell = out->cells_[cell_index];
        GatherCell(std::span<const double>(own.costs).subspan(pos * n, n),
                   &cell.entries);
        cell.skip_bound = kInf;
      }
    }
  });
  spent->schemas_pruned = static_cast<uint64_t>(
      std::count(pruned.begin(), pruned.end(), uint8_t{1}));

  // Partial cells of the schemas left keep the heap path; only their
  // positions retrieve.
  std::vector<uint8_t> retrieve(m, 0);
  std::vector<CellTask> tasks;
  for (size_t i = 0; i < limits.size(); ++i) {
    if (full_coverage(i) || pruned[i % schema_count] != 0) continue;
    retrieve[i / schema_count] = 1;
    tasks.push_back({i, limits[i], {}});
  }
  workers.RetrieveAll(retrieve, &retrievals);
  workers.ScoreInOrder(
      retrievals, tasks, [] { return false; },
      [&](const CellTask& task, ScoredCell& cell) {
        out->cells_[task.cell_index].entries = std::move(cell.entries);
        out->cells_[task.cell_index].skip_bound = cell.skip_bound;
        spent->budget_spent += cell.work.scored;
        spent->costs_computed += cell.work.computed;
        spent->names_scored += cell.work.names_scored;
      });
}

Result<QueryCandidates> CandidateGenerator::Generate(
    const schema::Schema& query, size_t limit) const {
  if (limit == 0) {
    return Status::InvalidArgument("candidate limit must be positive");
  }
  // Target 0 never escalates: every cell is scored once at `limit`, and Δ
  // only feeds the certificates, which the lists do not depend on.
  AdaptiveCandidatePolicy fixed;
  fixed.min_provable_completeness = 0.0;
  fixed.initial_limit = limit;
  return GenerateAdaptive(query, fixed, /*delta_threshold=*/0.0);
}

Result<QueryCandidates> CandidateGenerator::GenerateAdaptive(
    const schema::Schema& query, const AdaptiveCandidatePolicy& policy,
    double delta_threshold, AdaptiveGenerationStats* stats) const {
  return GenerateLists(query, policy, delta_threshold, stats,
                       /*prune_schemas=*/false);
}

Result<QueryCandidates> CandidateGenerator::GenerateForMatching(
    const schema::Schema& query, const AdaptiveCandidatePolicy& policy,
    double delta_threshold, AdaptiveGenerationStats* stats) const {
  return GenerateLists(query, policy, delta_threshold, stats,
                       /*prune_schemas=*/true);
}

Result<QueryCandidates> CandidateGenerator::GenerateLists(
    const schema::Schema& query, const AdaptiveCandidatePolicy& policy,
    double delta_threshold, AdaptiveGenerationStats* stats,
    bool prune_schemas) const {
  if (policy.min_provable_completeness < 0.0 ||
      policy.min_provable_completeness > 1.0) {
    return Status::InvalidArgument(
        "min_provable_completeness must be in [0, 1]");
  }
  if (policy.initial_limit == 0) {
    return Status::InvalidArgument("initial_limit must be positive");
  }
  if (policy.growth_factor < 2) {
    return Status::InvalidArgument("growth_factor must be at least 2");
  }
  if (policy.max_limit != 0 && policy.max_limit < policy.initial_limit) {
    return Status::InvalidArgument(
        "max_limit must be 0 (unbounded) or at least initial_limit");
  }
  SMB_RETURN_IF_ERROR(ValidateQuery(query));

  const schema::SchemaRepository& repo = prepared_->repo();
  const std::vector<schema::NodeId> preorder = query.PreOrder();
  const size_t m = preorder.size();
  const size_t schema_count = repo.schema_count();
  const size_t total_cells = m * schema_count;

  QueryCandidates out;
  InitOutput(query, &out);

  AdaptiveGenerationStats local;
  local.cells_total = total_cells;
  if (total_cells == 0) {
    out.limit_ = policy.initial_limit;
    if (stats != nullptr) *stats = local;
    return out;
  }

  // Growing a cell past its schema size is pointless: the list already
  // covers every node (skip-bound +inf, always certified).
  auto schema_size = [&](size_t si) {
    return repo.schema(static_cast<int32_t>(si)).size();
  };
  auto cap_for = [&](size_t si) {
    return policy.max_limit > 0 ? std::min(policy.max_limit, schema_size(si))
                                : schema_size(si);
  };

  std::vector<size_t> limits(total_cells, policy.initial_limit);
  std::vector<uint8_t> certified(total_cells, 0);
  std::vector<uint8_t> escalated(total_cells, 0);
  size_t certified_count = 0;
  auto target_met = [&] {
    return static_cast<double>(certified_count) /
                   static_cast<double>(total_cells) +
               1e-12 >=
           policy.min_provable_completeness;
  };

  // Every finite skip-bound is ≤ 1 and the Δ-unit bound is monotone in it
  // (IEEE multiply and divide are monotone, and weight_name ≥ 0), so when
  // 1.0 does not certify no finite bound does: a cell certifies exactly
  // when its limit reaches its schema size.
  const bool only_full_coverage_certifies =
      out.weight_name_ >= 0.0 &&
      !CellComplete(1.0, out.weight_name_, out.normalizer_, delta_threshold);
  if (only_full_coverage_certifies) {
    // The escalation rounds below on the limits alone, with certification
    // read off the schema sizes; the single pass then scores every cell at
    // its final limit, and no round is left to run.
    auto note_limit = [&](size_t cell_index) {
      if (limits[cell_index] >= schema_size(cell_index % schema_count)) {
        certified[cell_index] = 1;
        ++certified_count;
      }
    };
    for (size_t cell_index = 0; cell_index < total_cells; ++cell_index) {
      note_limit(cell_index);
    }
    while (!target_met()) {
      bool any_escalated = false;
      for (size_t cell_index = 0; cell_index < total_cells && !target_met();
           ++cell_index) {
        const size_t cap = cap_for(cell_index % schema_count);
        if (certified[cell_index] != 0 || limits[cell_index] >= cap) continue;
        limits[cell_index] =
            std::min(cap, limits[cell_index] * policy.growth_factor);
        escalated[cell_index] = 1;
        any_escalated = true;
        note_limit(cell_index);
      }
      if (!any_escalated) break;  // every uncertified cell is at its cap
      ++local.rounds;
    }
  }

  // Round 0 (or the planned final limits): every cell scored once. In the
  // planned regime no round follows, so a schema whose tree bound is over
  // budget can be dropped before its lists are built (edge terms must be
  // ≥ 0 for the bound to hold).
  std::optional<match::ObjectiveFunction> filter;
  if (prune_schemas && only_full_coverage_certifies &&
      objective_.weight_structure >= 0.0) {
    filter.emplace(&query, &repo, objective_);
  }
  ParallelCellScorer workers(ResolveThreadCount(num_threads_), prepared_,
                             &objective_, trigram_weight_share_,
                             cutoff_enabled_, block_max_enabled_, query,
                             preorder);
  std::vector<PositionRetrieval> retrievals;
  ScoreEveryCell(workers, query, preorder, limits,
                 filter ? &*filter : nullptr, delta_threshold, &retrievals,
                 &out, &local);
  auto note_certified = [&](size_t cell_index) {
    if (certified[cell_index] == 0 &&
        CellComplete(out.cells_[cell_index].skip_bound, out.weight_name_,
                     out.normalizer_, delta_threshold)) {
      certified[cell_index] = 1;
      ++certified_count;
    }
  };
  for (size_t cell_index = 0; cell_index < total_cells; ++cell_index) {
    assert(!only_full_coverage_certifies ||
           CellComplete(out.cells_[cell_index].skip_bound, out.weight_name_,
                        out.normalizer_, delta_threshold) ==
               (certified[cell_index] != 0));
    note_certified(cell_index);
  }

  // Escalation rounds: regenerate every uncertified, still-growable cell
  // at `growth_factor ×` its limit, in (position, schema) order, and stop
  // as soon as the certified fraction reaches the target or no cell can
  // grow further. `ScoreInOrder` checks the target before each commit, so
  // the stop point is the same for every thread count. Only scoring a
  // cell changes its eligibility, so a round's task list is fixed up
  // front. Terminates: every escalation strictly grows a limit toward its
  // finite cap.
  auto commit = [&](const CellTask& task, ScoredCell& cell) {
    out.cells_[task.cell_index].entries = std::move(cell.entries);
    out.cells_[task.cell_index].skip_bound = cell.skip_bound;
    local.budget_spent += cell.work.scored;
    local.costs_computed += cell.work.computed;
    local.names_scored += cell.work.names_scored;
    limits[task.cell_index] = task.limit;
    escalated[task.cell_index] = 1;
    note_certified(task.cell_index);
  };
  std::vector<CellTask> tasks;
  while (!target_met()) {
    tasks.clear();
    for (size_t cell_index = 0; cell_index < total_cells; ++cell_index) {
      const size_t cap = cap_for(cell_index % schema_count);
      if (certified[cell_index] == 0 && limits[cell_index] < cap) {
        tasks.push_back(
            {cell_index,
             std::min(cap, limits[cell_index] * policy.growth_factor),
             out.cells_[cell_index].entries});
      }
    }
    if (tasks.empty()) break;  // every uncertified cell is at its cap
    local.speculative_scored +=
        workers.ScoreInOrder(retrievals, tasks, target_met, commit);
    ++local.rounds;
  }

  std::map<size_t, uint64_t> distribution;
  size_t max_limit_used = 0;
  for (size_t cell_index = 0; cell_index < total_cells; ++cell_index) {
    max_limit_used = std::max(max_limit_used, limits[cell_index]);
    ++distribution[limits[cell_index]];
    if (escalated[cell_index] != 0) ++local.cells_escalated;
    if (certified[cell_index] == 0 &&
        limits[cell_index] >= cap_for(cell_index % schema_count)) {
      ++local.cells_at_cap;
    }
  }
  local.cells_certified = certified_count;
  local.achieved_completeness = static_cast<double>(certified_count) /
                                static_cast<double>(total_cells);
  local.final_limit_distribution.assign(distribution.begin(),
                                        distribution.end());

  out.limit_ = max_limit_used;
  FinalizeCounts(limits, &out);
  if (stats != nullptr) *stats = std::move(local);
  return out;
}

}  // namespace smb::index
