#pragma once

#include <cstdint>
#include <string>

#include "common/result.h"
#include "match/answer_set.h"
#include "match/objective.h"
#include "schema/repository.h"
#include "schema/schema.h"

/// \file matcher.h
/// \brief The matching-system interface shared by S1 and every S2.

namespace smb::match {

/// \brief Parameters of a matching run.
struct MatchOptions {
  /// δ_max: only mappings with Δ ≤ this are produced. The P/R sweep then
  /// varies δ ≤ δ_max over the returned ranked set.
  double delta_threshold = 0.30;
  /// Forbid two query elements sharing one target node.
  bool injective = true;
  /// Objective Δ configuration — must be identical between an original
  /// system and its improvement for the bounds technique to apply.
  ObjectiveOptions objective;
  /// Upper bound on the query size the enumerating matchers accept
  /// (the search space is |schema|^m per repository schema).
  size_t max_query_elements = 12;
  /// Optional precomputed node-cost matrices (engine::SimilarityMatrixPool).
  /// When set, matchers read name+type costs from it instead of filling the
  /// objective's lazy per-instance cache; the provider must outlive the
  /// Match call and must index schemas the same way as `repo`.
  const NodeCostProvider* shared_costs = nullptr;
  /// Optional sparse candidate lists (index::QueryCandidates). When set, the
  /// enumerating matchers (exhaustive, beam, topk) only consider the listed
  /// targets per query position — the non-exhaustive S2 restriction — and
  /// read the exact node costs stored with the candidates instead of going
  /// through `shared_costs` or the lazy cache. Matchers with their own
  /// candidate scheme (cluster) ignore it. The provider must outlive the
  /// Match call and must index schemas the same way as `repo`.
  const CandidateProvider* candidates = nullptr;
};

/// \brief Counters describing the work a matcher performed; the currency of
/// the efficiency benches.
struct MatchStats {
  /// Partial assignments expanded (search-tree nodes).
  uint64_t states_explored = 0;
  /// Complete mappings whose Δ passed the threshold.
  uint64_t mappings_emitted = 0;
  /// Cuts made by the admissible Δ-bound. The exhaustive matcher counts
  /// one per cut of every kind: a partial assignment over budget (the
  /// budget test), one whose cheapest completion is over budget (the
  /// lookahead), a sorted candidate list cut off at its first such entry
  /// (the list cut-off), and a schema skipped whole because no mapping
  /// into it can be within budget (the schema skip).
  uint64_t states_pruned = 0;
  /// Candidate entries produced by the repository index for this run
  /// (Σ per-(position, schema) list sizes); 0 on dense runs. Filled by the
  /// layer that built the candidate lists (engine / workload), not by the
  /// matchers themselves.
  uint64_t candidates_generated = 0;
  /// Repository nodes the index skipped (Σ schema_size − list size) — the
  /// search-space reduction the selectivity knob C buys.
  uint64_t candidates_skipped = 0;

  MatchStats& operator+=(const MatchStats& other) {
    states_explored += other.states_explored;
    mappings_emitted += other.mappings_emitted;
    states_pruned += other.states_pruned;
    candidates_generated += other.candidates_generated;
    candidates_skipped += other.candidates_skipped;
    return *this;
  }
};

/// \brief A schema matching system S: query × repository → ranked answers.
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Short system name for reports ("exhaustive", "beam-8", ...).
  virtual std::string name() const = 0;

  /// \brief True when Match treats repository schemas independently, so the
  /// batch engine may split the repository into shards and run them on
  /// worker threads. Matchers that consult cross-schema state indexed by
  /// global schema position (e.g. a prebuilt clustering) must return false;
  /// the engine then falls back to one single-threaded whole-repository run.
  virtual bool SupportsSharding() const { return true; }

  /// \brief Solves matching problem Q: returns the ranked answer set of all
  /// mappings the system finds with Δ ≤ `options.delta_threshold`.
  ///
  /// `stats`, when non-null, accumulates work counters.
  virtual Result<AnswerSet> Match(const schema::Schema& query,
                                  const schema::SchemaRepository& repo,
                                  const MatchOptions& options,
                                  MatchStats* stats = nullptr) const = 0;

 protected:
  /// Shared validation of query/repo/options.
  static Status ValidateInputs(const schema::Schema& query,
                               const schema::SchemaRepository& repo,
                               const MatchOptions& options);
};

}  // namespace smb::match
