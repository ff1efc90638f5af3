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
  /// (Σ per-(position, schema) list sizes); 0 on direct runs. Filled by the
  /// layer that built the candidate lists (engine / workload), not by the
  /// matchers themselves.
  uint64_t candidates_generated = 0;
  /// Repository nodes the index skipped (Σ schema_size − list size) — the
  /// search-space reduction the selectivity knob C buys. Both counts take
  /// the lists a schema would have had where the index emptied it for
  /// holding no answer within Δ (index::QueryCandidates::CandidatesOffered).
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
///
/// A system implements one entry point, `MatchSchemas`, over a contiguous
/// range of repository schemas. `Match` runs it over the whole repository;
/// the batch engine runs it over disjoint ranges on worker threads, all
/// reading one shared objective.
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Short system name for reports ("exhaustive", "beam-8", ...).
  virtual std::string name() const = 0;

  /// \brief True when the answers in one schema do not depend on which
  /// other schemas the run covers, so the batch engine may split the
  /// repository into ranges and run them on worker threads. Matchers whose
  /// per-run setup spans the whole repository (e.g. ranking clusters of a
  /// prebuilt clustering) return false; the engine then falls back to one
  /// single-threaded whole-repository `Match`.
  virtual bool SupportsSharding() const { return true; }

  /// \brief Solves matching problem Q: returns the ranked answer set of all
  /// mappings the system finds with Δ ≤ `options.delta_threshold`.
  ///
  /// Validates the inputs, builds an objective over `query` and `repo`
  /// (lazy node-cost cache), runs `MatchSchemas` over every schema and
  /// finalizes the ranking. `stats`, when non-null, accumulates work
  /// counters.
  Result<AnswerSet> Match(const schema::Schema& query,
                          const schema::SchemaRepository& repo,
                          const MatchOptions& options,
                          MatchStats* stats = nullptr) const;

  /// \brief Appends to `out` (unfinalized) the answers the system finds in
  /// schemas `[first, first + count)` of `objective.repo()`, with
  /// repository-wide schema indices.
  ///
  /// Costs come only from `objective` (its candidate lists, its pool or its
  /// lazy cache). The inputs must have passed `ValidateInputs` and the range
  /// must lie inside the repository; errors concern the matcher's own
  /// options. Disjoint ranges may run concurrently over an objective with a
  /// provider attached. `stats`, when non-null, accumulates work counters;
  /// those of a partition of `[0, N)` sum to the whole range's.
  virtual Status MatchSchemas(const ObjectiveFunction& objective, size_t first,
                              size_t count, const MatchOptions& options,
                              AnswerSet* out, MatchStats* stats) const = 0;

  /// Shared validation of query/repo/options: what `Match` checks before
  /// any schema is visited, and what a range caller checks once per run.
  static Status ValidateInputs(const schema::Schema& query,
                               const schema::SchemaRepository& repo,
                               const MatchOptions& options);
};

}  // namespace smb::match
