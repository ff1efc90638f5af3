#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "index/candidate_generator.h"
#include "index/name_row_cache.h"
#include "index/prepared_repository.h"
#include "match/answer_set.h"
#include "match/matcher.h"
#include "schema/repository.h"
#include "schema/schema.h"

/// \file batch_match_engine.h
/// \brief Sharded, multi-threaded matching over a schema repository.
///
/// The matchers process repository schemas independently, so a matching run
/// parallelizes by splitting the repository into contiguous schema ranges
/// (shards) and running `Matcher::MatchSchemas` on each range from a
/// worker-thread pool. Nothing is copied: every worker reads the caller's
/// repository through one `ObjectiveFunction` built per run, and its
/// answers already carry repository-wide schema indices. The per-range
/// answer sets are moved into one globally ranked answer set, optionally
/// cut to a global top-k.
///
/// Costs reach the workers through candidate lists attached to that
/// objective. A query-independent `index::PreparedRepository` (built here
/// when the caller passes none, or prebuilt and amortized across many
/// queries) generates, for every (query element, schema) cell, the targets
/// worth scoring under one candidate policy
/// (`index::AdaptiveCandidatePolicy`): every cell starts at the policy's
/// initial limit and grows geometrically until the admissible skip-bound
/// certifies the policy's per-query completeness target at the run's Δ
/// threshold — the paper's effectiveness bound acting as the scheduling
/// signal rather than passive telemetry. Two targets are special:
///  * **1.0 with no cap** — the exact run, and the default when the
///    caller sets no policy. Every cell is certified, so no answer within
///    Δ is lost and the merged answers are *identical* (keys and Δ) to a
///    direct single-threaded `matcher.Match(query, repo, ...)` run for any
///    shard-safe matcher, for every thread count and shard size — the
///    exhaustive S1;
///  * **0.0** — fixed-C: no cell escalates, so every cell keeps the top C
///    = initial-limit candidates, the non-exhaustive S2 restriction;
///    smaller C trades certified-measurable recall for speed
///    (`index::QueryCandidates::SkipLowerBound`).
/// Every target above 0 is bound-driven (`BatchMatchOptions::bound_driven`).
///
/// The lists come from `index::CandidateGenerator::GenerateForMatching`:
/// where only full coverage can certify at the run's Δ (the served
/// regime), a schema whose exact tree bound shows no mapping within Δ gets
/// empty lists before any is built, so neither phase spends work on it,
/// while answers, Δ values and certificates are those of the unfiltered
/// lists (`BatchMatchStats::adaptive.schemas_pruned` counts them).
///
/// The lists answer every cost the matchers read, so the objective's lazy
/// cache is never written and the workers share it read-only. Budget
/// accounting (candidates scored, escalations, the achieved bound,
/// per-shard candidate counts) is reported in `BatchMatchStats`.

namespace smb::engine {

/// \brief Batch engine configuration.
struct BatchMatchOptions {
  /// Worker threads (0 ⇒ hardware concurrency). 1 still runs the sharded
  /// code path, inline on the calling thread.
  size_t num_threads = 1;
  /// Repository schemas per shard (one worker's range); 0 picks a size that
  /// gives each thread several shards to balance uneven schema costs.
  size_t shard_size = 0;
  /// Keep only the globally best k answers after the merge (0 = keep all).
  size_t global_top_k = 0;
  /// Optional prebuilt repository index (must be built over exactly the
  /// `repo` passed to Run). When null, the engine builds one per Run —
  /// correct but wasteful for workloads; build once and share instead.
  const index::PreparedRepository* prepared_repository = nullptr;
  /// Optional cross-request cache of query-name similarity rows
  /// (index/name_row_cache.h), not owned. It must belong to
  /// `prepared_repository` (candidate generation rejects it otherwise).
  /// Lists and answers are identical with and without it. The serve path
  /// passes its generation's cache; everything else runs without one.
  index::NameRowCache* name_row_cache = nullptr;
  /// The candidate policy: lists come from
  /// `index::CandidateGenerator::GenerateAdaptive` against the run's
  /// `MatchOptions::delta_threshold`, each cell growing until its
  /// skip-bound certifies `adaptive->min_provable_completeness`. Unset:
  /// the default policy, target 1.0 with an unbounded `max_limit` — the
  /// exact run. Target 0 keeps every cell at `initial_limit` (fixed-C).
  /// Matchers that refuse sharding (cluster) ignore it — their single-run
  /// fallback is a direct `Matcher::Match`, reported via
  /// `fell_back_to_single_run`.
  std::optional<index::AdaptiveCandidatePolicy> adaptive;

  /// The policy a run generates with: `adaptive`, or the exact default.
  index::AdaptiveCandidatePolicy policy() const {
    return adaptive.value_or(index::AdaptiveCandidatePolicy{});
  }

  /// \brief True when generation is bound-driven: the policy's target is
  /// above 0. Only a fixed-C policy (target 0) is not.
  bool bound_driven() const { return policy().min_provable_completeness > 0.0; }
};

/// \brief What a batch run did (timings in seconds, wall clock).
struct BatchMatchStats {
  /// Matcher work counters accumulated across all shards (plus the index's
  /// candidates_generated/_skipped).
  match::MatchStats match;
  size_t shard_count = 0;
  size_t threads_used = 0;
  /// True when the matcher refused sharding and the engine fell back to one
  /// single-threaded whole-repository run.
  bool fell_back_to_single_run = false;
  /// The engine's own `index::PreparedRepository::Build`; 0 when the caller
  /// passed `prepared_repository` (always on the served path).
  double precompute_seconds = 0.0;
  double match_seconds = 0.0;
  /// Candidate generation time.
  double index_seconds = 0.0;
  /// Fraction of (query position, schema) cells whose skip-bound certifies
  /// that no answer within the run's Δ threshold was lost to the candidate
  /// cutoff — the run's *certified* effectiveness bound. The empty /
  /// fallback convention is **1.0** (nothing was skipped, so completeness
  /// holds vacuously); every layer reporting this quantity
  /// (`eval::QueryRunReport`, the CLI, the serve cache) shares that
  /// convention.
  double provably_complete_fraction = 1.0;
  /// Budget accounting of the candidate generation: rounds, candidates
  /// scored, escalated/capped cells and the achieved bound distribution.
  /// All zero on the single-run fallback, which generates nothing.
  index::AdaptiveGenerationStats adaptive;
  /// Candidate entries given to each shard (Σ `CandidatesOffered` over the
  /// shard's (position, schema) cells) — the per-shard budget the index
  /// spent. Empty on the single-run fallback.
  std::vector<uint64_t> shard_candidates_generated;
};

/// \brief Runs a matcher over repository schema ranges on a worker-thread
/// pool.
class BatchMatchEngine {
 public:
  explicit BatchMatchEngine(BatchMatchOptions options = {})
      : options_(options) {}

  /// \brief Matches `query` against `repo` with `matcher`, sharded across
  /// worker threads. The inputs are validated once per run
  /// (`Matcher::ValidateInputs`). On any shard failure the first error (by
  /// shard order) is returned.
  /// `stats`, when non-null, is written on *every* exit path — on failure
  /// it describes the work completed before the error (callers reusing one
  /// struct across runs never read a stale previous run).
  Result<match::AnswerSet> Run(const match::Matcher& matcher,
                               const schema::Schema& query,
                               const schema::SchemaRepository& repo,
                               const match::MatchOptions& match_options,
                               BatchMatchStats* stats = nullptr) const;

  const BatchMatchOptions& options() const { return options_; }

 private:
  BatchMatchOptions options_;
};

}  // namespace smb::engine
