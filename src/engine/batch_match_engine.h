#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "engine/similarity_matrix_pool.h"
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
/// Costs reach the workers through that objective one of two ways:
///  * **dense** (default): name/type costs are precomputed once in a shared
///    `SimilarityMatrixPool` (itself built in parallel) attached to the
///    objective — no similarity is computed twice, and the merged answers
///    are *identical* (keys and Δ) to a direct single-threaded
///    `matcher.Match(query, repo, ...)` run for any shard-safe matcher, for
///    every thread count and shard size;
///  * **sparse** (`candidate_limit > 0`): a query-independent
///    `index::PreparedRepository` (built once here, or passed in prebuilt
///    and amortized across many queries) generates the top-C candidates per
///    query element, the lists are attached to the objective, and workers
///    only score those — the non-exhaustive S2 restriction. With C ≥ every
///    schema size the candidate lists are complete and the answers are
///    again identical to the dense path; smaller C trades
///    certified-measurable recall for speed
///    (`index::QueryCandidates::SkipLowerBound`).
///
/// Either provider answers every cost the matchers read, so the objective's
/// lazy cache is never written and the workers share it read-only.
///
/// The sparse path has a third, *bound-driven* flavor (`adaptive` set):
/// instead of one fixed C, every (query element, schema) cell grows its
/// candidate list geometrically until the admissible skip-bound certifies
/// the requested per-query completeness target at the run's Δ threshold —
/// the paper's effectiveness bound acting as the scheduling signal rather
/// than passive telemetry. Budget accounting (candidates scored,
/// escalations, the achieved bound, per-shard candidate counts) is
/// reported in `BatchMatchStats`.

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
  /// Candidates per (query element, repository schema) the index hands to
  /// matchers. 0 = dense path. When > 0 the dense pool is skipped entirely:
  /// only the generated candidates are ever scored. Matchers that refuse
  /// sharding (cluster) ignore the limit — their single-run fallback is a
  /// full dense run, reported via `fell_back_to_single_run`.
  size_t candidate_limit = 0;
  /// Optional prebuilt repository index for the sparse path (must be built
  /// over exactly the `repo` passed to Run). When null and
  /// `candidate_limit > 0`, the engine builds one per Run — correct but
  /// wasteful for workloads; build once and share instead.
  const index::PreparedRepository* prepared_repository = nullptr;
  /// Optional cross-request cache of query-name similarity rows for the
  /// sparse path (index/name_row_cache.h), not owned. It must belong to
  /// `prepared_repository` (candidate generation rejects it otherwise).
  /// Lists and answers are identical with and without it. The serve path
  /// passes its generation's cache; everything else runs without one.
  index::NameRowCache* name_row_cache = nullptr;
  /// Bound-driven adaptive sparse mode: when set, candidate lists come
  /// from `index::CandidateGenerator::GenerateAdaptive` against the run's
  /// `MatchOptions::delta_threshold` — each cell grows until its skip-bound
  /// certifies `adaptive->min_provable_completeness` — and
  /// `candidate_limit` is ignored (it may stay 0). With a target of 1.0
  /// and an unbounded `max_limit` the answers are byte-identical to the
  /// dense path for every matcher and thread count. Non-shardable matchers
  /// fall back to a full dense run exactly as in fixed sparse mode.
  std::optional<index::AdaptiveCandidatePolicy> adaptive;
  /// Block-max (WAND) trigram postings traversal in the sparse candidate
  /// generator (on by default). Selected candidates — and therefore match
  /// answers — are identical either way; disabling falls back to the
  /// classic retrieve-everything walk, kept as the correctness oracle.
  bool block_max_postings = true;
};

/// \brief What a batch run did (timings in seconds, wall clock).
struct BatchMatchStats {
  /// Matcher work counters accumulated across all shards (plus the index's
  /// candidates_generated/_skipped on sparse runs).
  match::MatchStats match;
  size_t shard_count = 0;
  size_t threads_used = 0;
  /// True when the matcher refused sharding and the engine fell back to one
  /// single-threaded whole-repository run.
  bool fell_back_to_single_run = false;
  double precompute_seconds = 0.0;
  double match_seconds = 0.0;
  /// Sparse path only: index build (when not prebuilt) + candidate
  /// generation time.
  double index_seconds = 0.0;
  /// Fraction of (query position, schema) cells whose skip-bound certifies
  /// that no answer within the run's Δ threshold was lost to the candidate
  /// cutoff — the run's *certified* effectiveness bound. The empty /
  /// dense-run convention is **1.0** (nothing was skipped, so completeness
  /// holds vacuously); every layer reporting this quantity
  /// (`eval::QueryRunReport`, the CLI, the serve cache) shares that
  /// convention.
  double provably_complete_fraction = 1.0;
  /// True when this run generated candidates adaptively
  /// (`BatchMatchOptions::adaptive`); `adaptive` below is only meaningful
  /// then.
  bool adaptive_mode = false;
  /// Budget accounting of the adaptive generation: rounds, candidates
  /// scored, escalated/capped cells and the achieved bound distribution.
  index::AdaptiveGenerationStats adaptive;
  /// Sparse runs: candidate entries handed to each shard (Σ over the
  /// shard's (position, schema) cells) — the per-shard budget the index
  /// spent. Empty on dense runs and on the single-run fallback.
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
