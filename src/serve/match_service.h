#pragma once

#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/batch_match_engine.h"
#include "engine/query_cache.h"
#include "match/matcher.h"
#include "serve/load_shed.h"
#include "serve/protocol.h"
#include "serve/serving_index.h"

/// \file match_service.h
/// \brief The request executor shared by the network server's worker pool
/// and the offline `--requests` replay mode: one `match` request in, one
/// `MatchResponse` (or error Status) out.
///
/// The service borrows the concurrent result cache and owns a shared
/// pointer to the current `ServingIndex` generation (repository, matcher,
/// prepared index) — any number of workers can execute requests through
/// one service concurrently. `Reload` builds a complete replacement
/// generation and atomically swaps the pointer: each request grabs its
/// generation once at the start, so in-flight requests finish on the old
/// one and the swap is outage-free. Load shedding happens here too: the
/// caller passes the request's observed *pressure* and the service derives
/// the effective completeness target, folds it (with the generation's
/// repository fingerprint) into the cache key, and runs the engine at that
/// target, so a shed request is byte-identical to a direct run at the
/// degraded bound, and answers from one generation are never replayed for
/// another.
namespace smb::serve {

/// \brief Everything a MatchService is configured with. `cache` must
/// outlive the service; the index generation is shared (reload swaps it).
struct MatchServiceConfig {
  match::MatchOptions match_options;
  /// Engine configuration; `prepared_repository` and `name_row_cache` are
  /// overridden per request with the current generation's index and its
  /// name-row cache. Its candidate policy selects the mode: bound-driven
  /// unless the target is 0 (fixed-C, `BatchMatchOptions::bound_driven`).
  engine::BatchMatchOptions engine_options;
  engine::QueryResultCache* cache = nullptr;
  /// Shedding configuration; only consulted in bound-driven mode.
  /// `base_target` must equal the policy's `min_provable_completeness`.
  LoadShedPolicy shed;
  /// How `Reload` constructs replacement generations (captured at
  /// startup; see ServingIndexOptions).
  ServingIndexOptions index_options;
  /// Repository directory a `reload` without an explicit directory
  /// operand re-reads. Empty = reloads must name one.
  std::string default_repo_dir;
};

/// \brief Request executor over a swappable serving-index generation.
/// Thread-safe: `Execute` may be called concurrently from any number of
/// threads, and concurrently with `Reload`.
class MatchService {
 public:
  /// `index` is the startup generation (from BuildServingIndex or
  /// OpenServingIndex).
  MatchService(std::shared_ptr<const ServingIndex> index,
               MatchServiceConfig config)
      : index_(std::move(index)), config_(std::move(config)) {}

  /// \brief Executes one `match` request at the given pressure (in [0, 1];
  /// pass 0 for an unloaded / offline run). Reads and parses the query
  /// file, derives the effective target, consults the cache, runs the
  /// engine on a miss, writes `request.out_path` when non-empty, and
  /// returns the filled response line. I/O, parse and engine failures
  /// surface as an error Status — the caller formats the `err` line; the
  /// connection stays usable.
  Result<MatchResponse> Execute(const Request& request, double pressure);

  /// \brief Swaps in a new generation loaded from `snapshot_path` against
  /// the repository at `repo_dir` (empty = `config.default_repo_dir`).
  /// The snapshot must exist and fingerprint-match the freshly re-read
  /// repository; on any failure the current generation keeps serving and
  /// the error is returned. Returns the new generation. Reloads serialize
  /// among themselves but never block `Execute`.
  Result<std::shared_ptr<const ServingIndex>> Reload(
      const std::string& snapshot_path, const std::string& repo_dir)
      SMB_EXCLUDES(reload_mutex_, index_mutex_);

  /// The current generation (a stable snapshot — callers hold it by
  /// shared_ptr, so a concurrent reload cannot invalidate it).
  std::shared_ptr<const ServingIndex> index() const
      SMB_EXCLUDES(index_mutex_) {
    MutexLock lock(index_mutex_);
    return index_;
  }

  /// Whether requests run in bound-driven mode — the mode that can shed
  /// and that reports `target=`, `shed=`, `budget=` and `rounds=`.
  bool bound_driven() const { return config_.engine_options.bound_driven(); }

  const engine::QueryResultCache* cache() const { return config_.cache; }

 private:
  mutable Mutex index_mutex_;
  std::shared_ptr<const ServingIndex> index_ SMB_GUARDED_BY(index_mutex_);
  /// Serializes reloads (generation numbering + swap), not execution.
  /// Lock order: `reload_mutex_` is always taken before `index_mutex_`.
  Mutex reload_mutex_ SMB_ACQUIRED_BEFORE(index_mutex_);
  MatchServiceConfig config_;
};

}  // namespace smb::serve
