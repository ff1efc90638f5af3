#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/result.h"
#include "index/name_row_cache.h"
#include "index/prepared_repository.h"
#include "match/matcher.h"
#include "match/matcher_factory.h"
#include "schema/repository.h"
#include "sim/name_similarity.h"

/// \file serving_index.h
/// \brief One immutable *generation* of everything the serve path matches
/// against: the schema repository, the matcher built over it, and the
/// prepared index — plus the provenance needed to reason about reloads.
///
/// The serve frontend holds the current generation behind a
/// `std::shared_ptr<const ServingIndex>`; a `reload` builds a complete new
/// generation off to the side and swaps the pointer. In-flight requests
/// keep their generation alive through their own shared_ptr copy, so a
/// swap never invalidates state a worker is matching against, and the old
/// generation is destroyed exactly when its last request finishes.
/// `repo_fingerprint` is folded into the query-cache key, so answers
/// computed against one generation are never replayed for another. Each
/// generation also owns the cross-request name-row cache of its prepared
/// index (`name_rows`), so a reload starts the new generation with an
/// empty one and drops the old rows with the old index.
namespace smb::serve {

/// \brief How to construct a generation (matcher kind and knobs, scorer
/// options, decode parallelism). Captured at server startup and reused
/// verbatim by every reload, so generations differ only in their data.
struct ServingIndexOptions {
  /// Matcher registry name ("exhaustive", "beam", "cluster", "topk", ...).
  std::string matcher_kind = "exhaustive";
  match::MatcherFactoryOptions factory_options;
  /// Scorer options the queries will match with; must match the snapshot.
  sim::NameSimilarityOptions name_options;
  /// Snapshot decode / index build parallelism (1 = serial).
  size_t num_threads = 1;
  /// Build the index from the repository when the snapshot is missing
  /// (startup behaviour). Reloads set this false: a missing snapshot is
  /// an error, the old generation keeps serving.
  bool build_if_missing = true;
  /// After building (only with a non-empty snapshot path), persist the
  /// snapshot for the next start.
  bool save_after_build = false;
};

/// \brief One immutable generation of serving state. `matcher` and
/// `prepared` reference `repo`, so the struct lives on the heap and is
/// never moved after construction.
struct ServingIndex {
  /// Monotone generation number (startup = 1, each reload +1).
  uint64_t generation = 0;
  schema::SchemaRepository repo;
  /// `match::FingerprintRepository(repo)` — the cache-key ingredient.
  uint64_t repo_fingerprint = 0;
  std::unique_ptr<match::Matcher> matcher;
  std::optional<index::PreparedRepository> prepared;
  /// Name rows shared by this generation's requests
  /// (`index::NameRowCache` over `prepared`, default byte budget). Starts
  /// empty; the only member requests write, and it is thread-safe.
  std::unique_ptr<index::NameRowCache> name_rows;

  /// \name Provenance (the `stats` line and reload responses echo these).
  /// @{
  /// "snapshot" or "built".
  std::string source = "built";
  /// True when the primary snapshot was unusable and `.bak` loaded.
  bool used_backup = false;
  /// Degradation note (backup fallback), empty on a clean load.
  std::string warning;
  double load_seconds = 0.0;
  double build_seconds = 0.0;
  double save_seconds = 0.0;
  /// Start-up stages (`OpenServingIndex`): reading and parsing the
  /// repository directory, and of `load_seconds` the snapshot file read,
  /// its decode and the name-id pass (see `index::SnapshotLoadReport`).
  double repo_load_seconds = 0.0;
  double snapshot_read_seconds = 0.0;
  double snapshot_decode_seconds = 0.0;
  double name_ids_seconds = 0.0;
  /// @}
};

/// \brief Builds a generation directly from an in-memory repository (no
/// snapshot involved) — the test-fixture and offline path.
Result<std::shared_ptr<const ServingIndex>> BuildServingIndex(
    schema::SchemaRepository repo, const ServingIndexOptions& options,
    uint64_t generation);

/// \brief Opens a generation from disk: loads every `.xsd` in `repo_dir`,
/// then loads `snapshot_path` against it (honouring the `.bak` fallback),
/// or — with `build_if_missing` and a missing snapshot — builds the index
/// (and persists it under `save_after_build`). An empty `snapshot_path`
/// always builds. Any failure leaves the caller's current generation
/// untouched; a snapshot whose fingerprints do not match the freshly read
/// repository is rejected with `kFailedPrecondition`.
Result<std::shared_ptr<const ServingIndex>> OpenServingIndex(
    const std::string& repo_dir, const std::string& snapshot_path,
    const ServingIndexOptions& options, uint64_t generation);

}  // namespace smb::serve
