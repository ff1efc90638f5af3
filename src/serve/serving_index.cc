#include "serve/serving_index.h"

#include <memory>
#include <utility>

#include "common/timing.h"
#include "index/snapshot.h"
#include "match/fingerprint.h"
#include "schema/xsd_reader.h"

/// \file serving_index.cc
/// \brief Generation construction: repository load, snapshot load/build,
/// matcher construction, fingerprinting.

namespace smb::serve {

namespace {

/// Fingerprints the generation's `repo`, builds its matcher and gives it
/// the prepared index (snapshot load, build, or both). The snapshot check
/// reuses the fingerprint.
Status LoadOrBuildIndex(std::shared_ptr<ServingIndex>& index,
                        const std::string& snapshot_path,
                        const ServingIndexOptions& options) {
  index->repo_fingerprint = match::FingerprintRepository(index->repo);
  SMB_ASSIGN_OR_RETURN(
      index->matcher,
      match::MakeMatcher(options.matcher_kind, index->repo,
                         options.factory_options));

  if (!snapshot_path.empty()) {
    const SteadyClock::time_point t0 = SteadyClock::now();
    index::SnapshotLoadReport report;
    Result<index::PreparedRepository> loaded = index::LoadSnapshot(
        snapshot_path, index->repo, options.name_options,
        options.num_threads, &report, index->repo_fingerprint);
    if (loaded.ok()) {
      index->prepared = *std::move(loaded);
      index->load_seconds = SecondsSince(t0);
      index->source = "snapshot";
      index->used_backup = report.used_backup;
      index->warning = report.warning;
      index->snapshot_read_seconds = report.read_seconds;
      index->snapshot_decode_seconds = report.decode_seconds;
      index->name_ids_seconds = report.name_ids_seconds;
      return Status::OK();
    }
    if (loaded.status().code() != StatusCode::kNotFound ||
        !options.build_if_missing) {
      return loaded.status();
    }
  }
  if (!options.build_if_missing) {
    return Status::FailedPrecondition(
        "no snapshot path given and building is disabled");
  }
  const SteadyClock::time_point t0 = SteadyClock::now();
  SMB_ASSIGN_OR_RETURN(
      index::PreparedRepository built,
      index::PreparedRepository::Build(index->repo, options.name_options));
  index->prepared = std::move(built);
  index->build_seconds = SecondsSince(t0);
  index->source = "built";
  if (options.save_after_build && !snapshot_path.empty()) {
    const SteadyClock::time_point t1 = SteadyClock::now();
    SMB_RETURN_IF_ERROR(index::SaveSnapshot(*index->prepared,
                                            snapshot_path));
    index->save_seconds = SecondsSince(t1);
  }
  return Status::OK();
}

/// Finishes a generation whose `repo` is already in place:
/// `LoadOrBuildIndex`, then the generation's empty name-row cache over its
/// prepared index.
Status PopulateIndex(std::shared_ptr<ServingIndex>& index,
                     const std::string& snapshot_path,
                     const ServingIndexOptions& options) {
  SMB_RETURN_IF_ERROR(LoadOrBuildIndex(index, snapshot_path, options));
  index->name_rows =
      std::make_unique<index::NameRowCache>(&*index->prepared);
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<const ServingIndex>> BuildServingIndex(
    schema::SchemaRepository repo, const ServingIndexOptions& options,
    uint64_t generation) {
  auto index = std::make_shared<ServingIndex>();
  index->generation = generation;
  index->repo = std::move(repo);
  ServingIndexOptions build_options = options;
  build_options.build_if_missing = true;
  SMB_RETURN_IF_ERROR(
      PopulateIndex(index, /*snapshot_path=*/"", build_options));
  return std::shared_ptr<const ServingIndex>(std::move(index));
}

Result<std::shared_ptr<const ServingIndex>> OpenServingIndex(
    const std::string& repo_dir, const std::string& snapshot_path,
    const ServingIndexOptions& options, uint64_t generation) {
  auto index = std::make_shared<ServingIndex>();
  index->generation = generation;
  const SteadyClock::time_point t0 = SteadyClock::now();
  SMB_ASSIGN_OR_RETURN(index->repo, schema::LoadRepositoryDir(repo_dir));
  index->repo_load_seconds = SecondsSince(t0);
  Status populated = PopulateIndex(index, snapshot_path, options);
  if (!populated.ok()) {
    return populated.WithContext("while opening serving index generation " +
                                 std::to_string(generation));
  }
  return std::shared_ptr<const ServingIndex>(std::move(index));
}

}  // namespace smb::serve
