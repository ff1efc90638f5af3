#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "index/prepared_repository.h"
#include "schema/repository.h"
#include "sim/name_similarity.h"

/// \file snapshot.h
/// \brief Versioned binary persistence for `PreparedRepository`.
///
/// The index is query-independent, so the "prepare once, serve many" story
/// only completes when the prepared form survives the process: a snapshot
/// saves everything `PreparedRepository::Build` computes — prepared names
/// (folded form, interned gram/token ids, synonym groups, PEQ bitmasks),
/// the shared `TokenTable`, every posting list and bucket, and the build
/// stats — so a later process loads in one pass instead of re-deriving it
/// all from the schemas.
///
/// **Guarantees.**
///  * *Bit-identity*: a loaded index contains byte-for-byte the same
///    prepared names and postings as the freshly built one, so every score,
///    candidate list and match answer derived from it is bit-identical to
///    the in-memory path (the snapshot stores no floating-point state at
///    all — scores are recomputed from integer/string payloads by the same
///    kernel).
///  * *Fail-closed loading*: the fixed-size header carries a magic tag, a
///    format version, a fingerprint of the scorer options the index was
///    built with, a fingerprint of the source repository, and an FNV-1a
///    checksum of the body. A snapshot that is truncated, corrupted,
///    version-skewed, built under different options (folding, weights,
///    synonym-table content) or over different schemas is rejected with an
///    actionable error — it can never load into a silently wrong index.
///
/// File layout (all integers little-endian, see io/binary_io.h):
///
/// \code
/// magic "SMBIDX1\n" | u32 version | u64 options_fp | u64 repo_fp
///   | u64 body_size | u64 body_checksum | body (body_size bytes)
/// \endcode
///
/// The body is written with sorted map keys, so saving the same index twice
/// produces identical files (and save → load → save is byte-stable).

namespace smb::index {

/// Format version this binary writes (v2: v1 plus the block-max trigram
/// posting metadata the WAND traversal skips against).
inline constexpr uint32_t kSnapshotFormatVersion = 2;

/// Oldest format version this binary still reads. v1 files lack the
/// block-max arrays; the loader rebuilds them from the postings, so a v1
/// load is bit-identical to a v2 load of the same index.
inline constexpr uint32_t kSnapshotMinFormatVersion = 1;

/// 8-byte magic prefix of every snapshot file.
inline constexpr std::string_view kSnapshotMagic = "SMBIDX1\n";

/// \brief Serializes `prepared` to the snapshot wire format (header+body)
/// at the current `kSnapshotFormatVersion`.
std::string EncodeSnapshot(const PreparedRepository& prepared);

/// \brief `EncodeSnapshot` at an explicit format version in
/// [`kSnapshotMinFormatVersion`, `kSnapshotFormatVersion`] — the
/// back-compat hook (old-version files for loader tests, or writing for a
/// reader that has not been updated yet). Rejects versions this binary
/// does not write.
Result<std::string> EncodeSnapshotForVersion(
    const PreparedRepository& prepared, uint32_t format_version);

/// \brief Decodes a snapshot against the repository and scorer options the
/// caller is about to match with. Rejects (with `kParseError` /
/// `kFailedPrecondition`) anything that is not a well-formed snapshot of
/// exactly this repository under exactly these options; the returned index
/// references `repo` and `name_options.synonyms`, which must outlive it.
///
/// The element payload is chunked on the wire, so `num_threads > 1`
/// decodes chunks on a worker pool (0 = hardware concurrency). The result
/// is identical for every thread count.
///
/// `repo_fingerprint`, when given, must be `match::FingerprintRepository
/// (repo)` as the caller already computed it; the stored fingerprint is
/// compared against it instead of fingerprinting `repo` again.
Result<PreparedRepository> DecodeSnapshot(
    std::string_view bytes, const schema::SchemaRepository& repo,
    const sim::NameSimilarityOptions& name_options, size_t num_threads = 1,
    std::optional<uint64_t> repo_fingerprint = std::nullopt);

/// \brief `EncodeSnapshot` to a file, crash-safely: temp file + fsync +
/// atomic rename (io::WriteBinaryFileAtomic). A previous snapshot at
/// `path` is preserved as `path + ".bak"` — a crash or I/O failure at any
/// point leaves either the old snapshot (at `path` or `path.bak`) or the
/// complete new one visible, never a torn file.
Status SaveSnapshot(const PreparedRepository& prepared,
                    const std::string& path);

/// \brief What `LoadSnapshot` actually did, for callers that surface
/// degraded-mode warnings (the serve CLI logs `report.warning`).
struct SnapshotLoadReport {
  /// True when `path` was missing/corrupt and `path + ".bak"` loaded.
  bool used_backup = false;
  /// Human-readable degradation note, empty on a clean primary load.
  std::string warning;
  /// Seconds spent on the file that loaded: reading it, decoding it, and
  /// of the decode the name-id pass (`decode_seconds` excludes it).
  double read_seconds = 0.0;
  double decode_seconds = 0.0;
  double name_ids_seconds = 0.0;
};

/// \brief `DecodeSnapshot` from a file. A missing file (with no backup)
/// yields `kNotFound` (so callers can fall back to Build-then-Save). When
/// `path` is missing or fails to load (crash window between SaveSnapshot's
/// renames, torn write, corruption, I/O error) and a sibling
/// `path + ".bak"` loads cleanly, the backup is returned with
/// `report->used_backup` set and the primary's error in `report->warning`
/// — stale-but-valid data is never returned unannounced. With no usable
/// backup every non-missing failure is a hard rejection.
/// `repo_fingerprint` is as for `DecodeSnapshot`.
Result<PreparedRepository> LoadSnapshot(
    const std::string& path, const schema::SchemaRepository& repo,
    const sim::NameSimilarityOptions& name_options, size_t num_threads = 1,
    SnapshotLoadReport* report = nullptr,
    std::optional<uint64_t> repo_fingerprint = std::nullopt);

}  // namespace smb::index
