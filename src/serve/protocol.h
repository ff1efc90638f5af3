#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/result.h"
#include "common/status.h"

/// \file protocol.h
/// \brief The serve wire protocol: newline-delimited request and response
/// lines shared by the network server, the offline `--requests` replay
/// mode and the serve client.
///
/// Request grammar (one request per line; `#`-prefixed and blank lines are
/// ignored):
/// \code
///   match <query-file> [<answers-out.csv>] [class=<name>] [deadline_ms=<ms>]
///         [target=<bound>]
///   stats
///   reload <snapshot-file> [<repo-dir>]
///   quit
/// \endcode
///
/// `reload` is the admin verb: the server re-reads the repository
/// directory (its startup `--repo` when the operand is omitted), loads the
/// snapshot against it, and atomically swaps the serving index to a new
/// generation. In-flight requests finish on the old generation; a
/// snapshot that is missing, corrupt or fingerprint-mismatched is
/// rejected with `err` and the old index keeps serving.
///
/// Response grammar (one line per request, `key=value` fields after the
/// echoed query path; field order is fixed, parsers must tolerate unknown
/// fields):
/// \code
///   ok <query-file> answers=<n> cache=hit|miss complete=<pct>%
///      [target=<bound> shed=yes|no] latency_ms=<ms> [queue_ms=<ms>]
///      [index_ms=<ms> match_ms=<ms> budget=<n> rounds=<n>]
///   err <query-file> <message>
///   stats <key>=<value> ...
///   reloaded generation=<n> <key>=<value> ...
///   bye served=<n> failed=<n>
/// \endcode
///
/// The `complete=` field is the run's **certified completeness bound**
/// (`provably_complete_fraction`, as a percentage): the protocol-level
/// carrier of the paper's effectiveness certificate. Under load shedding
/// the server degrades `target=` (never below the configured floor) and
/// flags `shed=yes` — the certificate weakens, the protocol never errors.
namespace smb::serve {

/// \brief Kinds of request line.
enum class RequestKind { kMatch, kStats, kReload, kQuit };

/// \brief One parsed request line.
struct Request {
  RequestKind kind = RequestKind::kMatch;
  /// Server-side path of the query schema (text format).
  std::string query_path;
  /// Optional server-side path to write the ranked answers CSV to.
  std::string out_path;
  /// Request class for per-class shed accounting ("default" when absent).
  std::string request_class = "default";
  /// Per-request deadline in milliseconds; 0 = use the server default.
  double deadline_ms = 0.0;
  /// Per-request completeness-target ask in (0, 1]; 0 = the server's
  /// configured target. Only meaningful (and only accepted) when the
  /// server runs bound-driven; the ask is still subject to the shed ramp
  /// and the `--min-target-bound` floor.
  double target_bound = 0.0;
  /// `reload` only: server-side snapshot file to swap in.
  std::string snapshot_path;
  /// `reload` only: repository directory override (empty = the server's
  /// startup repository directory).
  std::string repo_dir;
};

/// \brief True for lines the protocol ignores (blank, `#` comments).
bool IsIgnorableLine(const std::string& line);

/// \brief Parses one request line (`match`/`stats`/`reload`/`quit`).
Result<Request> ParseRequestLine(const std::string& line);

/// \brief One `ok` response, structured.
struct MatchResponse {
  std::string query_path;
  uint64_t answers = 0;
  bool cache_hit = false;
  /// Certified completeness of the served answers in [0, 1] (the
  /// `complete=` field; stored as a fraction, printed as a percentage).
  double certified = 1.0;
  /// Bound-driven mode only (`has_target`): the effective completeness
  /// target this request ran at, and whether it was degraded (shed).
  bool has_target = false;
  double target = 1.0;
  bool shed = false;
  /// Wall time spent answering (excluding queue wait).
  double latency_ms = 0.0;
  /// Time the request waited in the server queue (network mode only,
  /// `has_queue_ms`).
  bool has_queue_ms = false;
  double queue_ms = 0.0;
  /// Engine detail, cache misses only (`has_engine_detail`).
  bool has_engine_detail = false;
  double index_ms = 0.0;
  double match_ms = 0.0;
  /// Adaptive engine detail, misses in bound-driven mode only.
  bool has_adaptive_detail = false;
  uint64_t budget = 0;
  uint64_t rounds = 0;
};

/// \brief Formats an `ok` response line (no trailing newline).
std::string FormatMatchResponse(const MatchResponse& response);

/// \brief Parses an `ok` response line (unknown `key=value` fields are
/// ignored; used by the replay client and tests).
Result<MatchResponse> ParseMatchResponse(const std::string& line);

/// \brief Formats an `err` response line for `query_path` (no newline).
std::string FormatErrorResponse(const std::string& query_path,
                                const Status& status);

struct ServingIndex;

/// \brief Formats the `reloaded` response for a freshly swapped-in
/// generation (no newline); offline and network mode share it.
std::string FormatReloadResponse(const ServingIndex& index);

/// \brief Splits the `key=value` fields of a response line (everything
/// after the leading `<verb> [<path>]` tokens) into a map — the generic
/// accessor for `stats` lines.
std::map<std::string, std::string> ParseResponseFields(
    const std::string& line);

}  // namespace smb::serve
