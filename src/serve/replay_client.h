#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "serve/socket_io.h"

/// \file replay_client.h
/// \brief The wire client of the serve frontend: a retrying
/// per-connection `ClientSession`, and `ReplayRequests`, which sends a
/// canned request file over N concurrent sessions and collects the
/// responses in request order.
///
/// It is the only client under `src/` and `tools/`: `matchbounds client`
/// replays through `ReplayRequests`, the load harness's live trace
/// executor leases one `ClientSession` per replay thread. (The serving
/// benchmark under `perfbench/` keeps its own C++ client.) Requests are
/// distributed round-robin across connections; each connection sends strictly
/// request-by-request (write line, read response line), which matches the
/// server's per-connection ordering guarantee.
///
/// **Retries.** With `max_retries > 0` a transport failure (connect
/// refused, reset mid-request, connection closed before the response)
/// does not abort the replay: the client reconnects after a bounded
/// exponential backoff with deterministic jitter and re-sends the
/// unanswered request. Re-sending is safe because responses are
/// idempotent — the server's result cache is keyed by the query and
/// options fingerprints, so a request that was executed but whose
/// response line was lost replays from cache with identical bytes.
namespace smb::serve {

/// \brief Where and how to replay.
struct ReplayClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Concurrent connections (>= 1); requests are split round-robin.
  size_t connections = 1;
  /// Transport-failure retries per request (0 = fail fast, the old
  /// behaviour).
  size_t max_retries = 0;
  /// First backoff delay; doubles per consecutive failure of the same
  /// request, capped at `retry_max_ms`.
  double retry_base_ms = 10.0;
  double retry_max_ms = 1000.0;
  /// Seed of the deterministic backoff jitter (±50% of the delay).
  uint64_t retry_jitter_seed = 1;
};

/// \brief One connection's serial request/response session. `RoundTrip`
/// connects lazily; after a transport failure it drops the connection,
/// backs off, reconnects and re-sends, up to `max_retries` times per
/// request. Not thread-safe: one thread drives a session at a time.
class ClientSession {
 public:
  /// `session_id` offsets the jitter seed, so concurrent sessions back
  /// off differently but deterministically.
  explicit ClientSession(ReplayClientOptions options, size_t session_id = 0)
      : options_(std::move(options)),
        jitter_rng_(options_.retry_jitter_seed + session_id) {}

  /// Sends `line` (no trailing newline) and returns its response line.
  /// `retries`, when given, receives the retries this request consumed.
  Result<std::string> RoundTrip(const std::string& line,
                                uint32_t* retries = nullptr);

  /// Reconnects after a connection died mid-session.
  uint64_t reconnects() const { return reconnects_; }

 private:
  Result<std::string> TryOnce(const std::string& line);
  void Backoff(uint32_t attempt);

  ReplayClientOptions options_;
  Socket socket_;
  std::unique_ptr<LineReader> reader_;
  bool connected_before_ = false;
  uint64_t reconnects_ = 0;
  std::mt19937_64 jitter_rng_;
};

/// \brief Everything a replay produced.
struct ReplayOutcome {
  /// One response line per request, in the original request order.
  std::vector<std::string> responses;
  /// Responses that started with `ok`.
  uint64_t ok_count = 0;
  /// Responses that did not (the server's `err` lines).
  uint64_t err_count = 0;
  /// `ok` responses flagged `shed=yes`.
  uint64_t shed_count = 0;
  /// Transport-failure retries performed across all requests.
  uint64_t retries = 0;
  /// Reconnects performed after a connection died mid-session.
  uint64_t reconnects = 0;
  /// Per-request retry counts, aligned with `responses` (all zero when
  /// nothing was retried).
  std::vector<uint32_t> retries_by_request;
};

/// \brief Replays `request_lines` (already filtered: no blanks/comments)
/// against a running server. Returns an error Status on connection or
/// transport failure that survives the retry budget; protocol-level `err`
/// responses are counted, not errors.
Result<ReplayOutcome> ReplayRequests(
    const ReplayClientOptions& options,
    const std::vector<std::string>& request_lines);

}  // namespace smb::serve
