#include "serve/server.h"

#include <sstream>
#include <utility>

#include "common/table.h"
#include "serve/load_shed.h"
#include "sim/simd_dispatch.h"

/// \file server.cc
/// \brief Accept / connection / worker thread bodies and graceful drain.

namespace smb::serve {

MatchServer::MatchServer(MatchService* service, MatchServerConfig config)
    : service_(service),
      config_(std::move(config)),
      queue_(config_.queue_depth == 0 ? 1 : config_.queue_depth) {
  if (config_.workers == 0) config_.workers = 1;
}

MatchServer::~MatchServer() {
  RequestDrain();
  Wait();
}

Status MatchServer::Start() {
  SMB_ASSIGN_OR_RETURN(ListenSocket listener,
                       ListenSocket::Open(config_.host, config_.port));
  port_ = listener.port();
  listener_ = std::make_unique<ListenSocket>(std::move(listener));
  worker_threads_.reserve(config_.workers);
  for (size_t i = 0; i < config_.workers; ++i) {
    worker_threads_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void MatchServer::RequestDrain() {
  if (draining_.exchange(true)) return;
  if (listener_) listener_->Shutdown();
  // End-of-stream for every blocked connection reader; their write sides
  // stay open so responses for already-admitted requests still go out.
  MutexLock lock(connections_mutex_);
  for (auto& connection : connections_) connection->socket.ShutdownRead();
}

void MatchServer::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept thread spawns no more connections once joined; join the
  // readers, each of which exits only after its in-flight responses were
  // written.
  for (;;) {
    std::unique_ptr<Connection> connection;
    {
      MutexLock lock(connections_mutex_);
      if (connections_.empty()) break;
      connection = std::move(connections_.back());
      connections_.pop_back();
    }
    if (connection->thread.joinable()) connection->thread.join();
  }
  // No producers remain: close the queue so workers drain the remainder
  // and see the end marker.
  queue_.Close();
  for (std::thread& worker : worker_threads_) {
    if (worker.joinable()) worker.join();
  }
  worker_threads_.clear();
}

void MatchServer::AcceptLoop() {
  for (;;) {
    Result<Socket> accepted = listener_->Accept();
    if (!accepted.ok()) {
      // Transient accept failures (fd exhaustion, aborted handshakes,
      // injected faults) must not kill the server; only the listener
      // being gone (drain) ends the loop.
      if (accepted.status().code() == StatusCode::kIOError &&
          !draining_.load()) {
        continue;
      }
      return;  // Listener shut down: drain started.
    }
    auto connection = std::make_unique<Connection>();
    connection->socket = *std::move(accepted);
    Connection* raw = connection.get();
    {
      // Registration and the drain sweep serialize on this mutex: either
      // the connection lands in the list (and drain will ShutdownRead it)
      // or drain already started and the socket closes unused here.
      MutexLock lock(connections_mutex_);
      if (draining_.load()) return;
      connections_.push_back(std::move(connection));
      raw->thread = std::thread([this, raw] { ConnectionLoop(raw); });
    }
  }
}

void MatchServer::ConnectionLoop(Connection* connection) {
  LineReader reader(&connection->socket, config_.max_line_bytes);
  uint64_t served = 0;
  uint64_t failed = 0;
  std::string line;
  for (;;) {
    Result<bool> more = reader.ReadLine(&line);
    if (!more.ok()) {
      // An oversized line is a protocol error, not a connection error:
      // answer `err` and keep reading (the reader already discarded
      // through the newline).
      if (more.status().code() == StatusCode::kResourceExhausted) {
        stats_.OnRejected();
        ++failed;
        if (!WriteAll(connection->socket,
                      FormatErrorResponse("-", more.status()) + "\n")
                 .ok()) {
          break;
        }
        continue;
      }
      break;
    }
    if (!*more) break;
    if (IsIgnorableLine(line)) continue;
    Result<Request> request = ParseRequestLine(line);
    if (!request.ok()) {
      stats_.OnRejected();
      ++failed;
      if (!WriteAll(connection->socket,
                    FormatErrorResponse("-", request.status()) + "\n")
               .ok()) {
        break;
      }
      continue;
    }
    if (request->kind == RequestKind::kQuit) {
      std::ostringstream bye;
      bye << "bye served=" << served << " failed=" << failed << "\n";
      // Best-effort farewell: the connection is closing either way, and a
      // peer that already hung up must not fail the drain.
      (void)WriteAll(connection->socket, bye.str());
      break;
    }
    if (request->kind == RequestKind::kStats) {
      if (!WriteAll(connection->socket, FormatStatsLine() + "\n").ok()) {
        break;
      }
      continue;
    }
    if (request->kind == RequestKind::kReload) {
      // Admin path: runs on the connection thread (reloads serialize in
      // the service), workers keep serving the old generation until the
      // swap. Failure is an `err` line — the old index stays live.
      Result<std::shared_ptr<const ServingIndex>> swapped =
          service_->Reload(request->snapshot_path, request->repo_dir);
      std::string reply;
      if (swapped.ok()) {
        reply = FormatReloadResponse(**swapped);
      } else {
        ++failed;
        stats_.OnRejected();
        reply = FormatErrorResponse(request->snapshot_path,
                                    swapped.status());
      }
      if (!WriteAll(connection->socket, reply + "\n").ok()) break;
      continue;
    }
    // match: admit into the bounded queue and wait for the worker.
    auto pending = std::make_unique<PendingRequest>();
    pending->request = *std::move(request);
    pending->admission_pressure = queue_.pressure();
    pending->admitted_at = SteadyClock::now();
    pending->deadline_ms = pending->request.deadline_ms > 0.0
                               ? pending->request.deadline_ms
                               : config_.default_deadline_ms;
    std::future<Result<MatchResponse>> future =
        pending->promise.get_future();
    const std::string query_path = pending->request.query_path;
    stats_.OnAdmitted();
    if (!queue_.Push(std::move(pending))) {
      // Refused at the door during drain — an err response, not a drop.
      stats_.OnFailed();
      ++failed;
      // Best-effort refusal notice: the connection thread exits next
      // either way; a send failure must not mask the drain path.
      (void)WriteAll(connection->socket,
                     FormatErrorResponse(
                         query_path,
                         Status::FailedPrecondition("server draining")) +
                         "\n");
      break;
    }
    Result<MatchResponse> response = future.get();
    std::string reply =
        response.ok() ? FormatMatchResponse(*response)
                      : FormatErrorResponse(query_path, response.status());
    if (response.ok()) {
      ++served;
    } else {
      ++failed;
    }
    if (!WriteAll(connection->socket, reply + "\n").ok()) break;
  }
  // Close now (not at Wait-time teardown) so the peer sees end-of-stream
  // as soon as its session ends. Serialized against the drain sweep's
  // ShutdownRead by the connections mutex.
  MutexLock lock(connections_mutex_);
  connection->socket.Close();
}

void MatchServer::WorkerLoop() {
  for (;;) {
    std::optional<std::unique_ptr<PendingRequest>> pending = queue_.Pop();
    if (!pending.has_value()) return;  // Queue closed and drained.
    PendingRequest& req = **pending;
    const double queue_ms = SecondsSince(req.admitted_at) * 1e3;
    // Pressure = the worse of the queue fill at admission and the share of
    // the deadline already consumed while queued.
    const double deadline_consumed =
        req.deadline_ms > 0.0 ? queue_ms / req.deadline_ms : 0.0;
    const double pressure =
        CombinedPressure(req.admission_pressure, deadline_consumed);
    Result<MatchResponse> response =
        service_->Execute(req.request, pressure);
    if (response.ok()) {
      response->has_queue_ms = true;
      response->queue_ms = queue_ms;
      stats_.OnServed(response->latency_ms, response->shed,
                      req.request.request_class);
    } else {
      stats_.OnFailed();
    }
    req.promise.set_value(std::move(response));
  }
}

std::string MatchServer::FormatStatsLine() const {
  const ServerStatsSnapshot snapshot = stats_.Snapshot();
  const engine::QueryCacheStats cache_stats = service_->cache()->stats();
  const std::shared_ptr<const ServingIndex> index = service_->index();
  std::ostringstream out;
  out << "stats generation=" << index->generation
      << " index_source=" << index->source
      << " served=" << snapshot.served << " failed=" << snapshot.failed
      << " shed=" << snapshot.shed << " in_flight=" << snapshot.in_flight
      << " queue_depth=" << queue_.size() << "/" << queue_.capacity()
      << " workers=" << config_.workers
      << " p50_ms=" << FormatDouble(snapshot.p50_latency_ms, 3)
      << " p95_ms=" << FormatDouble(snapshot.p95_latency_ms, 3)
      << " p99_ms=" << FormatDouble(snapshot.p99_latency_ms, 3)
      << " cache_hits=" << cache_stats.hits
      << " cache_misses=" << cache_stats.misses
      << " cache_evictions=" << cache_stats.evictions
      << " cache_entries=" << service_->cache()->size() << "/"
      << service_->cache()->capacity()
      << " simd=" << sim::SimdTierName(sim::ActiveSimdTier());
  for (const auto& [request_class, count] : snapshot.shed_by_class) {
    out << " shed_class_" << request_class << "=" << count;
  }
  return out.str();
}

}  // namespace smb::serve
