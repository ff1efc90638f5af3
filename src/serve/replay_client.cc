#include "serve/replay_client.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <thread>
#include <utility>

#include "serve/protocol.h"

/// \file replay_client.cc
/// \brief Round-robin fan-out of a request file over N connections, with
/// bounded-backoff reconnect-and-resend on transport failures.

namespace smb::serve {

namespace {

/// One connection's share of the replay: the request indices it owns, the
/// responses it collected, and how it ended.
struct ConnectionTask {
  std::vector<size_t> indices;
  Status status = Status::OK();
  uint64_t retries = 0;
  uint64_t reconnects = 0;
};

/// Runs one connection synchronously: send a line, read its response,
/// repeat. Writes responses straight into the shared, pre-sized response
/// vector — each task owns disjoint indices, so no locking is needed.
void RunConnection(const ReplayClientOptions& options, size_t connection_id,
                   const std::vector<std::string>& request_lines,
                   ConnectionTask* task, ReplayOutcome* outcome) {
  ClientSession session(options, connection_id);
  for (size_t index : task->indices) {
    uint32_t attempts = 0;
    Result<std::string> response =
        session.RoundTrip(request_lines[index], &attempts);
    task->retries += attempts;
    outcome->retries_by_request[index] = attempts;
    if (!response.ok()) {
      task->status = response.status();
      break;
    }
    outcome->responses[index] = *std::move(response);
  }
  task->reconnects = session.reconnects();
}

}  // namespace

Result<std::string> ClientSession::RoundTrip(const std::string& line,
                                             uint32_t* retries) {
  uint32_t attempts = 0;
  for (;;) {
    Result<std::string> response = TryOnce(line);
    if (retries != nullptr) *retries = attempts;
    if (response.ok()) return response;
    // The connection is suspect after any transport failure: throw it
    // away so the retry starts from a fresh connect.
    socket_ = Socket();
    reader_.reset();
    if (attempts >= options_.max_retries) {
      return response.status().WithContext(
          "request '" + line + "' failed after " + std::to_string(attempts) +
          " retr" + (attempts == 1 ? "y" : "ies"));
    }
    Backoff(++attempts);
  }
}

Result<std::string> ClientSession::TryOnce(const std::string& line) {
  if (!socket_.valid()) {
    SMB_ASSIGN_OR_RETURN(socket_, ConnectTo(options_.host, options_.port));
    reader_ = std::make_unique<LineReader>(&socket_);
    if (connected_before_) ++reconnects_;
    connected_before_ = true;
  }
  SMB_RETURN_IF_ERROR(WriteAll(socket_, line + "\n"));
  std::string response;
  SMB_ASSIGN_OR_RETURN(const bool more, reader_->ReadLine(&response));
  if (!more) {
    return Status::IOError("server closed the connection before responding");
  }
  return response;
}

void ClientSession::Backoff(uint32_t attempt) {
  // Bounded exponential backoff with deterministic ±50% jitter.
  double delay_ms = options_.retry_base_ms;
  for (uint32_t i = 1; i < attempt; ++i) {
    delay_ms *= 2.0;
    if (delay_ms >= options_.retry_max_ms) break;
  }
  delay_ms = std::min(delay_ms, options_.retry_max_ms);
  std::uniform_real_distribution<double> jitter(0.5, 1.5);
  delay_ms *= jitter(jitter_rng_);
  if (delay_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms));
  }
}

Result<ReplayOutcome> ReplayRequests(
    const ReplayClientOptions& options,
    const std::vector<std::string>& request_lines) {
  const size_t connections =
      options.connections == 0 ? 1 : options.connections;
  std::vector<ConnectionTask> tasks(connections);
  for (size_t i = 0; i < request_lines.size(); ++i) {
    tasks[i % connections].indices.push_back(i);
  }
  ReplayOutcome outcome;
  outcome.responses.resize(request_lines.size());
  outcome.retries_by_request.assign(request_lines.size(), 0);
  std::vector<std::thread> threads;
  threads.reserve(tasks.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    ConnectionTask& task = tasks[t];
    threads.emplace_back([&options, &request_lines, &task, &outcome, t] {
      RunConnection(options, t, request_lines, &task, &outcome);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const ConnectionTask& task : tasks) {
    outcome.retries += task.retries;
    outcome.reconnects += task.reconnects;
    if (!task.status.ok()) return task.status;
  }
  for (const std::string& line : outcome.responses) {
    if (line.rfind("ok ", 0) == 0) {
      ++outcome.ok_count;
      Result<serve::MatchResponse> parsed = serve::ParseMatchResponse(line);
      if (parsed.ok() && parsed->shed) ++outcome.shed_count;
    } else if (line.rfind("err ", 0) == 0) {
      ++outcome.err_count;
    }
    // stats/bye lines are neither served answers nor failures.
  }
  return outcome;
}

}  // namespace smb::serve
