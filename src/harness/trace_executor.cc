#include "harness/trace_executor.h"

#include <sstream>
#include <utility>

#include "common/table.h"

/// \file trace_executor.cc
/// \brief In-process and live-socket request execution.

namespace smb::harness {

namespace {

/// Normalizes a serve response into the executor-agnostic outcome shape.
eval::TraceOutcome FromResponse(const serve::MatchResponse& response) {
  eval::TraceOutcome outcome;
  outcome.ok = true;
  outcome.answers = response.answers;
  outcome.cache_hit = response.cache_hit;
  outcome.certified = response.certified;
  outcome.has_target = response.has_target;
  outcome.target = response.target;
  outcome.shed = response.shed;
  outcome.service_latency_ms = response.latency_ms;
  outcome.has_budget = response.has_adaptive_detail;
  outcome.budget = response.budget;
  return outcome;
}

eval::TraceOutcome ErrorOutcome(std::string message) {
  eval::TraceOutcome outcome;
  outcome.ok = false;
  outcome.error = std::move(message);
  return outcome;
}

std::string AnswersPath(const TraceBindings& bindings, uint64_t index) {
  if (bindings.answers_dir.empty()) return "";
  return bindings.answers_dir + "/req-" + std::to_string(index) + ".csv";
}

}  // namespace

TraceBindings ResolveTraceBindings(const eval::WorkloadTrace& trace,
                                   const std::string& base_dir,
                                   const std::string& answers_dir) {
  TraceBindings bindings;
  bindings.query_paths.reserve(trace.query_files.size());
  for (const std::string& file : trace.query_files) {
    if (base_dir.empty() || (!file.empty() && file.front() == '/')) {
      bindings.query_paths.push_back(file);
    } else {
      bindings.query_paths.push_back(base_dir + "/" + file);
    }
  }
  bindings.classes = trace.classes;
  bindings.answers_dir = answers_dir;
  return bindings;
}

eval::TraceOutcome InProcessTraceExecutor::Execute(
    uint64_t index, const eval::TraceRequest& request) {
  if (request.query_index >= bindings_.query_paths.size() ||
      request.class_index >= bindings_.classes.size()) {
    return ErrorOutcome("trace request indices out of binding range");
  }
  serve::Request wire;
  wire.kind = serve::RequestKind::kMatch;
  wire.query_path = bindings_.query_paths[request.query_index];
  wire.out_path = AnswersPath(bindings_, index);
  wire.request_class = bindings_.classes[request.class_index];
  wire.deadline_ms = request.deadline_ms;
  wire.target_bound = request.target_bound;
  // Pressure 0: the offline replay measures the engine, never the shed
  // ramp — that is what makes it the byte-identity reference for a
  // lightly loaded live run.
  Result<serve::MatchResponse> response = service_->Execute(wire, 0.0);
  if (!response.ok()) return ErrorOutcome(response.status().ToString());
  return FromResponse(*response);
}

std::string FormatTraceRequestLine(const TraceBindings& bindings,
                                   uint64_t index,
                                   const eval::TraceRequest& request) {
  std::ostringstream line;
  line << "match " << bindings.query_paths[request.query_index];
  const std::string out = AnswersPath(bindings, index);
  if (!out.empty()) line << " " << out;
  const std::string& request_class = bindings.classes[request.class_index];
  if (request_class != "default") line << " class=" << request_class;
  if (request.deadline_ms > 0.0) {
    line << " deadline_ms=" << FormatDouble(request.deadline_ms, 3);
  }
  if (request.target_bound > 0.0) {
    line << " target=" << FormatDouble(request.target_bound, 4);
  }
  return line.str();
}

LiveTraceExecutor::LiveTraceExecutor(std::string host, uint16_t port,
                                     TraceBindings bindings)
    : bindings_(std::move(bindings)) {
  client_options_.host = std::move(host);
  client_options_.port = port;
}

eval::TraceOutcome LiveTraceExecutor::Execute(
    uint64_t index, const eval::TraceRequest& request) {
  if (request.query_index >= bindings_.query_paths.size() ||
      request.class_index >= bindings_.classes.size()) {
    return ErrorOutcome("trace request indices out of binding range");
  }
  std::unique_ptr<serve::ClientSession> session;
  {
    MutexLock lock(mutex_);
    if (!idle_.empty()) {
      session = std::move(idle_.back());
      idle_.pop_back();
    }
  }
  if (session == nullptr) {
    session = std::make_unique<serve::ClientSession>(client_options_);
  }
  Result<std::string> reply =
      session->RoundTrip(FormatTraceRequestLine(bindings_, index, request));
  {
    MutexLock lock(mutex_);
    idle_.push_back(std::move(session));
  }
  if (!reply.ok()) return ErrorOutcome(reply.status().ToString());
  // `err <path> <message>` (or anything unexpected) is a failed request
  // on a healthy connection.
  if (reply->rfind("ok ", 0) != 0) return ErrorOutcome(*reply);
  Result<serve::MatchResponse> response = serve::ParseMatchResponse(*reply);
  if (!response.ok()) {
    return ErrorOutcome("parse: " + response.status().ToString());
  }
  return FromResponse(*response);
}

}  // namespace smb::harness
