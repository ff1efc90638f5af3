#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "eval/load_harness.h"
#include "eval/trace.h"
#include "serve/match_service.h"
#include "serve/replay_client.h"

/// \file trace_executor.h
/// \brief The two real `eval::TraceExecutor` implementations.
///
/// The eval-layer replay driver is serve-agnostic (the layering DAG
/// forbids eval -> serve); this subsystem sits above both and binds the
/// harness to an actual answering path:
///
///  * `InProcessTraceExecutor` — executes requests directly through a
///    `serve::MatchService` at pressure 0 (no queue, no shedding): the
///    offline ground truth a live replay is compared against.
///  * `LiveTraceExecutor` — speaks the serve line protocol over TCP to a
///    running `matchbounds serve` endpoint through the serve client
///    (`serve::ClientSession`), one pooled session per replay thread.
///
/// Both resolve trace query indices through the same `TraceBindings`, so
/// request `i` names the same query file and the same answers-out path in
/// either mode — which is what makes offline-vs-live answer byte-identity
/// a meaningful test.

namespace smb::harness {

/// \brief Maps trace indices to concrete paths/classes for one replay.
struct TraceBindings {
  /// Per-query-file absolute (or runner-relative) paths, index-aligned
  /// with `WorkloadTrace::query_files`.
  std::vector<std::string> query_paths;
  /// Class table, index-aligned with `WorkloadTrace::classes`.
  std::vector<std::string> classes;
  /// When non-empty, request `i` writes its ranked answers to
  /// `<answers_dir>/req-<i>.csv` (server-side path in live mode).
  std::string answers_dir;
};

/// \brief Builds bindings for `trace`: query files resolved against
/// `base_dir` (empty = as stored; absolute paths pass through).
TraceBindings ResolveTraceBindings(const eval::WorkloadTrace& trace,
                                   const std::string& base_dir,
                                   const std::string& answers_dir);

/// \brief Answers requests by calling `serve::MatchService::Execute`
/// directly (pressure 0). Thread-safe; the service already is.
class InProcessTraceExecutor : public eval::TraceExecutor {
 public:
  /// `service` must outlive the executor.
  InProcessTraceExecutor(serve::MatchService* service,
                         TraceBindings bindings)
      : service_(service), bindings_(std::move(bindings)) {}

  eval::TraceOutcome Execute(uint64_t index,
                             const eval::TraceRequest& request) override;

 private:
  serve::MatchService* service_;
  TraceBindings bindings_;
};

/// \brief Answers requests over the serve TCP line protocol.
///
/// Sessions are pooled: each `Execute` leases one (a new one when the
/// pool is dry), performs a blocking round trip and returns it. A session
/// whose connection failed mid-round-trip has already dropped it and
/// dials fresh on its next use, so one broken socket costs one request,
/// not the replay. Transport failures are not retried.
class LiveTraceExecutor : public eval::TraceExecutor {
 public:
  /// Dials nothing yet (sessions connect lazily per replay thread).
  LiveTraceExecutor(std::string host, uint16_t port, TraceBindings bindings);

  eval::TraceOutcome Execute(uint64_t index,
                             const eval::TraceRequest& request) override;

 private:
  serve::ReplayClientOptions client_options_;
  TraceBindings bindings_;
  Mutex mutex_;
  std::vector<std::unique_ptr<serve::ClientSession>> idle_
      SMB_GUARDED_BY(mutex_);
};

/// \brief Formats the protocol line for one trace request (shared by the
/// live executor and tests): `match <query> [<out>] [class=...]
/// [deadline_ms=...] [target=...]`.
std::string FormatTraceRequestLine(const TraceBindings& bindings,
                                   uint64_t index,
                                   const eval::TraceRequest& request);

}  // namespace smb::harness
