#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/result.h"
#include "engine/batch_match_engine.h"
#include "engine/query_cache.h"
#include "eval/experiment_batch.h"
#include "match/matcher.h"
#include "match/matcher_factory.h"
#include "serve/load_shed.h"
#include "serve/match_service.h"
#include "serve/serving_index.h"

/// \file service_spec.h
/// \brief The one declarative description of a served S2, and the one
/// function that builds a `MatchService` from it.
///
/// The paper's bounds describe the S2 we serve only if the S2 we measure
/// offline is configured identically. So every front end — `serve`,
/// in-process `loadtest --trace`, the batch runner, `match`, `workload` —
/// reads its service settings through `ParseServiceSpec` from one
/// flag↔key table, and the three that serve build with
/// `BuildMatchService`. The parser owns every cross-setting check, so a
/// combination fails the same way whichever source it came from.
namespace smb::serve {

/// \brief Everything that shapes a service's answers and capacity.
struct ServiceSpec {
  /// Δ threshold and scorer options (with the builtin synonym table).
  match::MatchOptions match_options;
  std::string matcher_kind = "exhaustive";
  match::MatcherFactoryOptions factory_options;
  /// Fixed-C (`candidate_limit`) or bound-driven (`adaptive`, with
  /// `candidate_limit` 0) — never both; plus threads and top-k (the shard
  /// size stays heuristic: only `match --shard-size` sets one).
  engine::BatchMatchOptions engine_options;
  size_t cache_capacity = 64;
  /// Shedding envelope: `base_target` is the adaptive target (1.0 in
  /// fixed-C mode) and `min_target` its floor.
  LoadShedPolicy shed;

  /// Serve defaults: Δ = 0.25, builtin synonyms, C = 16.
  ServiceSpec();

  /// True in bound-driven mode (`--target-bound` / `target_bound` given).
  bool bound_driven() const { return engine_options.adaptive.has_value(); }

  /// How to open a generation for this spec, with startup semantics:
  /// build when the snapshot is missing, then save it.
  ServingIndexOptions index_options() const;
};

/// \brief One service setting's two spellings: its `--flag` on a command
/// line and its `key=` in a batch experiment (null: command line only).
struct SettingName {
  const char* flag;
  const char* key;
};

/// \brief The flag↔key table every front end reads, in parse order.
const std::vector<SettingName>& ServiceSettingNames();

/// \brief Parses the service flags of `cl`. Absent flags keep their value
/// in `defaults` (`match` passes C = 0: a dense run unless asked).
Result<ServiceSpec> ParseServiceSpec(const CommandLine& cl,
                                     ServiceSpec defaults = ServiceSpec());

/// \brief Parses the service keys of a batch experiment (keys the table
/// does not know are ignored here; the batch runner rejects them).
Result<ServiceSpec> ParseServiceSpec(const eval::ExperimentSpec& experiment);

/// \brief A built service and the result cache it borrows; `cache` is
/// declared first, so it outlives `service`.
struct BuiltMatchService {
  std::unique_ptr<engine::QueryResultCache> cache;
  std::unique_ptr<MatchService> service;
};

/// \brief Builds the cache and the service for `spec` over generation
/// `index`. `default_repo_dir` is what a `reload` without a directory
/// operand re-reads (empty: reloads must name one).
BuiltMatchService BuildMatchService(const ServiceSpec& spec,
                                    std::shared_ptr<const ServingIndex> index,
                                    std::string default_repo_dir = "");

}  // namespace smb::serve
