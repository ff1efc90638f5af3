#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "match/matcher.h"
#include "schema/repository.h"

/// \file matcher_factory.h
/// \brief Name → matcher construction, shared by the CLI commands and the
/// benches so "--matcher=..." means the same thing everywhere.

namespace smb::match {

/// \brief Per-matcher knobs the factory forwards (the CLI flags).
struct MatcherFactoryOptions {
  /// beam: partial assignments retained per schema per query position.
  size_t beam_width = 6;
  /// cluster: clusters examined per query element.
  size_t top_m_clusters = 4;
  /// topk: complete mappings emitted per repository schema.
  size_t k_per_schema = 10;
  /// topk: frontier safety valve (0 = unlimited).
  size_t max_frontier = 100000;
  /// cluster: seed of the clustering build.
  uint64_t cluster_seed = 2006;
};

/// The matcher names the factory accepts, in display order.
const std::vector<std::string>& KnownMatchers();

/// \brief Constructs the matcher named `name` ("exhaustive", "beam",
/// "cluster", "topk").
///
/// `repo` is only consulted by matchers holding repository-derived state
/// (cluster builds its element clustering over it); the returned matcher
/// must then be used with that same repository. Unknown names fail with a
/// message listing the known matchers.
Result<std::unique_ptr<Matcher>> MakeMatcher(
    std::string_view name, const schema::SchemaRepository& repo,
    const MatcherFactoryOptions& options = {});

}  // namespace smb::match
