#include "match/matcher_factory.h"

#include "common/rng.h"
#include "match/beam_matcher.h"
#include "match/cluster_matcher.h"
#include "match/exhaustive_matcher.h"
#include "match/topk_matcher.h"

/// \file matcher_factory.cc
/// \brief Name-to-matcher construction with per-matcher option plumbing.

namespace smb::match {

const std::vector<std::string>& KnownMatchers() {
  static const std::vector<std::string> kNames = {"exhaustive", "beam",
                                                  "cluster", "topk"};
  return kNames;
}

Result<std::unique_ptr<Matcher>> MakeMatcher(
    std::string_view name, const schema::SchemaRepository& repo,
    const MatcherFactoryOptions& options) {
  if (name == "exhaustive") {
    return std::unique_ptr<Matcher>(std::make_unique<ExhaustiveMatcher>());
  }
  if (name == "beam") {
    if (options.beam_width == 0) {
      return Status::InvalidArgument("beam_width must be positive");
    }
    return std::unique_ptr<Matcher>(std::make_unique<BeamMatcher>(
        BeamMatcherOptions{options.beam_width}));
  }
  if (name == "cluster") {
    Rng rng(options.cluster_seed);
    ClusterMatcherOptions copts;
    copts.top_m_clusters = options.top_m_clusters;
    SMB_ASSIGN_OR_RETURN(ClusterMatcher built,
                         ClusterMatcher::Create(repo, copts, &rng));
    return std::unique_ptr<Matcher>(
        std::make_unique<ClusterMatcher>(std::move(built)));
  }
  if (name == "topk") {
    if (options.k_per_schema == 0) {
      return Status::InvalidArgument("k_per_schema must be positive");
    }
    return std::unique_ptr<Matcher>(std::make_unique<TopKMatcher>(
        TopKMatcherOptions{options.k_per_schema, options.max_frontier}));
  }
  std::string known;
  for (const std::string& matcher : KnownMatchers()) {
    if (!known.empty()) known += ", ";
    known += matcher;
  }
  return Status::InvalidArgument("unknown matcher '" + std::string(name) +
                                 "' (known matchers: " + known + ")");
}

}  // namespace smb::match
