#include "match/cluster_matcher.h"

#include <algorithm>

/// \file cluster_matcher.cc
/// \brief S2-one implementation: cluster-restricted candidate matching.

namespace smb::match {

Result<ClusterMatcher> ClusterMatcher::Create(
    const schema::SchemaRepository& repo, const ClusterMatcherOptions& options,
    Rng* rng) {
  if (options.top_m_clusters == 0) {
    return Status::InvalidArgument("top_m_clusters must be positive");
  }
  SMB_ASSIGN_OR_RETURN(cluster::ElementClustering clustering,
                       cluster::ElementClustering::Build(
                           repo, options.clustering, rng));
  return ClusterMatcher(
      std::make_shared<cluster::ElementClustering>(std::move(clustering)),
      options);
}

Status ClusterMatcher::MatchSchemas(const ObjectiveFunction& objective,
                                    size_t first, size_t count,
                                    const MatchOptions& options,
                                    AnswerSet* out, MatchStats* stats) const {
  if (clustering_ == nullptr) {
    return Status::FailedPrecondition("cluster matcher has no clustering");
  }
  const schema::Schema& query = objective.query();
  const size_t m = objective.query_preorder().size();
  const double budget =
      options.delta_threshold * objective.normalizer() + 1e-12;

  // Candidate elements per query position: members of the top-m clusters
  // for that element, grouped by schema of the range.
  // allowed[pos][schema - first] -> sorted candidate NodeIds.
  std::vector<std::vector<std::vector<schema::NodeId>>> allowed(
      m, std::vector<std::vector<schema::NodeId>>(count));
  for (size_t pos = 0; pos < m; ++pos) {
    const schema::SchemaNode& q = query.node(objective.query_preorder()[pos]);
    std::string_view parent_name;
    if (q.parent != schema::kInvalidNode) {
      parent_name = query.node(q.parent).name;
    }
    std::vector<int> clusters = clustering_->TopClustersFor(
        q.name, parent_name, options_.top_m_clusters);
    for (int c : clusters) {
      for (const schema::ElementRef& ref : clustering_->ClusterMembers(c)) {
        const auto si = static_cast<size_t>(ref.schema_index);
        if (si >= first && si < first + count) {
          allowed[pos][si - first].push_back(ref.node);
        }
      }
    }
    for (auto& per_schema : allowed[pos]) {
      std::sort(per_schema.begin(), per_schema.end());
    }
  }

  std::vector<schema::NodeId> targets(m, schema::kInvalidNode);
  for (size_t si = first; si < first + count; ++si) {
    const auto schema_index = static_cast<int32_t>(si);
    const schema::Schema& s = objective.repo().schema(schema_index);
    // Skip schemas where some query element has no candidate at all.
    bool feasible = true;
    for (size_t pos = 0; pos < m; ++pos) {
      if (allowed[pos][si - first].empty()) {
        feasible = false;
        break;
      }
    }
    if (!feasible) continue;

    std::vector<bool> used(s.size(), false);
    // Depth-first enumeration over the restricted candidate sets; identical
    // cost accounting to the exhaustive matcher.
    auto recurse = [&](auto&& self, size_t pos, double cost_so_far) -> void {
      if (pos == m) {
        Mapping mapping;
        mapping.schema_index = schema_index;
        mapping.targets = targets;
        mapping.delta = cost_so_far / objective.normalizer();
        out->Add(std::move(mapping));
        if (stats != nullptr) ++stats->mappings_emitted;
        return;
      }
      const schema::RelationCode* parent_codes = nullptr;
      size_t parent_pos = objective.parent_position()[pos];
      if (parent_pos != ObjectiveFunction::kNoParent) {
        parent_codes = objective.EdgeCodes(schema_index, targets[parent_pos]);
      }
      for (schema::NodeId target : allowed[pos][si - first]) {
        if (options.injective && used[static_cast<size_t>(target)]) continue;
        if (stats != nullptr) ++stats->states_explored;
        double cost = cost_so_far + objective.AssignCost(pos, schema_index,
                                                         target, parent_codes);
        if (cost > budget) {
          if (stats != nullptr) ++stats->states_pruned;
          continue;
        }
        targets[pos] = target;
        used[static_cast<size_t>(target)] = true;
        self(self, pos + 1, cost);
        used[static_cast<size_t>(target)] = false;
      }
    };
    recurse(recurse, 0, 0.0);
  }
  return Status::OK();
}

}  // namespace smb::match
