#include "match/topk_matcher.h"

#include <algorithm>
#include <queue>

/// \file topk_matcher.cc
/// \brief Batch top-k matcher over prepared repositories (sharded,
/// cutoff-aware).

namespace smb::match {

namespace {

struct Frontier {
  double cost;
  std::vector<schema::NodeId> targets;  // assignments for positions 0..n-1

  bool operator>(const Frontier& other) const {
    if (cost != other.cost) return cost > other.cost;
    // Deterministic order for ties.
    return targets > other.targets;
  }
};

}  // namespace

Status TopKMatcher::MatchSchemas(const ObjectiveFunction& objective,
                                 size_t first, size_t count,
                                 const MatchOptions& options, AnswerSet* out,
                                 MatchStats* stats) const {
  if (options_.k_per_schema == 0) {
    return Status::InvalidArgument("k_per_schema must be positive");
  }
  const size_t m = objective.query_preorder().size();
  const double budget =
      options.delta_threshold * objective.normalizer() + 1e-12;
  const CandidateProvider* candidates = objective.candidates();

  for (size_t si = first; si < first + count; ++si) {
    const auto schema_index = static_cast<int32_t>(si);
    const schema::Schema& s = objective.repo().schema(schema_index);

    std::priority_queue<Frontier, std::vector<Frontier>,
                        std::greater<Frontier>>
        frontier;
    frontier.push(Frontier{0.0, {}});
    size_t emitted = 0;

    while (!frontier.empty() && emitted < options_.k_per_schema) {
      Frontier state = frontier.top();
      frontier.pop();
      if (state.cost > budget) break;  // nothing cheaper remains
      size_t pos = state.targets.size();
      if (pos == m) {
        // Cheapest remaining completion: emit.
        Mapping mapping;
        mapping.schema_index = schema_index;
        mapping.targets = state.targets;
        mapping.delta = state.cost / objective.normalizer();
        out->Add(std::move(mapping));
        if (stats != nullptr) ++stats->mappings_emitted;
        ++emitted;
        continue;
      }
      const schema::RelationCode* parent_codes = nullptr;
      size_t parent_pos = objective.parent_position()[pos];
      if (parent_pos != ObjectiveFunction::kNoParent) {
        parent_codes =
            objective.EdgeCodes(schema_index, state.targets[parent_pos]);
      }
      auto is_used = [&](schema::NodeId target) {
        if (!options.injective) return false;
        for (schema::NodeId existing : state.targets) {
          if (existing == target) return true;
        }
        return false;
      };
      auto expand = [&](schema::NodeId target, double assign_cost) {
        if (stats != nullptr) ++stats->states_explored;
        double cost = state.cost + assign_cost;
        if (cost > budget) {
          if (stats != nullptr) ++stats->states_pruned;
          return;
        }
        Frontier child;
        child.cost = cost;
        child.targets = state.targets;
        child.targets.push_back(target);
        frontier.push(std::move(child));
      };
      // Sparse path: only the indexed candidates are expanded, with their
      // precomputed exact node costs.
      const std::vector<CandidateEntry>* list = nullptr;
      if (candidates != nullptr) {
        list = candidates->CandidatesFor(pos, schema_index);
      }
      if (list != nullptr) {
        for (const CandidateEntry& entry : *list) {
          if (is_used(entry.node)) continue;
          expand(entry.node, objective.AssignCostWithNodeCost(
                                 parent_codes, entry.node, entry.cost));
        }
      } else {
        for (size_t t = 0; t < s.size(); ++t) {
          auto target = static_cast<schema::NodeId>(t);
          if (is_used(target)) continue;
          expand(target, objective.AssignCost(pos, schema_index, target,
                                              parent_codes));
        }
      }
      // Safety valve: bound frontier memory by rebuilding without the
      // costliest entries. Rare in practice (budget prunes first).
      if (options_.max_frontier > 0 &&
          frontier.size() > options_.max_frontier) {
        std::vector<Frontier> keep;
        keep.reserve(options_.max_frontier / 2);
        while (!frontier.empty() && keep.size() < options_.max_frontier / 2) {
          keep.push_back(frontier.top());
          frontier.pop();
        }
        std::priority_queue<Frontier, std::vector<Frontier>,
                            std::greater<Frontier>>
            rebuilt(std::greater<Frontier>(), std::move(keep));
        frontier.swap(rebuilt);
      }
    }
  }
  return Status::OK();
}

}  // namespace smb::match
