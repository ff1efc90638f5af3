#include "match/beam_matcher.h"

#include <algorithm>
#include <vector>

/// \file beam_matcher.cc
/// \brief S2-two implementation: beam search over partial mappings.

namespace smb::match {

namespace {

struct BeamState {
  std::vector<schema::NodeId> targets;
  std::vector<bool> used;
  double cost = 0.0;
};

}  // namespace

Status BeamMatcher::MatchSchemas(const ObjectiveFunction& objective,
                                 size_t first, size_t count,
                                 const MatchOptions& options, AnswerSet* out,
                                 MatchStats* stats) const {
  if (options_.beam_width == 0) {
    return Status::InvalidArgument("beam_width must be positive");
  }
  const size_t m = objective.query_preorder().size();
  const double budget =
      options.delta_threshold * objective.normalizer() + 1e-12;
  const CandidateProvider* candidates = objective.candidates();

  for (size_t si = first; si < first + count; ++si) {
    const auto schema_index = static_cast<int32_t>(si);
    const schema::Schema& s = objective.repo().schema(schema_index);

    std::vector<BeamState> beam;
    beam.push_back(BeamState{std::vector<schema::NodeId>(),
                             std::vector<bool>(s.size(), false), 0.0});
    for (size_t pos = 0; pos < m && !beam.empty(); ++pos) {
      size_t parent_pos = objective.parent_position()[pos];
      // Sparse path: only the indexed candidates are expanded, with their
      // precomputed exact node costs.
      const std::vector<CandidateEntry>* list = nullptr;
      if (candidates != nullptr) {
        list = candidates->CandidatesFor(pos, schema_index);
      }
      std::vector<BeamState> next;
      for (const BeamState& state : beam) {
        const schema::RelationCode* parent_codes = nullptr;
        if (parent_pos != ObjectiveFunction::kNoParent) {
          parent_codes =
              objective.EdgeCodes(schema_index, state.targets[parent_pos]);
        }
        auto expand = [&](schema::NodeId target, double assign_cost) {
          if (stats != nullptr) ++stats->states_explored;
          double cost = state.cost + assign_cost;
          if (cost > budget) {
            if (stats != nullptr) ++stats->states_pruned;
            return;
          }
          BeamState child;
          child.targets = state.targets;
          child.targets.push_back(target);
          child.used = state.used;
          child.used[static_cast<size_t>(target)] = true;
          child.cost = cost;
          next.push_back(std::move(child));
        };
        if (list != nullptr) {
          for (const CandidateEntry& entry : *list) {
            if (options.injective &&
                state.used[static_cast<size_t>(entry.node)]) {
              continue;
            }
            expand(entry.node, objective.AssignCostWithNodeCost(
                                   parent_codes, entry.node, entry.cost));
          }
        } else {
          for (size_t t = 0; t < s.size(); ++t) {
            auto target = static_cast<schema::NodeId>(t);
            if (options.injective && state.used[t]) continue;
            expand(target, objective.AssignCost(pos, schema_index, target,
                                                parent_codes));
          }
        }
      }
      // Keep the beam_width cheapest partials; deterministic tie-break on
      // the assignment vector.
      if (next.size() > options_.beam_width) {
        std::nth_element(next.begin(),
                         next.begin() + static_cast<ptrdiff_t>(
                                            options_.beam_width - 1),
                         next.end(),
                         [](const BeamState& a, const BeamState& b) {
                           if (a.cost != b.cost) return a.cost < b.cost;
                           return a.targets < b.targets;
                         });
        next.resize(options_.beam_width);
      }
      beam = std::move(next);
    }
    for (const BeamState& state : beam) {
      Mapping mapping;
      mapping.schema_index = schema_index;
      mapping.targets = state.targets;
      mapping.delta = state.cost / objective.normalizer();
      out->Add(std::move(mapping));
      if (stats != nullptr) ++stats->mappings_emitted;
    }
  }
  return Status::OK();
}

}  // namespace smb::match
