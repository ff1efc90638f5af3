#pragma once

#include "match/matcher.h"

/// \file topk_matcher.h
/// \brief S2-three — best-first top-k matcher.
///
/// A third style of non-exhaustive improvement, in the spirit of top-k
/// query evaluation with early termination (Theobald et al. [17], which the
/// paper cites as a non-exhaustive improvement that keeps the objective
/// function intact): per repository schema, partial assignments are
/// expanded best-first by their (admissible) cost lower bound, and the
/// search stops after the `k` cheapest complete mappings.
///
/// Because the prefix cost lower-bounds every completion, the k mappings
/// emitted are *exactly* the k best of that schema — so up to the per-schema
/// cut-off the system agrees with the exhaustive ranking, and all answers
/// carry identical Δ: `A^δ_topk ⊆ A^δ_exhaustive` holds as required.

namespace smb::match {

/// \brief Top-k matcher configuration.
struct TopKMatcherOptions {
  /// Complete mappings emitted per repository schema.
  size_t k_per_schema = 10;
  /// Safety valve on queue growth per schema (0 = unlimited). When hit, the
  /// search degrades gracefully by dropping the worst frontier entries.
  size_t max_frontier = 100000;
};

/// \brief Non-exhaustive improvement using best-first top-k search.
class TopKMatcher : public Matcher {
 public:
  explicit TopKMatcher(TopKMatcherOptions options = {}) : options_(options) {}

  std::string name() const override {
    return "topk-" + std::to_string(options_.k_per_schema);
  }

  /// Rejects a zero `k_per_schema`.
  Status MatchSchemas(const ObjectiveFunction& objective, size_t first,
                      size_t count, const MatchOptions& options,
                      AnswerSet* out, MatchStats* stats) const override;

 private:
  TopKMatcherOptions options_;
};

}  // namespace smb::match
