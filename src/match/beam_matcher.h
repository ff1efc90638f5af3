#pragma once

#include "match/matcher.h"

/// \file beam_matcher.h
/// \brief S2-two — beam-search matcher (iMap-style [5]).
///
/// Processes query elements in pre-order, keeping only the `beam_width` best
/// partial assignments per repository schema at each step. The objective is
/// untouched — every produced answer carries the exact same Δ the exhaustive
/// system computes — but completions of discarded partials are lost, which
/// makes the system non-exhaustive: `A^δ_beam ⊆ A^δ_exhaustive`.
///
/// A narrow beam keeps the best-ranked answers (low Δ) with high probability
/// while shedding most of the tail — the "rigorous" answer-size-ratio
/// profile the paper calls S2-two (Figure 10).

namespace smb::match {

/// \brief Beam-search configuration.
struct BeamMatcherOptions {
  /// Partial assignments retained per schema per query position.
  size_t beam_width = 16;
};

/// \brief Non-exhaustive improvement using beam search.
class BeamMatcher : public Matcher {
 public:
  explicit BeamMatcher(BeamMatcherOptions options = {}) : options_(options) {}

  std::string name() const override {
    return "beam-" + std::to_string(options_.beam_width);
  }

  /// Rejects a zero `beam_width`.
  Status MatchSchemas(const ObjectiveFunction& objective, size_t first,
                      size_t count, const MatchOptions& options,
                      AnswerSet* out, MatchStats* stats) const override;

 private:
  BeamMatcherOptions options_;
};

}  // namespace smb::match
