#pragma once

#include <vector>

#include "common/result.h"
#include "match/mapping.h"

/// \file answer_set.h
/// \brief Ranked answer sets A^δ_S (§2.1).
///
/// A matching system returns its answers ranked by Δ. The answer set at a
/// threshold δ is the prefix of answers with Δ ≤ δ; raising δ grows the set
/// monotonically (Figure 1 of the paper). The bounds technique consumes only
/// the *sizes* of these sets, but examples/tests also use set operations.

namespace smb::match {

/// \brief A Δ-ranked collection of mappings.
class AnswerSet {
 public:
  AnswerSet() = default;

  /// Adds an answer (unsorted until Finalize).
  void Add(Mapping mapping);

  /// Moves every answer of `other` in (unsorted until Finalize), leaving
  /// `other` empty.
  void Append(AnswerSet&& other);

  /// Sorts by (Δ, key), deduplicates identical keys, freezes the ranking.
  void Finalize();

  /// True once Finalize has run and no answers were added since.
  bool finalized() const { return finalized_; }

  /// Total number of answers.
  size_t size() const { return mappings_.size(); }
  bool empty() const { return mappings_.empty(); }

  /// Ranked answers (valid after Finalize).
  const std::vector<Mapping>& mappings() const { return mappings_; }

  /// \brief |A^δ|: number of answers with Δ ≤ delta. O(log n).
  size_t CountAtThreshold(double delta) const;

  /// \brief A^δ as a new answer set (prefix copy).
  AnswerSet FilterToThreshold(double delta) const;

  /// \brief Top-N prefix as a new answer set.
  AnswerSet TopN(size_t n) const;

  /// Largest Δ present, 0 when empty.
  double MaxDelta() const;

  /// \brief Sizes |A^δ| for each threshold in `thresholds` (each O(log n)).
  std::vector<size_t> SizesAt(const std::vector<double>& thresholds) const;

  /// \brief True iff every answer of `subset` occurs in `superset`
  /// (by key). Both sets must be finalized.
  static bool IsSubsetOf(const AnswerSet& subset, const AnswerSet& superset);

  /// \brief Checks the "same objective function" contract: every key of
  /// `subset` appears in `superset` *with the same Δ* (tolerance 1e-12).
  /// Returns a descriptive error on the first violation.
  static Status VerifySameObjective(const AnswerSet& subset,
                                    const AnswerSet& superset);

 private:
  std::vector<Mapping> mappings_;
  bool finalized_ = false;
};

}  // namespace smb::match
