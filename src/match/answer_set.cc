#include "match/answer_set.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>

#include "common/strings.h"

/// \file answer_set.cc
/// \brief Ranked answer-set accumulation, merging and CSV-facing accessors.

namespace smb::match {

namespace {

bool SameKey(const Mapping& a, const Mapping& b) {
  return a.schema_index == b.schema_index && a.targets == b.targets;
}

/// The `MappingKeyHash` mix of `m`'s key, then a splitmix64 finalizer so
/// the low bits index a table well. Reads the key in place.
uint64_t HashKey(const Mapping& m) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<uint32_t>(m.schema_index));
  for (schema::NodeId t : m.targets) mix(static_cast<uint32_t>(t));
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// The first answer of each key, in order. Equal keys are adjacent in a
/// ranking only when their Δs tie, so kept answers are found through an
/// open-addressing table of their indices; no key is copied.
std::vector<Mapping> KeepFirstOfEachKey(std::vector<Mapping>& ranked) {
  size_t capacity = 16;
  while (capacity < 2 * ranked.size()) capacity <<= 1;
  constexpr size_t kEmpty = static_cast<size_t>(-1);
  std::vector<size_t> slots(capacity, kEmpty);
  std::vector<Mapping> kept;
  kept.reserve(ranked.size());
  for (Mapping& m : ranked) {
    size_t s = static_cast<size_t>(HashKey(m)) & (capacity - 1);
    while (slots[s] != kEmpty && !SameKey(kept[slots[s]], m)) {
      s = (s + 1) & (capacity - 1);
    }
    if (slots[s] != kEmpty) continue;  // a better-ranked answer has the key
    slots[s] = kept.size();
    kept.push_back(std::move(m));
  }
  return kept;
}

}  // namespace

void AnswerSet::Add(Mapping mapping) {
  mappings_.push_back(std::move(mapping));
  finalized_ = false;
}

void AnswerSet::Append(AnswerSet&& other) {
  mappings_.insert(mappings_.end(),
                   std::make_move_iterator(other.mappings_.begin()),
                   std::make_move_iterator(other.mappings_.end()));
  other.mappings_.clear();
  other.finalized_ = false;
  finalized_ = false;
}

void AnswerSet::Finalize() {
  std::sort(mappings_.begin(), mappings_.end(), Mapping::RankLess);
  // Deduplicate by key, keeping the best-ranked instance.
  mappings_ = KeepFirstOfEachKey(mappings_);
  finalized_ = true;
}

size_t AnswerSet::CountAtThreshold(double delta) const {
  // Mappings are sorted by Δ; find the first with Δ > delta.
  auto it = std::upper_bound(
      mappings_.begin(), mappings_.end(), delta,
      [](double d, const Mapping& m) { return d < m.delta; });
  return static_cast<size_t>(it - mappings_.begin());
}

AnswerSet AnswerSet::FilterToThreshold(double delta) const {
  AnswerSet out;
  size_t n = CountAtThreshold(delta);
  for (size_t i = 0; i < n; ++i) out.Add(mappings_[i]);
  out.Finalize();
  return out;
}

AnswerSet AnswerSet::TopN(size_t n) const {
  AnswerSet out;
  for (size_t i = 0; i < std::min(n, mappings_.size()); ++i) {
    out.Add(mappings_[i]);
  }
  out.Finalize();
  return out;
}

double AnswerSet::MaxDelta() const {
  return mappings_.empty() ? 0.0 : mappings_.back().delta;
}

std::vector<size_t> AnswerSet::SizesAt(
    const std::vector<double>& thresholds) const {
  std::vector<size_t> out;
  out.reserve(thresholds.size());
  for (double t : thresholds) out.push_back(CountAtThreshold(t));
  return out;
}

bool AnswerSet::IsSubsetOf(const AnswerSet& subset, const AnswerSet& superset) {
  std::map<Mapping::Key, double> keys;
  for (const auto& m : superset.mappings()) keys.emplace(m.key(), m.delta);
  for (const auto& m : subset.mappings()) {
    if (keys.find(m.key()) == keys.end()) return false;
  }
  return true;
}

Status AnswerSet::VerifySameObjective(const AnswerSet& subset,
                                      const AnswerSet& superset) {
  std::map<Mapping::Key, double> keys;
  for (const auto& m : superset.mappings()) keys.emplace(m.key(), m.delta);
  for (const auto& m : subset.mappings()) {
    auto it = keys.find(m.key());
    if (it == keys.end()) {
      return Status::FailedPrecondition(
          "answer " + m.ToString() +
          " of the improved system is missing from the original system: "
          "A2 ⊆ A1 is violated");
    }
    if (std::fabs(it->second - m.delta) > 1e-12) {
      return Status::FailedPrecondition(StrFormat(
          "answer %s has Δ=%.12f in the improved system but Δ=%.12f in the "
          "original: objective functions differ",
          m.ToString().c_str(), m.delta, it->second));
    }
  }
  return Status::OK();
}

}  // namespace smb::match
