#pragma once

#include <cstddef>
#include <cstdint>

#include "common/lru_cache.h"
#include "match/answer_set.h"

/// \file query_cache.h
/// \brief Concurrency-safe striped LRU cache of finished answer sets for
/// the serving path.
///
/// A resident matching process (the `matchbounds serve` command) sees the
/// same queries repeatedly — monitoring probes, retried requests, popular
/// personal schemas. Matching is deterministic: identical (prepared query,
/// match options) inputs always produce identical answers, so a finished
/// `match::AnswerSet` can be replayed from memory instead of re-running the
/// engine.
///
/// The key is a pair of content fingerprints (match/fingerprint.h):
///  * the *prepared query* fingerprint — folded names, types and tree
///    shape, so two spellings that fold identically share one entry;
///  * the *match options* fingerprint — Δ threshold, injectivity, the full
///    objective, plus whatever result-shaping knobs the caller mixes in.
///    The serve frontend mixes in the repository generation, the global
///    top-k and the whole candidate policy (completeness target, initial
///    limit, growth factor, cap) with the request's *effective* target, so
///    answers certified at a degraded (load-shed) target are never
///    replayed for a request demanding more.
///
/// Entries carry the answers *and* the run's certified completeness
/// (`provably_complete_fraction`), so a cache hit can report the same
/// effectiveness bound the original run certified — a served answer is
/// never silently stripped of its certificate.
///
/// **Concurrency.** The cache is an `LruCache` (common/lru_cache.h): safe
/// for any number of concurrent `Lookup`/`Insert` callers (the serve
/// worker pool), with keys partitioned over stripes that each hold their
/// own mutex and LRU order. A hit is a `std::shared_ptr<const
/// CachedAnswers>` that stays valid even if the entry is evicted
/// concurrently.
namespace smb::engine {

/// \brief Cache key: (prepared query fingerprint, match-options
/// fingerprint).
struct QueryCacheKey {
  uint64_t query_fingerprint = 0;
  uint64_t options_fingerprint = 0;

  bool operator==(const QueryCacheKey& other) const {
    return query_fingerprint == other.query_fingerprint &&
           options_fingerprint == other.options_fingerprint;
  }
};

/// \brief Hit/miss/eviction counters (monotonic over the cache lifetime),
/// plus the resident `entries` (and `charge`, equal to it).
using QueryCacheStats = LruCacheStats;

/// \brief What the cache stores per key: the finalized answers plus the
/// effectiveness certificate of the run that produced them.
struct CachedAnswers {
  match::AnswerSet answers;
  /// The producing run's certified completeness
  /// (`engine::BatchMatchStats::provably_complete_fraction`; 1.0 for exact
  /// runs — the shared empty/fallback convention).
  double provably_complete_fraction = 1.0;
};

/// \brief Hash of a `QueryCacheKey`. The fingerprints are already uniform
/// 64-bit hashes; one odd-constant mix keeps the pair from cancelling.
struct QueryCacheKeyHash {
  size_t operator()(const QueryCacheKey& key) const {
    return static_cast<size_t>(key.query_fingerprint * 0x9e3779b97f4a7c15ull ^
                               key.options_fingerprint);
  }
};

/// \brief Fixed-capacity striped LRU map from `QueryCacheKey` to finalized
/// answer sets with their certified bound, each entry charged 1. Thread-safe.
///
/// `QueryResultCache(capacity, stripes = 8)`: `capacity` = 0 disables
/// caching (every Lookup misses, Insert drops); `stripes` = 1 gives one
/// exact global LRU behind one mutex. `Insert` under a resident key
/// replaces the entry and refreshes its recency.
using QueryResultCache =
    LruCache<QueryCacheKey, CachedAnswers, QueryCacheKeyHash>;

}  // namespace smb::engine
