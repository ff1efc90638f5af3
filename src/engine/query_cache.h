#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
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
///    objective, plus whatever result-shaping knobs the caller mixes in
///    (candidate limit, adaptive target bound, top-k). The serve frontend
///    folds the request's *effective* completeness target in, so answers
///    certified at a degraded (load-shed) target are never replayed for a
///    request demanding more.
///
/// Entries carry the answers *and* the run's certified completeness
/// (`provably_complete_fraction`), so a cache hit can report the same
/// effectiveness bound the original run certified — a served answer is
/// never silently stripped of its certificate.
///
/// **Concurrency.** The cache is safe for any number of concurrent
/// `Lookup`/`Insert` callers (the multi-client serve worker pool). Keys are
/// partitioned over independent *stripes*, each a small LRU map behind its
/// own mutex, so unrelated requests rarely contend on one lock. Entries are
/// handed out as `std::shared_ptr<const CachedAnswers>`: a hit stays valid
/// for as long as the caller holds the pointer, even if another thread
/// evicts the entry concurrently. Recency and eviction are tracked *per
/// stripe* — the cache evicts the least-recently-used entry of the full
/// stripe, which approximates (and with `stripes = 1` exactly equals)
/// global LRU. Hit/miss/eviction counters are kept per stripe and
/// aggregated by `stats()`.
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

/// \brief Hit/miss/eviction counters (monotonic over the cache lifetime).
struct QueryCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

  QueryCacheStats& operator+=(const QueryCacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    return *this;
  }
};

/// \brief What the cache stores per key: the finalized answers plus the
/// effectiveness certificate of the run that produced them.
struct CachedAnswers {
  match::AnswerSet answers;
  /// The producing run's certified completeness
  /// (`engine::BatchMatchStats::provably_complete_fraction`; 1.0 for exact
  /// runs — the shared empty/fallback convention).
  double provably_complete_fraction = 1.0;
};

/// \brief Fixed-capacity striped LRU map from `QueryCacheKey` to finalized
/// answer sets with their certified bound. Thread-safe.
class QueryResultCache {
 public:
  /// Default stripe count (rounded down to a power of two and clamped to
  /// `capacity`, so tiny caches do not split one entry across many locks).
  static constexpr size_t kDefaultStripes = 8;

  /// `capacity` = 0 disables caching (every Lookup misses, Insert drops).
  /// `stripes` = concurrency granularity: 1 gives one exact global LRU
  /// behind one mutex; larger values shard the key space for parallel
  /// serving. The total capacity is split evenly across stripes.
  explicit QueryResultCache(size_t capacity,
                            size_t stripes = kDefaultStripes);

  QueryResultCache(const QueryResultCache&) = delete;
  QueryResultCache& operator=(const QueryResultCache&) = delete;

  /// \brief The cached entry for `key`, or nullptr on a miss. A hit
  /// refreshes the entry's recency within its stripe; the returned pointer
  /// keeps the entry alive even if it is concurrently evicted.
  std::shared_ptr<const CachedAnswers> Lookup(const QueryCacheKey& key);

  /// \brief Stores `entry` under `key` (replacing any previous entry) and
  /// evicts the stripe's least-recently-used entries down to its capacity.
  void Insert(const QueryCacheKey& key, CachedAnswers entry);

  /// \brief As above, for callers that already hold the entry shared.
  void Insert(const QueryCacheKey& key,
              std::shared_ptr<const CachedAnswers> entry);

  /// Entries currently resident, summed over stripes (a momentary snapshot
  /// under concurrent mutation).
  size_t size() const;
  size_t capacity() const { return capacity_; }
  size_t stripe_count() const { return stripes_.size(); }
  /// Aggregated hit/miss/eviction counters (a momentary snapshot).
  QueryCacheStats stats() const;

 private:
  struct Hash {
    size_t operator()(const QueryCacheKey& key) const {
      // The fingerprints are already uniform 64-bit hashes; one odd-
      // constant mix keeps the pair from cancelling.
      return static_cast<size_t>(key.query_fingerprint * 0x9e3779b97f4a7c15ull ^
                                 key.options_fingerprint);
    }
  };

  using Entry =
      std::pair<QueryCacheKey, std::shared_ptr<const CachedAnswers>>;

  /// One lock's worth of the cache: an independent LRU map over its share
  /// of the key space. Everything mutable is guarded by the stripe's own
  /// mutex — the annotations make an unlocked touch a compile error.
  struct Stripe {
    explicit Stripe(size_t capacity) : capacity(capacity) {}

    mutable Mutex mutex;
    /// Immutable after construction (set before the cache is shared).
    const size_t capacity;
    /// Most-recently-used at the front.
    std::list<Entry> lru SMB_GUARDED_BY(mutex);
    std::unordered_map<QueryCacheKey, std::list<Entry>::iterator, Hash> index
        SMB_GUARDED_BY(mutex);
    QueryCacheStats stats SMB_GUARDED_BY(mutex);
  };

  Stripe& StripeFor(const QueryCacheKey& key) {
    // Stripe selection uses the upper hash bits; the map inside the stripe
    // buckets on the lower ones.
    const size_t h = Hash{}(key);
    return *stripes_[(h >> 32) & (stripes_.size() - 1)];
  }

  size_t capacity_;
  /// unique_ptr for address stability (Stripe holds a mutex, not movable).
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace smb::engine
