#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

/// \file lru_cache.h
/// \brief The striped, charge-bounded, thread-safe LRU map behind both
/// serving caches (`engine::QueryResultCache`, `index::NameRowCache`).
///
/// **Charge.** Every entry is charged a caller-given amount (1 per entry
/// for an entry-counted cache, its bytes for a byte-bounded one), and the
/// cache keeps the resident charge within its capacity.
///
/// **Stripes.** Keys are partitioned over independent stripes, each an LRU
/// map behind its own mutex, so unrelated callers rarely contend on one
/// lock. The stripe count is a power of two no larger than the capacity
/// (so no stripe is left with nothing to hold); the capacity is split
/// evenly across stripes, the first `capacity % stripes` taking one more.
/// Recency and eviction are per stripe: an insert evicts the least-recently
/// used entries of its own stripe, which approximates (and with one stripe
/// exactly is) global LRU.
///
/// **Values.** Entries are handed out as `std::shared_ptr<const Value>`: a
/// hit stays valid for as long as the caller holds it, even if another
/// thread evicts the entry meanwhile. Evicted entries are no longer charged.
///
/// **Re-insert.** An insert under a resident key replaces its value and
/// charge and refreshes its recency.
namespace smb {

/// \brief Counters of an `LruCache`: hits, misses and evictions are
/// monotonic over its lifetime; `charge` and `entries` are what is resident
/// now. Each is a momentary sum over the stripes.
struct LruCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Charge of the resident entries (at most the capacity).
  uint64_t charge = 0;
  uint64_t entries = 0;

  LruCacheStats& operator+=(const LruCacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    charge += other.charge;
    entries += other.entries;
    return *this;
  }
};

/// \brief Fixed-capacity striped LRU map from `Key` to shared immutable
/// `Value`s, bounded by the summed charge of its entries. Thread-safe.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  static constexpr size_t kDefaultStripes = 8;

  /// `capacity` = 0 disables caching (every Lookup misses, Insert drops).
  /// `stripes` is rounded down to a power of two and clamped to
  /// `capacity`; 1 gives one exact LRU behind one mutex.
  explicit LruCache(size_t capacity, size_t stripes = kDefaultStripes)
      : capacity_(capacity) {
    size_t count = 1;
    while (count * 2 <= std::min(stripes, capacity)) count *= 2;
    stripes_.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      stripes_.push_back(std::make_unique<Stripe>(
          capacity / count + (i < capacity % count ? 1 : 0)));
    }
  }

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// \brief The entry for `key`, or nullptr on a miss. A hit refreshes the
  /// entry's recency within its stripe.
  std::shared_ptr<const Value> Lookup(const Key& key) {
    Stripe& stripe = StripeFor(key);
    MutexLock lock(stripe.mutex);
    auto it = stripe.index.find(key);
    if (it == stripe.index.end()) {
      ++stripe.stats.misses;
      return nullptr;
    }
    ++stripe.stats.hits;
    stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second);
    return it->second->value;
  }

  /// \brief Stores `value` under `key` at `charge`, replacing a resident
  /// entry, then evicts the stripe's least-recently-used entries until its
  /// resident charge fits its capacity. A charge larger than the stripe's
  /// capacity is not stored.
  void Insert(const Key& key, Value value, size_t charge = 1) {
    Insert(key, std::make_shared<const Value>(std::move(value)), charge);
  }

  /// \brief As above, for callers that already hold the value shared.
  void Insert(const Key& key, std::shared_ptr<const Value> value,
              size_t charge = 1) {
    Stripe& stripe = StripeFor(key);
    if (charge > stripe.capacity) return;
    MutexLock lock(stripe.mutex);
    auto it = stripe.index.find(key);
    if (it != stripe.index.end()) {
      Entry& entry = *it->second;
      stripe.stats.charge = stripe.stats.charge - entry.charge + charge;
      entry.value = std::move(value);
      entry.charge = charge;
      stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second);
    } else {
      stripe.lru.push_front(Entry{key, std::move(value), charge});
      stripe.index.emplace(key, stripe.lru.begin());
      stripe.stats.charge += charge;
    }
    while (stripe.stats.charge > stripe.capacity) {
      const Entry& victim = stripe.lru.back();
      stripe.stats.charge -= victim.charge;
      stripe.index.erase(victim.key);
      stripe.lru.pop_back();
      ++stripe.stats.evictions;
    }
  }

  /// Entries resident now, summed over stripes.
  size_t size() const { return stats().entries; }
  size_t capacity() const { return capacity_; }
  size_t stripe_count() const { return stripes_.size(); }

  LruCacheStats stats() const {
    LruCacheStats total;
    for (const auto& stripe : stripes_) {
      MutexLock lock(stripe->mutex);
      total += stripe->stats;
      total.entries += stripe->lru.size();
    }
    return total;
  }

 private:
  struct Entry {
    Key key;
    std::shared_ptr<const Value> value;
    size_t charge = 0;
  };
  using Iterator = typename std::list<Entry>::iterator;

  /// One lock's worth of the cache. Everything mutable is guarded by the
  /// stripe's own mutex; the annotations make an unlocked touch a compile
  /// error.
  struct Stripe {
    explicit Stripe(size_t capacity) : capacity(capacity) {}

    mutable Mutex mutex;
    /// Immutable after construction (set before the cache is shared).
    const size_t capacity;
    /// Most-recently-used at the front.
    std::list<Entry> lru SMB_GUARDED_BY(mutex);
    std::unordered_map<Key, Iterator, Hash> index SMB_GUARDED_BY(mutex);
    /// Everything but `entries`, which is `lru.size()`.
    LruCacheStats stats SMB_GUARDED_BY(mutex);
  };

  Stripe& StripeFor(const Key& key) {
    // Stripe selection uses the upper hash bits; the map inside the stripe
    // buckets on the lower ones.
    const size_t h = Hash{}(key);
    return *stripes_[(h >> 32) & (stripes_.size() - 1)];
  }

  size_t capacity_;
  /// unique_ptr for address stability (a Stripe holds a mutex).
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace smb
