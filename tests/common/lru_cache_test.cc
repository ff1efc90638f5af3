#include "common/lru_cache.h"

#include <gtest/gtest.h>

#include <string>

/// The charge rules of the LRU behind both serving caches: entries with
/// unequal charges, a re-insert that changes an entry's charge, and a
/// charge larger than the capacity. The caches' own suites cover striping,
/// recency and concurrency (tests/engine/query_cache*_test.cc,
/// tests/index/name_row_cache_test.cc).

namespace smb {
namespace {

using Cache = LruCache<int, std::string>;

TEST(LruCacheTest, EvictsByChargeUntilTheInsertFits) {
  Cache cache(10, /*stripes=*/1);
  cache.Insert(1, "a", 4);
  cache.Insert(2, "b", 4);
  cache.Insert(3, "c", 2);
  EXPECT_EQ(cache.stats().charge, 10u);
  // Charge 7 needs room that only evicting both 1 and 2 makes.
  cache.Insert(4, "d", 7);
  const LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.charge, 9u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.Lookup(2), nullptr);
  ASSERT_NE(cache.Lookup(3), nullptr);
  EXPECT_EQ(*cache.Lookup(4), "d");
}

TEST(LruCacheTest, ReinsertReplacesValueAndCharge) {
  Cache cache(10, /*stripes=*/1);
  cache.Insert(1, "a", 3);
  cache.Insert(2, "b", 3);
  // Growing 1 to charge 8 refreshes it and evicts 2, never 1 itself.
  cache.Insert(1, "A", 8);
  LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.charge, 8u);
  EXPECT_EQ(*cache.Lookup(1), "A");
  EXPECT_EQ(cache.Lookup(2), nullptr);
  // Shrinking it frees the difference.
  cache.Insert(1, "a", 1);
  stats = cache.stats();
  EXPECT_EQ(stats.charge, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(LruCacheTest, AChargeAboveTheStripeCapacityIsNotStored) {
  Cache cache(10, /*stripes=*/1);
  cache.Insert(1, "a", 5);
  cache.Insert(2, "b", 11);
  const LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.charge, 5u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(cache.Lookup(2), nullptr);
  EXPECT_NE(cache.Lookup(1), nullptr);
}

}  // namespace
}  // namespace smb
