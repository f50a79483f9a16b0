#include "server/cache.h"

#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "server/protocol.h"

// Unit tests for the corrobd result cache: canonical key construction
// (one key per semantic request, regardless of spelling), exact LRU
// eviction order, dataset invalidation, and the disabled degenerate.

namespace corrob {
namespace server {
namespace {

/// The test payloads as the shared responses the daemon publishes.
SharedResponse Shared(std::string payload) {
  return MakeSharedResponse(FrameType::kResultResponse, std::move(payload));
}

TEST(CacheKeyTest, AlgorithmSpellingsFoldToOneKey) {
  const OptionList no_options;
  const std::string canonical =
      CacheKey("flights", 1, "IncEstHeu", 100, no_options);
  EXPECT_EQ(CacheKey("flights", 1, "inc_est_heu", 100, no_options),
            canonical);
  EXPECT_EQ(CacheKey("flights", 1, "inc-est-heu", 100, no_options),
            canonical);
  EXPECT_EQ(CacheKey("flights", 1, "INCESTHEU", 100, no_options),
            canonical);
  // A genuinely different algorithm is a different key.
  EXPECT_NE(CacheKey("flights", 1, "TwoEstimate", 100, no_options),
            canonical);
}

TEST(CacheKeyTest, EveryComponentDistinguishes) {
  const OptionList no_options;
  const std::string base = CacheKey("d", 1, "a", 10, no_options);
  EXPECT_NE(CacheKey("e", 1, "a", 10, no_options), base);
  EXPECT_NE(CacheKey("d", 2, "a", 10, no_options), base);
  EXPECT_NE(CacheKey("d", 1, "b", 10, no_options), base);
  EXPECT_NE(CacheKey("d", 1, "a", 11, no_options), base);
  EXPECT_NE(CacheKey("d", 1, "a", 10, {{"k", "v"}}), base);
}

TEST(CacheKeyTest, FieldContentCannotCollideAcrossBoundaries) {
  // Netstring framing: moving bytes between adjacent fields must
  // change the key, even when the concatenation is identical.
  EXPECT_NE(CacheKey("ab", 1, "c", 0, {}), CacheKey("a", 1, "bc", 0, {}));
  EXPECT_NE(CacheKey("d", 1, "a", 0, {{"xy", "z"}}),
            CacheKey("d", 1, "a", 0, {{"x", "yz"}}));
}

TEST(CacheKeyTest, NormalizedPermutationsShareOneKey) {
  // The codec normalizes option order before the key is built; any
  // permutation fed through NormalizeOptions lands on the same key.
  OptionList forward = {{"alpha", "1"}, {"beta", "2"}, {"gamma", "3"}};
  OptionList reversed = {{"gamma", "3"}, {"beta", "2"}, {"alpha", "1"}};
  ASSERT_TRUE(NormalizeOptions(&forward).ok());
  ASSERT_TRUE(NormalizeOptions(&reversed).ok());
  EXPECT_EQ(CacheKey("d", 1, "a", 0, forward),
            CacheKey("d", 1, "a", 0, reversed));
}

TEST(ResultCacheTest, LookupInsertAndCounters) {
  ResultCache cache(CacheOptions{.capacity_entries = 8, .shards = 2});
  ASSERT_TRUE(cache.enabled());

  EXPECT_FALSE(cache.Lookup("k1").has_value());
  cache.Insert("k1", "d", Shared("payload-1"));
  std::optional<SharedResponse> hit = cache.Lookup("k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit->payload, "payload-1");

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.entries, 1);
}

TEST(ResultCacheTest, ReinsertRefreshesInsteadOfDuplicating) {
  ResultCache cache(CacheOptions{.capacity_entries = 4, .shards = 1});
  cache.Insert("k", "d", Shared("old"));
  cache.Insert("k", "d", Shared("new"));
  EXPECT_EQ(cache.stats().entries, 1);
  EXPECT_EQ(*cache.Lookup("k").value().payload, "new");
}

TEST(ResultCacheTest, TwoEntryEvictionIsExactLru) {
  // shards = 1 makes the global LRU order exact, so the evicted entry
  // is fully determined: a lookup refreshes recency and the *other*
  // entry goes.
  ResultCache cache(CacheOptions{.capacity_entries = 2, .shards = 1});
  cache.Insert("a", "d", Shared("pa"));
  cache.Insert("b", "d", Shared("pb"));
  ASSERT_TRUE(cache.Lookup("a").has_value());  // a is now most recent
  cache.Insert("c", "d", Shared("pc"));        // evicts b, not a

  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2);
}

TEST(ResultCacheTest, ZeroCapacityDisablesEverything) {
  ResultCache cache(CacheOptions{.capacity_entries = 0, .shards = 8});
  EXPECT_FALSE(cache.enabled());
  cache.Insert("k", "d", Shared("p"));
  EXPECT_FALSE(cache.Lookup("k").has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.insertions, 0);
}

TEST(ResultCacheTest, ShardCountIsClampedToCapacity) {
  // 3 entries over 8 requested shards would give every shard a
  // 1-entry budget and inflate capacity to 8; the constructor clamps
  // shards down instead.
  ResultCache cache(CacheOptions{.capacity_entries = 3, .shards = 8});
  EXPECT_EQ(cache.options().shards, 3);
  ResultCache wild(CacheOptions{.capacity_entries = 1000, .shards = 9999});
  EXPECT_EQ(wild.options().shards, 64);
}

TEST(ResultCacheTest, InvalidateDatasetDropsOnlyItsEntries) {
  ResultCache cache(CacheOptions{.capacity_entries = 16, .shards = 4});
  cache.Insert("k1", "flights", Shared("p1"));
  cache.Insert("k2", "flights", Shared("p2"));
  cache.Insert("k3", "books", Shared("p3"));

  cache.InvalidateDataset("flights");
  EXPECT_FALSE(cache.Lookup("k1").has_value());
  EXPECT_FALSE(cache.Lookup("k2").has_value());
  EXPECT_TRUE(cache.Lookup("k3").has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 2);
  EXPECT_EQ(stats.entries, 1);

  // Invalidating a dataset with no entries is a harmless no-op.
  cache.InvalidateDataset("flights");
  EXPECT_EQ(cache.stats().invalidations, 2);
}

TEST(ResultCacheTest, ConcurrentMixedTrafficStaysConsistent) {
  ResultCache cache(CacheOptions{.capacity_entries = 32, .shards = 4});
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        const std::string key = "k" + std::to_string((t * 7 + i) % 48);
        if (std::optional<SharedResponse> got = cache.Lookup(key)) {
          // Payload content is keyed on the key itself: a hit must
          // never observe another key's bytes.
          EXPECT_EQ(*got->payload, "payload-" + key);
        } else {
          cache.Insert(key, "d", Shared("payload-" + key));
        }
        if (i % 100 == 99) cache.InvalidateDataset("d");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const CacheStats stats = cache.stats();
  EXPECT_LE(stats.entries, 32);
  EXPECT_GE(stats.insertions, 1);
}

}  // namespace
}  // namespace server
}  // namespace corrob
