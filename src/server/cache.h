#ifndef CORROB_SERVER_CACHE_H_
#define CORROB_SERVER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "server/protocol.h"
#include "server/shared_response.h"

// Bounded, sharded LRU result cache for corrobd. Keys are the
// canonical digest of (dataset name, dataset generation, algorithm,
// effective round budget, normalized options); values are fully
// encoded kResultResponse payloads held as SharedResponses, so a cache
// hit replays the exact bytes a cold run produced — bit-identity is
// the contract the serving-equivalence suite pins — and takes a
// reference to them rather than a copy. Dataset reloads invalidate by
// generation bump: stale keys can never match again, and
// InvalidateDataset() reclaims their memory eagerly.
//
// Only deterministic full outcomes are cacheable (termination
// converged / iteration_cap / budget_exhausted — the round budget is
// part of the key). Deadline- or cancellation-truncated runs depend
// on wall-clock timing and never enter the cache.

namespace corrob {
namespace server {

struct CacheOptions {
  /// Total cached responses across all shards; 0 disables the cache.
  /// Capacity is split evenly over the shards (at least one entry
  /// each), so per-shard LRU order is exact.
  int capacity_entries = 256;
  /// Shard count, clamped to [1, 64]. More shards cut mutex
  /// contention; capacity_entries <= shards degenerates to one-entry
  /// shards. Tests wanting exact global LRU order use shards = 1.
  int shards = 8;
};

/// Point-in-time counters (monotonic except `entries`).
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  int64_t invalidations = 0;
  int64_t entries = 0;
  /// Sum of the resident cached payload sizes.
  int64_t bytes = 0;
};

/// Builds the canonical cache key. `options` must already be
/// normalized (DecodeCorroborateRequest guarantees it); the algorithm
/// name is canonicalized the same way the registry matches it, so
/// "IncEstHeu" and "inc_est_heu" share an entry.
[[nodiscard]] std::string CacheKey(const std::string& dataset,
                                   uint64_t generation,
                                   const std::string& algorithm,
                                   int64_t effective_max_rounds,
                                   const OptionList& options);

/// Thread-safe sharded LRU map from canonical key to shared encoded
/// response. All methods may be called from any connection
/// thread; eviction order is exact LRU within each shard.
class ResultCache {
 public:
  explicit ResultCache(const CacheOptions& options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  [[nodiscard]] bool enabled() const { return per_shard_capacity_ > 0; }

  /// Returns a reference to the cached response and refreshes its
  /// recency, or nullopt (also counting the miss). The payload stays
  /// valid for as long as the caller holds it, through eviction and
  /// invalidation.
  [[nodiscard]] std::optional<SharedResponse> Lookup(const std::string& key);

  /// Inserts (or refreshes) `key`. `dataset` tags the entry for
  /// InvalidateDataset. Evicts the shard's least-recently-used entry
  /// when full. No-op when the cache is disabled.
  void Insert(const std::string& key, const std::string& dataset,
              const SharedResponse& response);

  /// Drops every entry tagged with `dataset` (all generations). Used
  /// on reload so stale generations free their memory immediately
  /// rather than aging out.
  void InvalidateDataset(const std::string& dataset);

  [[nodiscard]] CacheStats stats() const;

  [[nodiscard]] const CacheOptions& options() const { return options_; }

 private:
  struct Entry {
    std::string key;
    std::string dataset;
    SharedResponse response;
  };
  /// One LRU shard: list front = most recent; map points into the list.
  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru CORROB_GUARDED_BY(mutex);
    std::unordered_map<std::string, std::list<Entry>::iterator> index
        CORROB_GUARDED_BY(mutex);
  };

  Shard& ShardFor(const std::string& key);

  CacheOptions options_;
  int per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> insertions_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> invalidations_{0};
  /// Resident payload bytes; updated under the owning shard's mutex.
  std::atomic<int64_t> bytes_{0};
};

}  // namespace server
}  // namespace corrob

#endif  // CORROB_SERVER_CACHE_H_
