#include "server/cache.h"

#include <algorithm>
#include <cctype>
#include <functional>

#include "obs/metrics.h"

namespace corrob {
namespace server {

namespace {

constexpr int kMaxShards = 64;

/// Folds an algorithm name the same way the registry's matcher does
/// (lowercase, '_' and '-' stripped), so every spelling that resolves
/// to one corroborator also resolves to one cache entry.
std::string FoldAlgorithmName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if (c == '_' || c == '-') continue;
    out.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

/// Appends one netstring-style field ("<len>:<bytes>;"), so no field
/// content can collide with the separators of another.
void PutField(std::string* out, std::string_view field) {
  out->append(std::to_string(field.size()));
  out->push_back(':');
  out->append(field);
  out->push_back(';');
}

int64_t PayloadBytes(const SharedResponse& response) {
  return static_cast<int64_t>(response.payload->size());
}

struct CacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* insertions;
  obs::Counter* evictions;
  obs::Counter* invalidations;

  static CacheMetrics& Get() {
    static CacheMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      CacheMetrics m;
      m.hits = registry.GetCounter("corrob.server.cache.hits");
      m.misses = registry.GetCounter("corrob.server.cache.misses");
      m.insertions = registry.GetCounter("corrob.server.cache.insertions");
      m.evictions = registry.GetCounter("corrob.server.cache.evictions");
      m.invalidations =
          registry.GetCounter("corrob.server.cache.invalidations");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

std::string CacheKey(const std::string& dataset, uint64_t generation,
                     const std::string& algorithm,
                     int64_t effective_max_rounds,
                     const OptionList& options) {
  std::string key;
  key.reserve(dataset.size() + algorithm.size() + 48);
  PutField(&key, dataset);
  PutField(&key, std::to_string(generation));
  PutField(&key, FoldAlgorithmName(algorithm));
  PutField(&key, std::to_string(effective_max_rounds));
  for (const auto& [name, value] : options) {
    PutField(&key, name);
    PutField(&key, value);
  }
  return key;
}

ResultCache::ResultCache(const CacheOptions& options) : options_(options) {
  int shards = std::clamp(options.shards, 1, kMaxShards);
  if (options.capacity_entries <= 0) {
    per_shard_capacity_ = 0;
    shards = 1;
  } else {
    // Every shard holds at least one entry; extra shards beyond the
    // capacity would silently inflate it.
    shards = std::min(shards, options.capacity_entries);
    per_shard_capacity_ =
        (options.capacity_entries + shards - 1) / shards;
  }
  options_.shards = shards;
  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) {
  const size_t index =
      std::hash<std::string>{}(key) % shards_.size();
  return *shards_[index];
}

std::optional<SharedResponse> ResultCache::Lookup(const std::string& key) {
  if (!enabled()) return std::nullopt;
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      hits_.fetch_add(1, std::memory_order_relaxed);
      CacheMetrics::Get().hits->Add(1);
      return it->second->response;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  CacheMetrics::Get().misses->Add(1);
  return std::nullopt;
}

void ResultCache::Insert(const std::string& key,
                         const std::string& dataset,
                         const SharedResponse& response) {
  if (!enabled()) return;
  Shard& shard = ShardFor(key);
  int64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Concurrent cold runs of the same request race to insert; the
      // payloads are bit-identical, so refreshing recency is enough.
      bytes_.fetch_add(
          PayloadBytes(response) - PayloadBytes(it->second->response),
          std::memory_order_relaxed);
      it->second->response = response;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    while (static_cast<int>(shard.lru.size()) >= per_shard_capacity_) {
      bytes_.fetch_sub(PayloadBytes(shard.lru.back().response),
                       std::memory_order_relaxed);
      shard.index.erase(shard.lru.back().key);
      shard.lru.pop_back();
      ++evicted;
    }
    shard.lru.push_front(Entry{key, dataset, response});
    shard.index.emplace(key, shard.lru.begin());
    bytes_.fetch_add(PayloadBytes(response), std::memory_order_relaxed);
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
  CacheMetrics::Get().insertions->Add(1);
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    CacheMetrics::Get().evictions->Add(evicted);
  }
}

void ResultCache::InvalidateDataset(const std::string& dataset) {
  if (!enabled()) return;
  int64_t dropped = 0;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->dataset == dataset) {
        bytes_.fetch_sub(PayloadBytes(it->response),
                         std::memory_order_relaxed);
        shard.index.erase(it->key);
        it = shard.lru.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  if (dropped > 0) {
    invalidations_.fetch_add(dropped, std::memory_order_relaxed);
    CacheMetrics::Get().invalidations->Add(dropped);
  }
}

CacheStats ResultCache::stats() const {
  CacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.insertions = insertions_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.invalidations = invalidations_.load(std::memory_order_relaxed);
  out.bytes = bytes_.load(std::memory_order_relaxed);
  for (const auto& shard_ptr : shards_) {
    std::lock_guard<std::mutex> lock(shard_ptr->mutex);
    out.entries += static_cast<int64_t>(shard_ptr->lru.size());
  }
  return out;
}

}  // namespace server
}  // namespace corrob
