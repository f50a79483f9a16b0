#ifndef CORROB_OBS_METRICS_H_
#define CORROB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/json.h"

// Process-wide metrics: lock-cheap counters, gauges and log-scale
// histograms. Writes are relaxed atomic increments into per-thread
// shards (no mutex, no cache-line ping-pong between pool workers);
// Snapshot() folds the shards in fixed shard order into exact int64
// totals, so the readout is deterministic for a deterministic
// workload no matter how the increments were scheduled. Instrumented
// numeric code is unaffected: metrics only observe, they never feed
// back into any trust computation.
//
// Hot paths cache the pointer once:
//
//   static Counter* scans =
//       MetricsRegistry::Global().GetCounter("corrob.inc_est.delta_h_scans");
//   scans->Add(1);

namespace corrob {
namespace obs {

namespace internal_metrics {

inline constexpr int kShards = 16;

/// One cache line per shard keeps concurrent writers from false
/// sharing; the shard a thread writes is fixed at thread birth.
struct alignas(64) ShardCell {
  std::atomic<int64_t> value{0};
};

/// Index of the calling thread's shard (round-robin at first use).
int ThisThreadShard();

}  // namespace internal_metrics

/// Monotonic event count.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    shards_[internal_metrics::ThisThreadShard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Exact sum over the shards, folded in fixed shard order.
  int64_t Value() const {
    int64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (auto& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  internal_metrics::ShardCell shards_[internal_metrics::kShards];
};

/// Last-written value (e.g. thread count, dataset size).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log-scale (base-2) histogram of non-negative integer samples, e.g.
/// nanosecond durations or batch sizes. Bucket b counts samples whose
/// value needs b significant bits: bucket 0 is {0}, bucket b >= 1 is
/// [2^(b-1), 2^b). Exact count and sum ride along for means.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(int64_t value) {
    const int shard = internal_metrics::ThisThreadShard();
    if (value < 0) value = 0;
    buckets_[BucketOf(value)][shard].value.fetch_add(
        1, std::memory_order_relaxed);
    count_[shard].value.fetch_add(1, std::memory_order_relaxed);
    sum_[shard].value.fetch_add(value, std::memory_order_relaxed);
  }

  /// Bucket index of `value` (see class comment).
  static int BucketOf(int64_t value) {
    if (value <= 0) return 0;
    int bits = 0;
    uint64_t v = static_cast<uint64_t>(value);
    while (v != 0) {
      v >>= 1;
      ++bits;
    }
    return bits < kBuckets ? bits : kBuckets - 1;
  }

  int64_t Count() const { return Fold(count_); }
  int64_t Sum() const { return Fold(sum_); }
  int64_t BucketCount(int bucket) const { return Fold(buckets_[bucket]); }

  void Reset() {
    for (auto& row : buckets_) {
      for (auto& cell : row) cell.value.store(0, std::memory_order_relaxed);
    }
    for (auto& cell : count_) cell.value.store(0, std::memory_order_relaxed);
    for (auto& cell : sum_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  static int64_t Fold(
      const internal_metrics::ShardCell (&cells)[internal_metrics::kShards]) {
    int64_t total = 0;
    for (const auto& cell : cells) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  internal_metrics::ShardCell buckets_[kBuckets][internal_metrics::kShards];
  internal_metrics::ShardCell count_[internal_metrics::kShards];
  internal_metrics::ShardCell sum_[internal_metrics::kShards];
};

/// A point-in-time readout of every registered metric, name-sorted.
struct MetricsSnapshot {
  struct HistogramValue {
    std::string name;
    int64_t count = 0;
    int64_t sum = 0;
    /// (bucket index, count) for non-empty buckets, ascending index.
    std::vector<std::pair<int, int64_t>> buckets;
  };

  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramValue> histograms;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {"count": n, "sum": s, "buckets": {"<index>": c, ...}}}}.
  JsonValue ToJson() const;
  std::string ToJsonString() const { return ToJson().Dump(2); }
};

/// Create-or-get registry of named metrics. Returned pointers are
/// stable for the registry's lifetime (the process, for Global()).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the instrumentation writes to.
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Folds every metric into exact totals. Safe to call while other
  /// threads keep writing (their in-flight increments land in the
  /// next snapshot).
  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (pointers stay valid). Intended
  /// for tests and per-run isolation, not concurrent use.
  void ResetAll();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      CORROB_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      CORROB_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      CORROB_GUARDED_BY(mutex_);
};

}  // namespace obs
}  // namespace corrob

#endif  // CORROB_OBS_METRICS_H_
