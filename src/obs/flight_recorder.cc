#include "obs/flight_recorder.h"

#include <algorithm>
#include <utility>

namespace corrob {
namespace obs {

namespace {

/// Log2 bucket of a non-negative nanosecond duration; mirrors
/// obs::Histogram::BucketOf so the two histogram families line up.
int LatencyBucketOf(int64_t value) {
  if (value <= 0) return 0;
  int bits = 0;
  uint64_t v = static_cast<uint64_t>(value);
  while (v != 0) {
    v >>= 1;
    ++bits;
  }
  return bits < FlightRecorder::kLatencyBuckets
             ? bits
             : FlightRecorder::kLatencyBuckets - 1;
}

/// True for the roles whose latency belongs in the "hit" histogram:
/// the request's bytes came from another run (cache replay or a
/// coalesced leader). Cold, leader and promoted runs are "cold";
/// rejected requests never ran and are counted in neither.
bool IsHitRole(RequestRole role) {
  return role == RequestRole::kCacheHit || role == RequestRole::kFollower;
}

JsonValue BucketsJson(const int64_t (&buckets)[FlightRecorder::kLatencyBuckets],
                      int64_t count, int64_t sum_nanos) {
  JsonValue out = JsonValue::Object();
  out.Set("count", JsonValue::Int(count));
  out.Set("sum_nanos", JsonValue::Int(sum_nanos));
  JsonValue non_empty = JsonValue::Object();
  for (int i = 0; i < FlightRecorder::kLatencyBuckets; ++i) {
    if (buckets[i] != 0) {
      non_empty.Set(std::to_string(i), JsonValue::Int(buckets[i]));
    }
  }
  out.Set("buckets", std::move(non_empty));
  return out;
}

JsonValue RecordJson(const RequestRecord& record) {
  JsonValue out = JsonValue::Object();
  out.Set("seq", JsonValue::Int(static_cast<int64_t>(record.sequence)));
  out.Set("id", JsonValue::Str(record.client_request_id));
  out.Set("tenant", JsonValue::Str(record.tenant));
  out.Set("dataset", JsonValue::Str(record.dataset));
  out.Set("method", JsonValue::Str(record.method));
  out.Set("priority", JsonValue::Str(record.priority));
  out.Set("role", JsonValue::Str(std::string(RequestRoleName(record.role))));
  out.Set("termination", JsonValue::Str(record.termination));
  out.Set("admission_wait_nanos",
          JsonValue::Int(record.admission_wait_nanos));
  out.Set("service_nanos", JsonValue::Int(record.service_nanos));
  out.Set("total_nanos", JsonValue::Int(record.total_nanos));
  out.Set("response_bytes", JsonValue::Int(record.response_bytes));
  if (!record.spans.empty()) {
    JsonValue spans = JsonValue::Array();
    for (const RequestSpan& span : record.spans) {
      JsonValue one = JsonValue::Object();
      one.Set("name", JsonValue::Str(span.name));
      one.Set("at_nanos", JsonValue::Int(span.at_nanos));
      spans.Append(std::move(one));
    }
    out.Set("spans", std::move(spans));
  }
  return out;
}

}  // namespace

std::string_view RequestRoleName(RequestRole role) {
  switch (role) {
    case RequestRole::kCold:
      return "cold";
    case RequestRole::kCacheHit:
      return "cache_hit";
    case RequestRole::kLeader:
      return "leader";
    case RequestRole::kFollower:
      return "follower";
    case RequestRole::kPromoted:
      return "promoted";
    case RequestRole::kRejected:
      return "rejected";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(const Options& options) {
  capacity_ = options.capacity > 0 ? options.capacity : 0;
  slow_threshold_nanos_ =
      options.slow_threshold_nanos > 0 ? options.slow_threshold_nanos : 0;
  clock_ = options.clock != nullptr ? options.clock : MonotonicClock::Get();
  if (capacity_ > 0) {
    int shards = options.shards > 0 ? options.shards : 1;
    shards = std::min(shards, capacity_);
    per_shard_capacity_ = (capacity_ + shards - 1) / shards;
    shards_.reserve(static_cast<size_t>(shards));
    for (int i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }
}

uint64_t FlightRecorder::Begin(RequestStart start) {
  if (!armed()) return 0;
  const int64_t now = clock_->NowNanos();
  std::lock_guard<std::mutex> lock(active_mutex_);
  const uint64_t handle = next_sequence_++;
  ++started_;
  ActiveEntry& entry = active_[handle];
  entry.start = std::move(start);
  entry.start_nanos = now;
  return handle;
}

void FlightRecorder::AddSpan(uint64_t handle, std::string_view name) {
  if (handle == 0 || !armed()) return;
  const int64_t now = clock_->NowNanos();
  std::lock_guard<std::mutex> lock(active_mutex_);
  auto it = active_.find(handle);
  if (it == active_.end()) return;
  it->second.spans.push_back(
      RequestSpan{std::string(name), now - it->second.start_nanos});
}

FinishSummary FlightRecorder::End(uint64_t handle, RequestFinish finish) {
  FinishSummary summary;
  if (handle == 0 || !armed()) return summary;
  const int64_t now = clock_->NowNanos();

  RequestRecord record;
  {
    std::lock_guard<std::mutex> lock(active_mutex_);
    auto it = active_.find(handle);
    if (it == active_.end()) return summary;
    ActiveEntry& entry = it->second;
    record.sequence = handle;
    record.client_request_id = std::move(entry.start.client_request_id);
    record.tenant = std::move(entry.start.tenant);
    record.dataset = std::move(entry.start.dataset);
    record.method = std::move(entry.start.method);
    record.priority = std::move(entry.start.priority);
    record.start_nanos = entry.start_nanos;
    record.total_nanos = now - entry.start_nanos;
    record.spans = std::move(entry.spans);
    active_.erase(it);
  }
  record.role = finish.role;
  record.termination = std::move(finish.termination);
  record.admission_wait_nanos = finish.admission_wait_nanos;
  record.service_nanos = finish.service_nanos;
  record.response_bytes = finish.response_bytes;

  summary.total_nanos = record.total_nanos;
  summary.slow = slow_threshold_nanos_ > 0 &&
                 record.total_nanos >= slow_threshold_nanos_;
  if (!summary.slow) record.spans.clear();

  {
    std::lock_guard<std::mutex> lock(totals_mutex_);
    TenantTotals& totals = tenants_[record.tenant];
    ++totals.requests;
    totals.total_nanos += record.total_nanos;
    totals.max_nanos = std::max(totals.max_nanos, record.total_nanos);
    if (record.role != RequestRole::kRejected) {
      const int bucket = LatencyBucketOf(record.total_nanos);
      if (IsHitRole(record.role)) {
        ++hit_buckets_[bucket];
        ++hit_count_;
        hit_sum_nanos_ += record.total_nanos;
      } else {
        ++cold_buckets_[bucket];
        ++cold_count_;
        cold_sum_nanos_ += record.total_nanos;
      }
    }
    if (summary.slow) ++slow_;
  }

  Shard* shard = ShardOf(record.sequence);
  std::lock_guard<std::mutex> lock(shard->mutex);
  ++shard->completed;
  if (shard->ring.size() < static_cast<size_t>(per_shard_capacity_)) {
    shard->ring.push_back(std::move(record));
  } else {
    shard->ring[shard->next] = std::move(record);
    shard->next = (shard->next + 1) % shard->ring.size();
    ++shard->dropped;
  }
  return summary;
}

std::vector<ActiveSnapshot> FlightRecorder::ActiveRequests(
    int64_t now_nanos) const {
  std::vector<ActiveSnapshot> out;
  if (!armed()) return out;
  std::lock_guard<std::mutex> lock(active_mutex_);
  out.reserve(active_.size());
  for (const auto& [handle, entry] : active_) {
    ActiveSnapshot snapshot;
    snapshot.sequence = handle;
    snapshot.client_request_id = entry.start.client_request_id;
    snapshot.tenant = entry.start.tenant;
    snapshot.dataset = entry.start.dataset;
    snapshot.method = entry.start.method;
    snapshot.priority = entry.start.priority;
    snapshot.age_nanos = now_nanos - entry.start_nanos;
    snapshot.deadline_nanos = entry.start.deadline_nanos;
    snapshot.flagged_stuck = entry.flagged_stuck;
    out.push_back(std::move(snapshot));
  }
  return out;
}

std::vector<ActiveSnapshot> FlightRecorder::FlagStuck(int64_t now_nanos,
                                                      double multiplier) {
  std::vector<ActiveSnapshot> newly_flagged;
  if (!armed() || multiplier <= 0.0) return newly_flagged;
  std::lock_guard<std::mutex> lock(active_mutex_);
  for (auto& [handle, entry] : active_) {
    if (entry.flagged_stuck || entry.start.deadline_nanos <= 0) continue;
    const double age =
        static_cast<double>(now_nanos - entry.start_nanos);
    if (age <= multiplier * static_cast<double>(entry.start.deadline_nanos)) {
      continue;
    }
    entry.flagged_stuck = true;
    ActiveSnapshot snapshot;
    snapshot.sequence = handle;
    snapshot.client_request_id = entry.start.client_request_id;
    snapshot.tenant = entry.start.tenant;
    snapshot.dataset = entry.start.dataset;
    snapshot.method = entry.start.method;
    snapshot.priority = entry.start.priority;
    snapshot.age_nanos = now_nanos - entry.start_nanos;
    snapshot.deadline_nanos = entry.start.deadline_nanos;
    snapshot.flagged_stuck = true;
    newly_flagged.push_back(std::move(snapshot));
  }
  return newly_flagged;
}

int64_t FlightRecorder::stuck_now() const {
  if (!armed()) return 0;
  std::lock_guard<std::mutex> lock(active_mutex_);
  int64_t stuck = 0;
  for (const auto& item : active_) {
    if (item.second.flagged_stuck) ++stuck;
  }
  return stuck;
}

FlightRecorderStats FlightRecorder::stats() const {
  FlightRecorderStats stats;
  if (!armed()) return stats;
  // Completions are summed before `started_` is read. A request counts
  // as started before it can count as completed, so this order keeps
  // started >= completed in every snapshot.
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.completed += shard->completed;
    stats.dropped += shard->dropped;
  }
  {
    std::lock_guard<std::mutex> lock(active_mutex_);
    stats.started = started_;
    stats.active = static_cast<int64_t>(active_.size());
  }
  std::lock_guard<std::mutex> lock(totals_mutex_);
  stats.slow = slow_;
  return stats;
}

JsonValue FlightRecorder::SnapshotJson(int top_k, int max_recent) const {
  JsonValue out = JsonValue::Object();
  const FlightRecorderStats totals = stats();
  out.Set("capacity", JsonValue::Int(capacity_));
  out.Set("started", JsonValue::Int(totals.started));
  out.Set("completed", JsonValue::Int(totals.completed));
  out.Set("dropped", JsonValue::Int(totals.dropped));
  out.Set("slow", JsonValue::Int(totals.slow));

  // Merge the shards and keep the newest `max_recent` in ascending
  // sequence order. Sequence is globally unique, so the merge order
  // is independent of shard scheduling.
  std::vector<RequestRecord> merged;
  if (armed()) {
    merged.reserve(static_cast<size_t>(capacity_));
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      merged.insert(merged.end(), shard->ring.begin(), shard->ring.end());
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.sequence < b.sequence;
            });
  if (max_recent >= 0 &&
      merged.size() > static_cast<size_t>(max_recent)) {
    merged.erase(merged.begin(),
                 merged.end() - static_cast<size_t>(max_recent));
  }
  JsonValue recent = JsonValue::Array();
  for (const RequestRecord& record : merged) {
    recent.Append(RecordJson(record));
  }
  out.Set("recent", std::move(recent));

  {
    std::lock_guard<std::mutex> lock(totals_mutex_);
    // Top-K tenants by cumulative request count (the QPS ranking over
    // the recorder's lifetime); ties break on tenant name so the
    // ordering is total.
    std::vector<std::pair<std::string, TenantTotals>> ranked(
        tenants_.begin(), tenants_.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                if (a.second.requests != b.second.requests) {
                  return a.second.requests > b.second.requests;
                }
                return a.first < b.first;
              });
    if (top_k >= 0 && ranked.size() > static_cast<size_t>(top_k)) {
      ranked.resize(static_cast<size_t>(top_k));
    }
    JsonValue tenants = JsonValue::Array();
    for (const auto& [tenant, totals_row] : ranked) {
      JsonValue row = JsonValue::Object();
      row.Set("tenant", JsonValue::Str(tenant));
      row.Set("requests", JsonValue::Int(totals_row.requests));
      row.Set("total_nanos", JsonValue::Int(totals_row.total_nanos));
      row.Set("max_nanos", JsonValue::Int(totals_row.max_nanos));
      tenants.Append(std::move(row));
    }
    out.Set("tenants", std::move(tenants));

    JsonValue latency = JsonValue::Object();
    latency.Set("cold",
                BucketsJson(cold_buckets_, cold_count_, cold_sum_nanos_));
    latency.Set("hit", BucketsJson(hit_buckets_, hit_count_, hit_sum_nanos_));
    out.Set("latency", std::move(latency));
  }
  return out;
}

}  // namespace obs
}  // namespace corrob
