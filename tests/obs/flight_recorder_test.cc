#include "obs/flight_recorder.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/clock.h"
#include "obs/json.h"

namespace corrob {
namespace obs {
namespace {

RequestStart MakeStart(const std::string& id, const std::string& tenant,
                       int64_t deadline_nanos = 0) {
  RequestStart start;
  start.client_request_id = id;
  start.tenant = tenant;
  start.dataset = "flights";
  start.method = "IncEstHeu";
  start.priority = "batch";
  start.deadline_nanos = deadline_nanos;
  return start;
}

RequestFinish MakeFinish(RequestRole role, const std::string& termination) {
  RequestFinish finish;
  finish.role = role;
  finish.termination = termination;
  return finish;
}

TEST(FlightRecorderTest, BeginEndRoundTripsOneRecord) {
  ManualClock clock;
  FlightRecorder::Options options;
  options.capacity = 8;
  options.clock = &clock;
  FlightRecorder recorder(options);
  ASSERT_TRUE(recorder.armed());

  clock.SetNanos(1'000);
  const uint64_t handle = recorder.Begin(MakeStart("req-1", "alpha", 0));
  ASSERT_NE(handle, 0u);
  EXPECT_EQ(recorder.stats().started, 1);
  EXPECT_EQ(recorder.stats().active, 1);

  clock.SetNanos(6'000);
  RequestFinish finish = MakeFinish(RequestRole::kCold, "converged");
  finish.service_nanos = 4'000;
  finish.response_bytes = 99;
  const FinishSummary summary = recorder.End(handle, finish);
  EXPECT_EQ(summary.total_nanos, 5'000);
  EXPECT_FALSE(summary.slow);
  EXPECT_EQ(recorder.stats().completed, 1);
  EXPECT_EQ(recorder.stats().active, 0);

  const JsonValue snapshot = recorder.SnapshotJson(10, 10);
  const JsonValue* recent = snapshot.Find("recent");
  ASSERT_NE(recent, nullptr);
  ASSERT_EQ(recent->size(), 1u);
  const JsonValue& record = recent->at(0);
  EXPECT_EQ(record.Find("id")->string_value(), "req-1");
  EXPECT_EQ(record.Find("tenant")->string_value(), "alpha");
  EXPECT_EQ(record.Find("role")->string_value(), "cold");
  EXPECT_EQ(record.Find("termination")->string_value(), "converged");
  EXPECT_EQ(record.Find("total_nanos")->int_value(), 5'000);
  EXPECT_EQ(record.Find("response_bytes")->int_value(), 99);
}

TEST(FlightRecorderTest, DisarmedRecorderIsANoOp) {
  ManualClock clock;
  FlightRecorder::Options options;
  options.capacity = 0;
  options.clock = &clock;
  FlightRecorder recorder(options);
  EXPECT_FALSE(recorder.armed());

  const uint64_t handle = recorder.Begin(MakeStart("req-1", "alpha", 0));
  EXPECT_EQ(handle, 0u);
  recorder.AddSpan(handle, "ignored");
  const FinishSummary summary =
      recorder.End(handle, MakeFinish(RequestRole::kCold, "converged"));
  EXPECT_EQ(summary.total_nanos, 0);
  EXPECT_FALSE(summary.slow);

  const FlightRecorderStats stats = recorder.stats();
  EXPECT_EQ(stats.started, 0);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.active, 0);
  EXPECT_TRUE(recorder.ActiveRequests(0).empty());
  EXPECT_TRUE(recorder.SnapshotJson(10, 10).Find("recent")->items().empty());
}

TEST(FlightRecorderTest, UnknownAndZeroHandlesAreNoOps) {
  ManualClock clock;
  FlightRecorder::Options options;
  options.capacity = 8;
  options.clock = &clock;
  FlightRecorder recorder(options);

  recorder.AddSpan(0, "nothing");
  recorder.AddSpan(12345, "nothing");
  const FinishSummary summary =
      recorder.End(12345, MakeFinish(RequestRole::kCold, "converged"));
  EXPECT_EQ(summary.total_nanos, 0);
  EXPECT_EQ(recorder.stats().completed, 0);
}

TEST(FlightRecorderTest, RingWrapDropsOldestAndCountsDropped) {
  ManualClock clock;
  FlightRecorder::Options options;
  options.capacity = 4;
  options.shards = 1;
  options.clock = &clock;
  FlightRecorder recorder(options);

  for (int i = 0; i < 10; ++i) {
    const uint64_t handle =
        recorder.Begin(MakeStart("req-" + std::to_string(i), "alpha", 0));
    clock.AdvanceNanos(1'000);
    // lint: discard-ok: summary unused
    (void)recorder.End(handle, MakeFinish(RequestRole::kCold, "converged"));
  }

  const FlightRecorderStats stats = recorder.stats();
  EXPECT_EQ(stats.started, 10);
  EXPECT_EQ(stats.completed, 10);
  EXPECT_EQ(stats.dropped, 6);

  // The ring keeps the newest four, in ascending sequence order.
  const JsonValue snapshot = recorder.SnapshotJson(10, 100);
  const JsonValue* recent = snapshot.Find("recent");
  ASSERT_EQ(recent->size(), 4u);
  EXPECT_EQ(recent->at(0).Find("id")->string_value(), "req-6");
  EXPECT_EQ(recent->at(3).Find("id")->string_value(), "req-9");
  // max_recent trims to the NEWEST records.
  const JsonValue trimmed = recorder.SnapshotJson(10, 2);
  ASSERT_EQ(trimmed.Find("recent")->size(), 2u);
  EXPECT_EQ(trimmed.Find("recent")->at(0).Find("id")->string_value(),
            "req-8");
  EXPECT_EQ(trimmed.Find("recent")->at(1).Find("id")->string_value(),
            "req-9");
}

TEST(FlightRecorderTest, SlowRequestsRetainSpansFastOnesDoNot) {
  ManualClock clock;
  FlightRecorder::Options options;
  options.capacity = 8;
  options.slow_threshold_nanos = 5'000;
  options.clock = &clock;
  FlightRecorder recorder(options);

  const uint64_t fast = recorder.Begin(MakeStart("fast", "alpha", 0));
  recorder.AddSpan(fast, "run_start");
  clock.AdvanceNanos(1'000);
  EXPECT_FALSE(
      recorder.End(fast, MakeFinish(RequestRole::kCold, "converged")).slow);

  const uint64_t slow = recorder.Begin(MakeStart("slow", "alpha", 0));
  recorder.AddSpan(slow, "run_start");
  clock.AdvanceNanos(5'000);
  recorder.AddSpan(slow, "run_end");
  EXPECT_TRUE(
      recorder.End(slow, MakeFinish(RequestRole::kCold, "converged")).slow);
  EXPECT_EQ(recorder.stats().slow, 1);

  const JsonValue snapshot = recorder.SnapshotJson(10, 10);
  const JsonValue* recent = snapshot.Find("recent");
  ASSERT_EQ(recent->size(), 2u);
  EXPECT_EQ(recent->at(0).Find("spans"), nullptr);
  const JsonValue* spans = recent->at(1).Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->size(), 2u);
  EXPECT_EQ(spans->at(0).Find("name")->string_value(), "run_start");
  EXPECT_EQ(spans->at(0).Find("at_nanos")->int_value(), 0);
  EXPECT_EQ(spans->at(1).Find("name")->string_value(), "run_end");
  EXPECT_EQ(spans->at(1).Find("at_nanos")->int_value(), 5'000);
}

TEST(FlightRecorderTest, FlagStuckReportsEachRequestOnce) {
  ManualClock clock;
  FlightRecorder::Options options;
  options.capacity = 8;
  options.clock = &clock;
  FlightRecorder recorder(options);

  // deadline 1ms; "stuck" at 4x = 4ms of age.
  const uint64_t stuck = recorder.Begin(MakeStart("stuck", "alpha", 1'000'000));
  const uint64_t unbounded = recorder.Begin(MakeStart("nolimit", "alpha", 0));

  clock.AdvanceNanos(2'000'000);
  EXPECT_TRUE(recorder.FlagStuck(clock.NowNanos(), 4.0).empty());
  EXPECT_EQ(recorder.stuck_now(), 0);

  clock.AdvanceNanos(3'000'000);  // age 5ms > 4ms
  const std::vector<ActiveSnapshot> flagged =
      recorder.FlagStuck(clock.NowNanos(), 4.0);
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0].client_request_id, "stuck");
  EXPECT_TRUE(flagged[0].flagged_stuck);
  EXPECT_EQ(recorder.stuck_now(), 1);

  // Already-flagged requests are not re-reported; requests without a
  // deadline are never flagged, however old.
  clock.AdvanceNanos(100'000'000);
  EXPECT_TRUE(recorder.FlagStuck(clock.NowNanos(), 4.0).empty());
  EXPECT_EQ(recorder.stuck_now(), 1);

  // Finishing the stuck request clears it from the active table.
  // lint: discard-ok: summary unused
  (void)recorder.End(stuck, MakeFinish(RequestRole::kCold, "converged"));
  EXPECT_EQ(recorder.stuck_now(), 0);
  // lint: discard-ok: summary unused
  (void)recorder.End(unbounded, MakeFinish(RequestRole::kCold, "converged"));
}

TEST(FlightRecorderTest, TenantsRankedByRequestsThenName) {
  ManualClock clock;
  FlightRecorder::Options options;
  options.capacity = 16;
  options.clock = &clock;
  FlightRecorder recorder(options);

  const auto run_one = [&](const std::string& tenant, int64_t nanos) {
    const uint64_t handle = recorder.Begin(MakeStart("", tenant, 0));
    clock.AdvanceNanos(nanos);
    // lint: discard-ok: summary unused
    (void)recorder.End(handle, MakeFinish(RequestRole::kCold, "converged"));
  };
  run_one("beta", 1'000);
  run_one("beta", 3'000);
  run_one("alpha", 2'000);
  run_one("gamma", 9'000);

  const JsonValue snapshot = recorder.SnapshotJson(2, 10);
  const JsonValue* tenants = snapshot.Find("tenants");
  ASSERT_NE(tenants, nullptr);
  // top_k = 2: beta (2 requests) first, then alpha/gamma tie on
  // requests broken by name — alpha wins.
  ASSERT_EQ(tenants->size(), 2u);
  EXPECT_EQ(tenants->at(0).Find("tenant")->string_value(), "beta");
  EXPECT_EQ(tenants->at(0).Find("requests")->int_value(), 2);
  EXPECT_EQ(tenants->at(0).Find("total_nanos")->int_value(), 4'000);
  EXPECT_EQ(tenants->at(0).Find("max_nanos")->int_value(), 3'000);
  EXPECT_EQ(tenants->at(1).Find("tenant")->string_value(), "alpha");
}

TEST(FlightRecorderTest, LatencyHistogramsSplitColdFromHit) {
  ManualClock clock;
  FlightRecorder::Options options;
  options.capacity = 16;
  options.clock = &clock;
  FlightRecorder recorder(options);

  const auto run_one = [&](RequestRole role, int64_t nanos,
                           const std::string& termination) {
    const uint64_t handle = recorder.Begin(MakeStart("", "alpha", 0));
    clock.AdvanceNanos(nanos);
    // lint: discard-ok: summary unused
    (void)recorder.End(handle, MakeFinish(role, termination));
  };
  run_one(RequestRole::kCold, 1'000, "converged");
  run_one(RequestRole::kLeader, 2'000, "converged");
  run_one(RequestRole::kCacheHit, 100, "cached");
  run_one(RequestRole::kFollower, 200, "coalesced");
  // Rejected requests never enter the latency histograms.
  run_one(RequestRole::kRejected, 50, "shed");

  const JsonValue snapshot = recorder.SnapshotJson(10, 10);
  const JsonValue* latency = snapshot.Find("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->Find("cold")->Find("count")->int_value(), 2);
  EXPECT_EQ(latency->Find("cold")->Find("sum_nanos")->int_value(), 3'000);
  EXPECT_EQ(latency->Find("hit")->Find("count")->int_value(), 2);
  EXPECT_EQ(latency->Find("hit")->Find("sum_nanos")->int_value(), 300);
}

TEST(FlightRecorderTest, SnapshotIsByteDeterministicAcrossThreadCounts) {
  // The same scripted request set, completed from 1 thread and from 4
  // threads, must dump byte-identical JSON: sequence numbers are
  // global and the snapshot merges shards in ascending order.
  ManualClock clock;
  clock.SetNanos(1'000);
  const auto run_with_threads = [&clock](int num_threads) {
    FlightRecorder::Options options;
    options.capacity = 64;
    options.shards = 8;
    options.clock = &clock;
    FlightRecorder recorder(options);
    std::vector<uint64_t> handles;
    for (int i = 0; i < 32; ++i) {
      handles.push_back(recorder.Begin(
          MakeStart("req-" + std::to_string(i),
                    i % 2 == 0 ? "alpha" : "beta", 0)));
    }
    std::vector<std::thread> workers;
    const int per_thread = 32 / num_threads;
    for (int t = 0; t < num_threads; ++t) {
      workers.emplace_back([&recorder, &handles, t, per_thread] {
        for (int i = t * per_thread; i < (t + 1) * per_thread; ++i) {
          RequestFinish finish;
          finish.role =
              i % 3 == 0 ? RequestRole::kCacheHit : RequestRole::kCold;
          finish.termination = i % 3 == 0 ? "cached" : "converged";
          finish.response_bytes = i;
          (void)recorder.End(handles[static_cast<size_t>(i)], finish);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    return recorder.SnapshotJson(10, 100).Dump();
  };

  const std::string single = run_with_threads(1);
  const std::string pooled = run_with_threads(4);
  EXPECT_EQ(single, pooled);
}

TEST(FlightRecorderTest, StatsNeverShowMoreCompletedThanStarted) {
  // Two writers run Begin/End back to back while this thread takes
  // snapshots; a request that begins and ends between a snapshot's two
  // reads must not make `completed` overtake `started`.
  FlightRecorder::Options options;
  options.capacity = 64;
  options.shards = 4;
  FlightRecorder recorder(options);
  constexpr int kWriters = 2;
  constexpr int kRequestsPerWriter = 20'000;
  std::atomic<int> writers_done{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&recorder, &writers_done] {
      for (int i = 0; i < kRequestsPerWriter; ++i) {
        const uint64_t handle = recorder.Begin(MakeStart("req", "alpha"));
        (void)recorder.End(handle,
                           MakeFinish(RequestRole::kCold, "converged"));
      }
      writers_done.fetch_add(1);
    });
  }
  int64_t snapshots = 0;
  int64_t torn = 0;
  while (writers_done.load() < kWriters) {
    const FlightRecorderStats stats = recorder.stats();
    if (stats.completed > stats.started) ++torn;
    ++snapshots;
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(torn, 0) << "of " << snapshots << " snapshots";
  const FlightRecorderStats final_stats = recorder.stats();
  EXPECT_EQ(final_stats.started, kWriters * kRequestsPerWriter);
  EXPECT_EQ(final_stats.completed, kWriters * kRequestsPerWriter);
}

}  // namespace
}  // namespace obs
}  // namespace corrob
