#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/failpoint.h"
#include "common/socket.h"
#include "data/dataset_io.h"
#include "data/motivating_example.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "server/client.h"
#include "server/frame.h"
#include "server/protocol.h"
#include "server/server.h"

// Live-introspection tests: the 0x06/0x89 frame pair, the flight
// recorder's determinism contract, request-id echo (protocol v3), the
// stuck-request watchdog, and snapshot integrity under concurrent
// load. Deterministic in-flight control comes from the
// server.request.stall_hard failpoint, never from timing guesses.

namespace corrob {
namespace server {
namespace {

StopSignal NoStop() { return StopSignal(); }

template <typename Predicate>
bool EventuallyTrue(Predicate predicate) {
  CancellationToken pacer;
  for (int i = 0; i < 400; ++i) {
    if (predicate()) return true;
    // lint: discard-ok: plain sleep; the token is never cancelled
    (void)pacer.WaitForMs(5.0);
  }
  return predicate();
}

/// A corrobd serving the motivating example on its own socket, with
/// Serve() on a background thread and drain-on-destruction.
class Daemon {
 public:
  explicit Daemon(ServerOptions options) : options_(std::move(options)) {}

  ~Daemon() {
    drain_.Cancel();
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] Status Launch() {
    server_ = std::make_unique<CorrobdServer>(options_);
    CORROB_RETURN_NOT_OK(server_->Start());
    thread_ = std::thread([this] { serve_status_ = server_->Serve(&drain_); });
    return Status::OK();
  }

  Status Drain() {
    drain_.Cancel();
    if (thread_.joinable()) thread_.join();
    return serve_status_;
  }

  CorrobdServer& server() { return *server_; }

 private:
  ServerOptions options_;
  std::unique_ptr<CorrobdServer> server_;
  CancellationToken drain_;
  std::thread thread_;
  Status serve_status_;
};

class IntrospectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string stem =
        ::testing::TempDir() + "/introspect_" + info->name();
    csv_path_ = stem + ".csv";
    socket_path_ = stem + ".sock";
    const MotivatingExample example = MakeMotivatingExample();
    ASSERT_TRUE(SaveDatasetCsv(csv_path_, example.dataset).ok());
  }

  void TearDown() override { Failpoints::DisarmAll(); }

  ServerOptions BaseOptions() const {
    ServerOptions options;
    options.socket_path = socket_path_;
    options.dataset_specs = {"table1=" + csv_path_};
    options.drain_timeout_ms = 10000;
    return options;
  }

  Result<CorrobClient> Connect() const {
    return CorrobClient::Connect(socket_path_);
  }

  /// Fetches and parses the introspection document.
  Result<obs::JsonValue> FetchIntrospect(CorrobClient* client,
                                         uint32_t top_k = 10,
                                         uint32_t max_recent = 100) const {
    IntrospectRequest request;
    request.top_k = top_k;
    request.max_recent = max_recent;
    CORROB_ASSIGN_OR_RETURN(std::string payload,
                            client->Introspect(request, NoStop()));
    obs::JsonValue doc;
    std::string error;
    if (!obs::JsonValue::Parse(payload, &doc, &error)) {
      return Status::ParseError("bad introspect JSON: " + error);
    }
    return doc;
  }

  std::string csv_path_;
  std::string socket_path_;
};

TEST_F(IntrospectTest, IntrospectReportsSchemaActiveAndRecorder) {
  ServerOptions options = BaseOptions();
  options.cache.capacity_entries = 16;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  CorroborateRequest request;
  request.dataset = "table1";
  request.request_id = "intro-1";
  Result<CorroborateOutcome> outcome =
      client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);

  Result<obs::JsonValue> doc = FetchIntrospect(&client.ValueOrDie());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue& introspect = doc.ValueOrDie();
  EXPECT_EQ(introspect.Find("schema")->string_value(), "corrob.introspect/1");
  // The corroborate request completed before the introspect was read:
  // the active table is empty, the ring holds the one record.
  EXPECT_EQ(introspect.Find("active")->size(), 0u);
  const obs::JsonValue* recorder = introspect.Find("recorder");
  ASSERT_NE(recorder, nullptr);
  ASSERT_EQ(recorder->Find("recent")->size(), 1u);
  const obs::JsonValue& record = recorder->Find("recent")->at(0);
  EXPECT_EQ(record.Find("id")->string_value(), "intro-1");
  EXPECT_EQ(record.Find("dataset")->string_value(), "table1");
  EXPECT_EQ(record.Find("priority")->string_value(), "batch");
  // Watchdog and metrics blocks ride along.
  ASSERT_NE(introspect.Find("watchdog"), nullptr);
  EXPECT_TRUE(introspect.Find("watchdog")->Find("stuck")->int_value() == 0);
  ASSERT_NE(introspect.Find("metrics"), nullptr);
  EXPECT_TRUE(introspect.Find("metrics")->Find("counters") != nullptr);
}

TEST_F(IntrospectTest, MalformedIntrospectPayloadGetsTypedError) {
  Daemon daemon(BaseOptions());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = Connect();
  ASSERT_TRUE(client.ok());

  Frame wire;
  wire.type = FrameType::kIntrospectRequest;
  wire.payload = "\x01garbage";  // version 1 is below the v3 floor
  ASSERT_TRUE(WriteFrame(client.ValueOrDie().fd(), wire, NoStop()).ok());
  Result<WireFrame> response = ReadFrame(client.ValueOrDie().fd(), NoStop());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.ValueOrDie().type, FrameType::kErrorResponse);
}

TEST_F(IntrospectTest, RequestIdEchoedOnResultCacheHitAndError) {
  ServerOptions options = BaseOptions();
  options.cache.capacity_entries = 16;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = Connect();
  ASSERT_TRUE(client.ok());

  CorroborateRequest request;
  request.dataset = "table1";
  request.request_id = "echo-cold";
  Result<CorroborateOutcome> cold =
      client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  EXPECT_EQ(cold.ValueOrDie().result.request_id, "echo-cold");

  // The replay serves the SAME canonical bytes but must echo THIS
  // request's id: the id is spliced onto the response, never cached.
  request.request_id = "echo-hit";
  Result<CorroborateOutcome> hit =
      client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  EXPECT_EQ(hit.ValueOrDie().result.request_id, "echo-hit");
  EXPECT_EQ(hit.ValueOrDie().result.fact_probability,
            cold.ValueOrDie().result.fact_probability);

  CorroborateRequest bad;
  bad.dataset = "no-such-dataset";
  bad.request_id = "echo-error";
  Result<CorroborateOutcome> error =
      client.ValueOrDie().Corroborate(bad, NoStop());
  ASSERT_TRUE(error.ok());
  ASSERT_EQ(error.ValueOrDie().kind, CorroborateOutcome::Kind::kError);
  EXPECT_EQ(error.ValueOrDie().error.request_id, "echo-error");

  // Requests without an id round-trip byte-identically to v1 clients:
  // the recorder ring shows them with an empty id.
  CorroborateRequest anonymous;
  anonymous.dataset = "table1";
  Result<CorroborateOutcome> plain =
      client.ValueOrDie().Corroborate(anonymous, NoStop());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.ValueOrDie().result.request_id, "");
}

TEST_F(IntrospectTest, RecorderSnapshotIsByteIdenticalAcrossRunThreads) {
  // The acceptance bar: under a ManualClock, a scripted request
  // sequence produces a bit-identical flight-recorder JSON subtree
  // whether the daemon runs 1 worker thread or 4, and the active
  // table is empty at quiesce. (The metrics dump is process-global
  // and excluded; only the "recorder" subtree is compared.)
  obs::ManualClock clock;
  clock.SetNanos(1'000);
  const auto run_script = [&](int run_threads) -> std::string {
    ServerOptions options = BaseOptions();
    options.run_threads = run_threads;
    options.cache.capacity_entries = 16;
    options.clock = &clock;
    Daemon daemon(options);
    if (!daemon.Launch().ok()) return "launch failed";
    Result<CorrobClient> client = Connect();
    if (!client.ok()) return "connect failed";

    // The script: a cold run, a cache hit on the same key, a second
    // cold key, an error, tenants alternating.
    CorroborateRequest request;
    request.dataset = "table1";
    for (int i = 0; i < 8; ++i) {
      request.request_id = "script-" + std::to_string(i);
      request.tenant = i % 2 == 0 ? "alpha" : "beta";
      request.options.clear();
      if (i >= 6) {
        // A distinct cache key for the tail: two cold runs.
        request.options = {{"script_key", std::to_string(i)}};
      }
      if (!client.ValueOrDie().Corroborate(request, NoStop()).ok()) {
        return "corroborate failed";
      }
    }
    CorroborateRequest bad;
    bad.dataset = "no-such-dataset";
    bad.request_id = "script-err";
    bad.tenant = "alpha";
    if (!client.ValueOrDie().Corroborate(bad, NoStop()).ok()) {
      return "error request failed";
    }

    IntrospectRequest introspect_request;
    introspect_request.top_k = 10;
    introspect_request.max_recent = 100;
    Result<std::string> payload =
        client.ValueOrDie().Introspect(introspect_request, NoStop());
    if (!payload.ok()) return "introspect failed";
    obs::JsonValue doc;
    if (!obs::JsonValue::Parse(payload.ValueOrDie(), &doc)) {
      return "parse failed";
    }
    EXPECT_EQ(doc.Find("active")->size(), 0u);
    return doc.Find("recorder")->Dump();
  };

  const std::string single = run_script(1);
  const std::string pooled = run_script(4);
  ASSERT_NE(single, "launch failed");
  EXPECT_EQ(single, pooled);
  // Sanity: the subtree really carries the script.
  EXPECT_NE(single.find("script-0"), std::string::npos);
  EXPECT_NE(single.find("script-err"), std::string::npos);
  EXPECT_NE(single.find("cache_hit"), std::string::npos);
  EXPECT_NE(single.find("rejected"), std::string::npos);
}

TEST_F(IntrospectTest, WatchdogFlagsStuckRequestAndRecoversOnRelease) {
  ServerOptions options = BaseOptions();
  options.watchdog_interval_ms = 10;
  options.watchdog_deadline_multiplier = 1.0;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.Launch().ok());

  Failpoints::Arm("server.request.stall_hard",
                  {.code = StatusCode::kInternal, .message = "stall"});
  Result<CorrobClient> stuck_client = Connect();
  ASSERT_TRUE(stuck_client.ok());
  Result<CorroborateOutcome> held = Status::Internal("not yet run");
  std::thread holder([&] {
    CorroborateRequest request;
    request.dataset = "table1";
    request.request_id = "wedged";
    request.timeout_ms = 5;  // allowance 5ms; stall_hard ignores it
    held = stuck_client.ValueOrDie().Corroborate(request, NoStop());
  });

  // The watchdog must flag the wedged request: visible in the active
  // table and in the corrob.server.watchdog.* accounting.
  Result<CorrobClient> observer = Connect();
  ASSERT_TRUE(observer.ok());
  ASSERT_TRUE(EventuallyTrue([&] {
    Result<obs::JsonValue> doc = FetchIntrospect(&observer.ValueOrDie());
    if (!doc.ok()) return false;
    const obs::JsonValue* active = doc.ValueOrDie().Find("active");
    if (active == nullptr || active->size() != 1) return false;
    const obs::JsonValue& row = active->at(0);
    return row.Find("id")->string_value() == "wedged" &&
           row.Find("flagged")->bool_value();
  }));
  Result<obs::JsonValue> flagged_doc =
      FetchIntrospect(&observer.ValueOrDie());
  ASSERT_TRUE(flagged_doc.ok());
  const obs::JsonValue* watchdog = flagged_doc.ValueOrDie().Find("watchdog");
  ASSERT_NE(watchdog, nullptr);
  EXPECT_GE(watchdog->Find("scans")->int_value(), 1);
  EXPECT_GE(watchdog->Find("flagged")->int_value(), 1);
  EXPECT_EQ(watchdog->Find("stuck")->int_value(), 1);

  // Releasing the failpoint lets the request finish; the stuck gauge
  // returns to zero and the record lands in the ring.
  Failpoints::Disarm("server.request.stall_hard");
  holder.join();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  Result<obs::JsonValue> after = FetchIntrospect(&observer.ValueOrDie());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueOrDie().Find("active")->size(), 0u);
  EXPECT_EQ(after.ValueOrDie().Find("watchdog")->Find("stuck")->int_value(),
            0);
}

TEST_F(IntrospectTest, SnapshotsNeverTearUnderConcurrentLoad) {
  // 4 worker threads mutate every counter the snapshots read while
  // the main thread alternates stats and introspect fetches: each
  // snapshot must parse, carry its schema, keep `recent` in ascending
  // sequence order, and the recorder counters must be monotone from
  // one snapshot to the next.
  ServerOptions options = BaseOptions();
  options.cache.capacity_entries = 16;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.Launch().ok());

  constexpr int kWorkers = 4;
  constexpr int kRequestsPerWorker = 40;
  std::atomic<int> completed{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      Result<CorrobClient> client = Connect();
      if (!client.ok()) return;
      CorroborateRequest request;
      request.dataset = "table1";
      for (int i = 0; i < kRequestsPerWorker; ++i) {
        request.request_id =
            "w" + std::to_string(w) + "-" + std::to_string(i);
        request.tenant = "tenant" + std::to_string(w);
        request.options = {{"key", std::to_string(i % 4)}};
        if (client.ValueOrDie().Corroborate(request, NoStop()).ok()) {
          completed.fetch_add(1);
        }
      }
    });
  }

  Result<CorrobClient> observer = Connect();
  ASSERT_TRUE(observer.ok());
  int64_t last_started = 0;
  int64_t last_completed = 0;
  int snapshots = 0;
  while (completed.load() < kWorkers * kRequestsPerWorker) {
    Result<obs::JsonValue> doc = FetchIntrospect(&observer.ValueOrDie());
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    const obs::JsonValue& introspect = doc.ValueOrDie();
    ASSERT_EQ(introspect.Find("schema")->string_value(),
              "corrob.introspect/1");
    const obs::JsonValue* recorder = introspect.Find("recorder");
    ASSERT_NE(recorder, nullptr);
    const int64_t started = recorder->Find("started")->int_value();
    const int64_t finished = recorder->Find("completed")->int_value();
    ASSERT_GE(started, finished);
    ASSERT_GE(started, last_started) << "started went backwards";
    ASSERT_GE(finished, last_completed) << "completed went backwards";
    last_started = started;
    last_completed = finished;
    int64_t last_seq = 0;
    for (const obs::JsonValue& row : recorder->Find("recent")->items()) {
      const int64_t seq = row.Find("seq")->int_value();
      ASSERT_GT(seq, last_seq) << "recent ring out of order";
      last_seq = seq;
    }
    // Stats must stay parseable concurrently too.
    Result<std::string> stats = observer.ValueOrDie().Stats(NoStop());
    ASSERT_TRUE(stats.ok());
    obs::JsonValue stats_doc;
    ASSERT_TRUE(obs::JsonValue::Parse(stats.ValueOrDie(), &stats_doc));
    ASSERT_GE(stats_doc.Find("recorder")->Find("started")->int_value(),
              last_started);
    ++snapshots;
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_GT(snapshots, 0);

  // Quiesce: everything started has completed and the ring agrees.
  Result<obs::JsonValue> final_doc = FetchIntrospect(&observer.ValueOrDie());
  ASSERT_TRUE(final_doc.ok());
  const obs::JsonValue* recorder = final_doc.ValueOrDie().Find("recorder");
  EXPECT_EQ(recorder->Find("started")->int_value(),
            recorder->Find("completed")->int_value());
  EXPECT_EQ(final_doc.ValueOrDie().Find("active")->size(), 0u);
}

}  // namespace
}  // namespace server
}  // namespace corrob
