#include "server/server.h"

#include <sys/socket.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/failpoint.h"
#include "common/socket.h"
#include "core/registry.h"
#include "core/run_context.h"
#include "data/dataset_io.h"
#include "data/motivating_example.h"
#include "server/client.h"
#include "server/frame.h"
#include "server/protocol.h"

// End-to-end corrobd tests: a daemon per test on a private socket in
// TempDir, driven through CorrobClient. Deterministic in-flight
// control comes from the server.request.stall / server.request.fail
// failpoints, never from timing guesses.

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

  /// Requests drain and waits for Serve() to return.
  Status Drain() {
    drain_.Cancel();
    if (thread_.joinable()) thread_.join();
    return serve_status_;
  }

  CorrobdServer& server() { return *server_; }
  CancellationToken& drain_token() { return drain_; }

 private:
  ServerOptions options_;
  std::unique_ptr<CorrobdServer> server_;
  CancellationToken drain_;
  std::thread thread_;
  Status serve_status_;
};

class CorrobdServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string stem =
        ::testing::TempDir() + "/corrobd_" + info->name();
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

  std::string csv_path_;
  std::string socket_path_;
};

TEST_F(CorrobdServerTest, StartRejectsBadConfigurations) {
  {
    ServerOptions options = BaseOptions();
    options.dataset_specs = {"missing=" + csv_path_ + ".does-not-exist"};
    CorrobdServer server(options);
    EXPECT_EQ(server.Start().code(), StatusCode::kNotFound);
  }
  {
    ServerOptions options = BaseOptions();
    options.dataset_specs = {"table1=" + csv_path_, "table1=" + csv_path_};
    CorrobdServer server(options);
    EXPECT_EQ(server.Start().code(), StatusCode::kAlreadyExists);
  }
  {
    ServerOptions options = BaseOptions();
    options.dataset_specs.clear();
    CorrobdServer server(options);
    EXPECT_EQ(server.Start().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(CorrobdServerTest, BareDatasetPathIsServedUnderItsStem) {
  ServerOptions options = BaseOptions();
  options.dataset_specs = {csv_path_};
  CorrobdServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const std::vector<std::string> names = server.dataset_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_NE(names[0].find("corrobd_"), std::string::npos);
  EXPECT_EQ(names[0].find(".csv"), std::string::npos);
}

TEST_F(CorrobdServerTest, PingEchoesAndStatsReportSchema) {
  Daemon daemon(BaseOptions());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Result<std::string> pong =
      client.ValueOrDie().Ping("are you there", NoStop());
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong.ValueOrDie(), "are you there");

  Result<std::string> stats = client.ValueOrDie().Stats(NoStop());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats.ValueOrDie().find("corrob.serving_stats/4"),
            std::string::npos);
  EXPECT_NE(stats.ValueOrDie().find("table1"), std::string::npos);
  // The serving-efficiency layer reports its own stats objects.
  EXPECT_NE(stats.ValueOrDie().find("\"cache\""), std::string::npos);
  EXPECT_NE(stats.ValueOrDie().find("\"coalesce\""), std::string::npos);
  EXPECT_NE(stats.ValueOrDie().find("\"quota\""), std::string::npos);
  // The introspection layer summarizes itself in stats too.
  EXPECT_NE(stats.ValueOrDie().find("\"recorder\""), std::string::npos);
  EXPECT_NE(stats.ValueOrDie().find("\"watchdog\""), std::string::npos);

  EXPECT_TRUE(daemon.Drain().ok());
  EXPECT_EQ(daemon.server().responses_sent(), 2);
}

TEST_F(CorrobdServerTest, CorroborateMatchesDirectRunBitExact) {
  Daemon daemon(BaseOptions());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = Connect();
  ASSERT_TRUE(client.ok());

  CorroborateRequest request;
  request.dataset = "table1";
  request.algorithm = "IncEstHeu";
  Result<CorroborateOutcome> outcome =
      client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  const CorroborateResponse& served = outcome.ValueOrDie().result;

  // The daemon must agree, bit for bit, with running the same
  // algorithm in-process on the same CSV.
  Result<LabeledDataset> loaded = LoadDatasetCsv(csv_path_);
  ASSERT_TRUE(loaded.ok());
  Result<std::unique_ptr<Corroborator>> direct =
      MakeCorroborator("IncEstHeu", CorroboratorOptions{.num_threads = 1});
  ASSERT_TRUE(direct.ok());
  Result<CorroborationResult> run =
      direct.ValueOrDie()->Run(loaded.ValueOrDie().dataset);
  ASSERT_TRUE(run.ok());

  EXPECT_EQ(served.algorithm, run.ValueOrDie().algorithm);
  EXPECT_EQ(served.iterations,
            static_cast<uint32_t>(run.ValueOrDie().iterations));
  EXPECT_EQ(served.fact_probability, run.ValueOrDie().fact_probability);
  EXPECT_EQ(served.source_trust, run.ValueOrDie().source_trust);
  EXPECT_FALSE(TerminatedEarly(
      static_cast<Termination>(served.termination)));
}

TEST_F(CorrobdServerTest, UnknownDatasetIsNotFoundAndConnectionSurvives) {
  Daemon daemon(BaseOptions());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = Connect();
  ASSERT_TRUE(client.ok());

  CorroborateRequest request;
  request.dataset = "no-such-table";
  Result<CorroborateOutcome> outcome =
      client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome.ValueOrDie().kind, CorroborateOutcome::Kind::kError);
  EXPECT_EQ(outcome.ValueOrDie().error.code,
            static_cast<uint8_t>(StatusCode::kNotFound));

  // Same connection, correct dataset: the request-level failure left
  // the stream frame-aligned and the daemon healthy.
  request.dataset = "table1";
  Result<CorroborateOutcome> retry =
      client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
}

TEST_F(CorrobdServerTest, UnknownAlgorithmIsTypedError) {
  Daemon daemon(BaseOptions());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = Connect();
  ASSERT_TRUE(client.ok());

  CorroborateRequest request;
  request.dataset = "table1";
  request.algorithm = "NotAnAlgorithm";
  Result<CorroborateOutcome> outcome =
      client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.ValueOrDie().kind, CorroborateOutcome::Kind::kError);
  EXPECT_EQ(outcome.ValueOrDie().error.code,
            static_cast<uint8_t>(StatusCode::kNotFound));
  EXPECT_NE(outcome.ValueOrDie().error.message.find("NotAnAlgorithm"),
            std::string::npos);
}

TEST_F(CorrobdServerTest, MalformedPayloadIsParseErrorAndStreamSurvives) {
  Daemon daemon(BaseOptions());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = Connect();
  ASSERT_TRUE(client.ok());

  // A well-framed corroborate request whose payload is empty: the
  // frame layer accepts it, the payload codec must reject it in-band.
  Frame bad;
  bad.type = FrameType::kCorroborateRequest;
  ASSERT_TRUE(WriteFrame(client.ValueOrDie().fd(), bad, NoStop()).ok());
  Result<WireFrame> reply = ReadFrame(client.ValueOrDie().fd(), NoStop());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.ValueOrDie().type, FrameType::kErrorResponse);
  Result<ErrorResponse> error =
      DecodeErrorResponse(reply.ValueOrDie().payload());
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error.ValueOrDie().code,
            static_cast<uint8_t>(StatusCode::kParseError));

  // The stream stayed frame-aligned: the next request works.
  Result<std::string> pong = client.ValueOrDie().Ping("still here", NoStop());
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong.ValueOrDie(), "still here");
}

TEST_F(CorrobdServerTest, GarbageStreamGetsTypedErrorThenCloseNotCrash) {
  Daemon daemon(BaseOptions());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = Connect();
  ASSERT_TRUE(client.ok());

  // Raw garbage desyncs the framing: the daemon answers with a typed
  // error, then hangs up (the stream cannot be trusted any more).
  const std::string garbage(32, '\x5A');
  ASSERT_EQ(::send(client.ValueOrDie().fd(), garbage.data(), garbage.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));
  Result<WireFrame> reply = ReadFrame(client.ValueOrDie().fd(), NoStop());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.ValueOrDie().type, FrameType::kErrorResponse);
  // The server closes with unread garbage still buffered, which the
  // kernel may surface as a clean EOF or a reset; either way no
  // further frame arrives.
  Result<std::optional<WireFrame>> eof =
      ReadFrameOrEof(client.ValueOrDie().fd(), NoStop());
  if (eof.ok()) {
    EXPECT_FALSE(eof.ValueOrDie().has_value());
  } else {
    EXPECT_EQ(eof.status().code(), StatusCode::kIoError);
  }

  // The daemon survived and accepts fresh connections.
  Result<CorrobClient> fresh = Connect();
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh.ValueOrDie().Ping("hello", NoStop()).ok());
}

TEST_F(CorrobdServerTest, RequestFailpointIsTypedErrorAndDaemonSurvives) {
  Daemon daemon(BaseOptions());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = Connect();
  ASSERT_TRUE(client.ok());

  Failpoints::Arm("server.request.fail",
                  {.code = StatusCode::kInternal,
                   .message = "injected request fault"});
  CorroborateRequest request;
  request.dataset = "table1";
  Result<CorroborateOutcome> outcome =
      client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome.ValueOrDie().kind, CorroborateOutcome::Kind::kError);
  EXPECT_EQ(outcome.ValueOrDie().error.code,
            static_cast<uint8_t>(StatusCode::kInternal));
  EXPECT_EQ(outcome.ValueOrDie().error.message, "injected request fault");

  Failpoints::DisarmAll();
  Result<CorroborateOutcome> retry =
      client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
}

TEST_F(CorrobdServerTest, OverloadShedsWithRetryHintAndSlotHolderFinishes) {
  ServerOptions options = BaseOptions();
  options.admission.max_concurrency = 1;
  options.admission.queue_capacity = {0, 0, 0};
  Daemon daemon(options);
  ASSERT_TRUE(daemon.Launch().ok());

  Failpoints::Arm("server.request.stall",
                  {.code = StatusCode::kInternal, .message = "stall"});
  Result<CorrobClient> holder = Connect();
  ASSERT_TRUE(holder.ok());
  Result<CorroborateOutcome> held = Status::Internal("not yet run");
  std::thread holder_thread([&] {
    CorroborateRequest request;
    request.dataset = "table1";
    held = holder.ValueOrDie().Corroborate(request, NoStop());
  });
  ASSERT_TRUE(EventuallyTrue(
      [&] { return daemon.server().admission().running() == 1; }));

  // The slot is held and the queue has no room: the second request
  // must be shed immediately with a structured retry hint.
  Result<CorrobClient> shed_client = Connect();
  ASSERT_TRUE(shed_client.ok());
  CorroborateRequest request;
  request.dataset = "table1";
  Result<CorroborateOutcome> shed =
      shed_client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  ASSERT_EQ(shed.ValueOrDie().kind, CorroborateOutcome::Kind::kOverloaded);
  EXPECT_GE(shed.ValueOrDie().overloaded.retry_after_ms, 25u);
  EXPECT_LE(shed.ValueOrDie().overloaded.retry_after_ms, 60000u);
  EXPECT_NE(shed.ValueOrDie().overloaded.message.find("batch"),
            std::string::npos);

  // Being shed never disturbs the request holding the slot.
  Failpoints::DisarmAll();
  holder_thread.join();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(held.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
}

TEST_F(CorrobdServerTest, ClientDisconnectCancelsOnlyThatRequest) {
  ServerOptions options = BaseOptions();
  options.admission.max_concurrency = 2;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.Launch().ok());

  Failpoints::Arm("server.request.stall",
                  {.code = StatusCode::kInternal, .message = "stall"});
  Result<CorrobClient> doomed = Connect();
  Result<CorrobClient> survivor = Connect();
  ASSERT_TRUE(doomed.ok());
  ASSERT_TRUE(survivor.ok());

  CorroborateRequest request;
  request.dataset = "table1";
  // The doomed request never reads its response; fire-and-forget the
  // request frame, then vanish mid-execution.
  Frame doomed_frame;
  doomed_frame.type = FrameType::kCorroborateRequest;
  doomed_frame.payload = EncodeCorroborateRequest(request);
  ASSERT_TRUE(
      WriteFrame(doomed.ValueOrDie().fd(), doomed_frame, NoStop()).ok());

  Result<CorroborateOutcome> survived = Status::Internal("not yet run");
  std::thread survivor_thread([&] {
    survived = survivor.ValueOrDie().Corroborate(request, NoStop());
  });
  ASSERT_TRUE(EventuallyTrue(
      [&] { return daemon.server().admission().running() == 2; }));

  // Disconnect: the watcher must cancel the doomed request's token
  // and free its slot while the survivor keeps executing.
  // lint: discard-ok: Close() returns void; only the side effect matters
  doomed.ValueOrDie().Close();
  ASSERT_TRUE(EventuallyTrue(
      [&] { return daemon.server().admission().running() == 1; }));

  Failpoints::DisarmAll();
  survivor_thread.join();
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  ASSERT_EQ(survived.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  // The survivor was untouched by its neighbour's cancellation.
  EXPECT_FALSE(TerminatedEarly(
      static_cast<Termination>(survived.ValueOrDie().result.termination)));
}

TEST_F(CorrobdServerTest, DrainFinishesInFlightBitIdenticalToFreshDaemon) {
  CorroborateRequest request;
  request.dataset = "table1";

  // Reference bytes: the same request against an undisturbed daemon.
  std::string fresh_frame;
  {
    ServerOptions options = BaseOptions();
    options.socket_path = socket_path_ + ".fresh";
    Daemon daemon(options);
    ASSERT_TRUE(daemon.Launch().ok());
    Result<CorrobClient> client =
        CorrobClient::Connect(options.socket_path);
    ASSERT_TRUE(client.ok());
    Result<CorroborateOutcome> outcome =
        client.ValueOrDie().Corroborate(request, NoStop());
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
    fresh_frame = outcome.ValueOrDie().raw_frame;
  }
  ASSERT_FALSE(fresh_frame.empty());

  // Now the same request caught mid-flight by a drain: it must finish
  // and answer with exactly the same bytes.
  Daemon daemon(BaseOptions());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = Connect();
  ASSERT_TRUE(client.ok());

  Failpoints::Arm("server.request.stall",
                  {.code = StatusCode::kInternal, .message = "stall"});
  Result<CorroborateOutcome> outcome = Status::Internal("not yet run");
  std::thread in_flight([&] {
    outcome = client.ValueOrDie().Corroborate(request, NoStop());
  });
  ASSERT_TRUE(EventuallyTrue(
      [&] { return daemon.server().admission().running() == 1; }));

  daemon.drain_token().Cancel();
  Failpoints::DisarmAll();
  in_flight.join();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  EXPECT_EQ(outcome.ValueOrDie().raw_frame, fresh_frame);
  EXPECT_TRUE(daemon.Drain().ok());
  EXPECT_EQ(daemon.server().responses_sent(), 1);
}

TEST_F(CorrobdServerTest, DeadlineExpiryYieldsGracefulEarlyStopResponse) {
  Daemon daemon(BaseOptions());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = Connect();
  ASSERT_TRUE(client.ok());

  // Stall the request past its own deadline: it must still answer —
  // with a graceful deadline_exceeded result, not silence or a crash.
  Failpoints::Arm("server.request.stall",
                  {.code = StatusCode::kInternal, .message = "stall"});
  CorroborateRequest request;
  request.dataset = "table1";
  request.timeout_ms = 60;
  Result<CorroborateOutcome> outcome =
      client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  EXPECT_EQ(static_cast<Termination>(outcome.ValueOrDie().result.termination),
            Termination::kDeadlineExceeded);
}

TEST_F(CorrobdServerTest, DrainExpiryCancelsStragglersButStillAnswers) {
  ServerOptions options = BaseOptions();
  options.drain_timeout_ms = 100;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = Connect();
  ASSERT_TRUE(client.ok());

  // A request with no deadline of its own, stalled forever: only the
  // drain deadline's abort can unstick it, and even then it answers.
  Failpoints::Arm("server.request.stall",
                  {.code = StatusCode::kInternal, .message = "stall"});
  CorroborateRequest request;
  request.dataset = "table1";
  request.timeout_ms = 0;
  request.priority = Priority::kBestEffort;  // default timeout 120s
  Result<CorroborateOutcome> outcome = Status::Internal("not yet run");
  std::thread in_flight([&] {
    outcome = client.ValueOrDie().Corroborate(request, NoStop());
  });
  ASSERT_TRUE(EventuallyTrue(
      [&] { return daemon.server().admission().running() == 1; }));

  EXPECT_TRUE(daemon.Drain().ok());
  in_flight.join();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  EXPECT_EQ(static_cast<Termination>(outcome.ValueOrDie().result.termination),
            Termination::kCancelled);
}

TEST_F(CorrobdServerTest, CacheHitReplaysAndCountsOneHit) {
  Daemon daemon(BaseOptions());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = Connect();
  ASSERT_TRUE(client.ok());

  CorroborateRequest request;
  request.dataset = "table1";
  Result<CorroborateOutcome> cold =
      client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  Result<CorroborateOutcome> warm =
      client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);

  EXPECT_EQ(warm.ValueOrDie().raw_frame, cold.ValueOrDie().raw_frame);
  const CacheStats stats = daemon.server().cache().stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_TRUE(daemon.Drain().ok());
  EXPECT_EQ(daemon.server().responses_sent(), 2);
}

TEST_F(CorrobdServerTest, RateQuotaShedsWithTypedRetryAfter) {
  ServerOptions options = BaseOptions();
  // 0.1 qps: the one burst token refills over ten seconds, far beyond
  // any sanitizer-slowed run, so the second request deterministically
  // finds the bucket empty.
  options.tenant_overrides = {
      {"metered", TenantLimits{.qps = 0.1, .burst = 1.0}}};
  Daemon daemon(options);
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = Connect();
  ASSERT_TRUE(client.ok());

  CorroborateRequest request;
  request.dataset = "table1";
  request.tenant = "metered";
  Result<CorroborateOutcome> first =
      client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);

  // The second request lands inside the same one-token second; it is
  // rejected BEFORE the cache could answer it — quota protects the
  // daemon's fairness contract, not just its CPU.
  Result<CorroborateOutcome> second =
      client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second.ValueOrDie().kind,
            CorroborateOutcome::Kind::kQuotaExceeded);
  EXPECT_GE(second.ValueOrDie().quota.retry_after_ms, 1u);
  EXPECT_LE(second.ValueOrDie().quota.retry_after_ms, 10000u);
  EXPECT_EQ(second.ValueOrDie().quota.tenant, "metered");
  EXPECT_NE(second.ValueOrDie().quota.message.find("rate limit"),
            std::string::npos);
  EXPECT_EQ(daemon.server().quotas().stats().rate_rejections, 1);

  // Other tenants are untouched by the metered tenant's exhaustion.
  request.tenant.clear();
  Result<CorroborateOutcome> anonymous =
      client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_TRUE(anonymous.ok());
  EXPECT_EQ(anonymous.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
}

TEST_F(CorrobdServerTest, SlotQuotaShedsConcurrentTenantRuns) {
  ServerOptions options = BaseOptions();
  options.tenant_overrides = {
      {"slotted", TenantLimits{.concurrent_slots = 1}}};
  Daemon daemon(options);
  ASSERT_TRUE(daemon.Launch().ok());

  Failpoints::Arm("server.request.stall",
                  {.code = StatusCode::kInternal, .message = "stall"});
  Result<CorrobClient> holder = Connect();
  ASSERT_TRUE(holder.ok());
  Result<CorroborateOutcome> held = Status::Internal("not yet run");
  std::thread holder_thread([&] {
    CorroborateRequest request;
    request.dataset = "table1";
    request.tenant = "slotted";
    request.options = {{"k", "1"}};
    held = holder.ValueOrDie().Corroborate(request, NoStop());
  });
  ASSERT_TRUE(EventuallyTrue(
      [&] { return daemon.server().admission().running() == 1; }));

  // Different options → different cache key, so the second request
  // cannot ride the cache or the coalescer; it needs a run slot the
  // tenant does not have.
  Result<CorrobClient> second_client = Connect();
  ASSERT_TRUE(second_client.ok());
  CorroborateRequest request;
  request.dataset = "table1";
  request.tenant = "slotted";
  request.options = {{"k", "2"}};
  Result<CorroborateOutcome> rejected =
      second_client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  ASSERT_EQ(rejected.ValueOrDie().kind,
            CorroborateOutcome::Kind::kQuotaExceeded);
  EXPECT_EQ(rejected.ValueOrDie().quota.retry_after_ms, 100u);
  EXPECT_NE(rejected.ValueOrDie().quota.message.find("concurrent"),
            std::string::npos);
  EXPECT_EQ(daemon.server().quotas().stats().slot_rejections, 1);

  Failpoints::DisarmAll();
  holder_thread.join();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(held.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
}

TEST_F(CorrobdServerTest, BatchReportsPerItemStatuses) {
  Daemon daemon(BaseOptions());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = Connect();
  ASSERT_TRUE(client.ok());

  BatchRequest batch;
  batch.items.resize(2);
  batch.items[0].dataset = "table1";
  batch.items[1].dataset = "no-such-table";
  Result<std::vector<CorroborateOutcome>> outcomes =
      client.ValueOrDie().BatchCorroborate(batch, NoStop());
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes.ValueOrDie().size(), 2u);
  EXPECT_EQ(outcomes.ValueOrDie()[0].kind,
            CorroborateOutcome::Kind::kResult);
  ASSERT_EQ(outcomes.ValueOrDie()[1].kind, CorroborateOutcome::Kind::kError);
  EXPECT_EQ(outcomes.ValueOrDie()[1].error.code,
            static_cast<uint8_t>(StatusCode::kNotFound));

  // One frame went over the wire, and the good item's standalone
  // framing matches an actual standalone request (a cache hit now).
  // The daemon counts a response only after its write returns, which
  // can trail the client's read, so wait for the count to land.
  EXPECT_TRUE(EventuallyTrue(
      [&] { return daemon.server().responses_sent() >= 1; }));
  EXPECT_EQ(daemon.server().responses_sent(), 1);
  CorroborateRequest standalone;
  standalone.dataset = "table1";
  Result<CorroborateOutcome> reference =
      client.ValueOrDie().Corroborate(standalone, NoStop());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(outcomes.ValueOrDie()[0].raw_frame,
            reference.ValueOrDie().raw_frame);
}

TEST_F(CorrobdServerTest, BatchRateChargeIsAllOrNothing) {
  ServerOptions options = BaseOptions();
  options.tenant_overrides = {
      {"batcher", TenantLimits{.qps = 1.0, .burst = 2.0}}};
  Daemon daemon(options);
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = Connect();
  ASSERT_TRUE(client.ok());

  // Two tokens in the bucket: a three-item batch is refused as a
  // whole (one typed frame, nothing executed, nothing charged)...
  BatchRequest batch;
  batch.tenant = "batcher";
  batch.items.resize(3);
  for (BatchItem& item : batch.items) item.dataset = "table1";
  Result<std::vector<CorroborateOutcome>> refused =
      client.ValueOrDie().BatchCorroborate(batch, NoStop());
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  ASSERT_EQ(refused.ValueOrDie().size(), 1u);
  ASSERT_EQ(refused.ValueOrDie()[0].kind,
            CorroborateOutcome::Kind::kQuotaExceeded);
  EXPECT_GE(refused.ValueOrDie()[0].quota.retry_after_ms, 1u);
  EXPECT_EQ(daemon.server().cache().stats().misses, 0);

  // ...so the untouched two tokens still cover a two-item batch.
  batch.items.resize(2);
  Result<std::vector<CorroborateOutcome>> accepted =
      client.ValueOrDie().BatchCorroborate(batch, NoStop());
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  ASSERT_EQ(accepted.ValueOrDie().size(), 2u);
  for (const CorroborateOutcome& outcome : accepted.ValueOrDie()) {
    EXPECT_EQ(outcome.kind, CorroborateOutcome::Kind::kResult);
  }
}

TEST_F(CorrobdServerTest, LeaderDisconnectPromotesExactlyOneFollower) {
  ServerOptions options = BaseOptions();
  options.admission.max_concurrency = 4;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.Launch().ok());

  Failpoints::Arm("server.request.stall",
                  {.code = StatusCode::kInternal, .message = "stall"});
  CorroborateRequest request;
  request.dataset = "table1";
  request.options = {{"lane", "promote"}};

  // The doomed leader never reads its response: fire-and-forget the
  // frame, let it take the flight, then vanish.
  Result<CorrobClient> doomed = Connect();
  ASSERT_TRUE(doomed.ok());
  Frame doomed_frame;
  doomed_frame.type = FrameType::kCorroborateRequest;
  doomed_frame.payload = EncodeCorroborateRequest(request);
  ASSERT_TRUE(
      WriteFrame(doomed.ValueOrDie().fd(), doomed_frame, NoStop()).ok());
  ASSERT_TRUE(EventuallyTrue(
      [&] { return daemon.server().admission().running() == 1; }));

  Result<CorrobClient> survivor = Connect();
  ASSERT_TRUE(survivor.ok());
  Result<CorroborateOutcome> survived = Status::Internal("not yet run");
  std::thread survivor_thread([&] {
    survived = survivor.ValueOrDie().Corroborate(request, NoStop());
  });
  ASSERT_TRUE(EventuallyTrue(
      [&] { return daemon.server().coalescer().stats().followers == 1; }));

  // Disconnect the leader: its run is cancelled (not shareable), the
  // flight is handed to the one follower, which re-runs it whole.
  // lint: discard-ok: Close() returns void; only the side effect matters
  doomed.ValueOrDie().Close();
  ASSERT_TRUE(EventuallyTrue(
      [&] { return daemon.server().coalescer().stats().promotions == 1; }));

  Failpoints::DisarmAll();
  survivor_thread.join();
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  ASSERT_EQ(survived.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  EXPECT_FALSE(TerminatedEarly(
      static_cast<Termination>(survived.ValueOrDie().result.termination)));
  const RunCoalescer::Stats stats = daemon.server().coalescer().stats();
  EXPECT_EQ(stats.promotions, 1);
  EXPECT_EQ(stats.abandoned, 1);
  EXPECT_EQ(stats.shared, 0);
}

TEST_F(CorrobdServerTest, FollowerDisconnectNeverCancelsLeader) {
  ServerOptions options = BaseOptions();
  options.admission.max_concurrency = 4;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.Launch().ok());

  Failpoints::Arm("server.request.stall",
                  {.code = StatusCode::kInternal, .message = "stall"});
  CorroborateRequest request;
  request.dataset = "table1";
  request.options = {{"lane", "isolate"}};

  Result<CorrobClient> leader_client = Connect();
  ASSERT_TRUE(leader_client.ok());
  Result<CorroborateOutcome> led = Status::Internal("not yet run");
  std::thread leader_thread([&] {
    led = leader_client.ValueOrDie().Corroborate(request, NoStop());
  });
  ASSERT_TRUE(EventuallyTrue(
      [&] { return daemon.server().admission().running() == 1; }));

  // A fire-and-forget follower joins the stalled flight, then
  // vanishes. Its cancellation must detach it — slot released — while
  // the leader keeps stalling, untouched.
  Result<CorrobClient> doomed = Connect();
  ASSERT_TRUE(doomed.ok());
  Frame doomed_frame;
  doomed_frame.type = FrameType::kCorroborateRequest;
  doomed_frame.payload = EncodeCorroborateRequest(request);
  ASSERT_TRUE(
      WriteFrame(doomed.ValueOrDie().fd(), doomed_frame, NoStop()).ok());
  ASSERT_TRUE(EventuallyTrue(
      [&] { return daemon.server().coalescer().stats().followers == 1; }));
  ASSERT_TRUE(EventuallyTrue(
      [&] { return daemon.server().admission().running() == 2; }));

  // lint: discard-ok: Close() returns void; only the side effect matters
  doomed.ValueOrDie().Close();
  ASSERT_TRUE(EventuallyTrue(
      [&] { return daemon.server().admission().running() == 1; }));

  Failpoints::DisarmAll();
  leader_thread.join();
  ASSERT_TRUE(led.ok()) << led.status().ToString();
  ASSERT_EQ(led.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  EXPECT_FALSE(TerminatedEarly(
      static_cast<Termination>(led.ValueOrDie().result.termination)));
  const RunCoalescer::Stats stats = daemon.server().coalescer().stats();
  EXPECT_EQ(stats.promotions, 0);
  EXPECT_EQ(stats.shared, 0);
  EXPECT_EQ(stats.abandoned, 0);
}

TEST_F(CorrobdServerTest, ReloadUnknownDatasetIsTypedNotFound) {
  Daemon daemon(BaseOptions());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = Connect();
  ASSERT_TRUE(client.ok());

  ReloadRequest reload;
  reload.dataset = "no-such-table";
  Result<ReloadResponse> outcome =
      client.ValueOrDie().Reload(reload, NoStop());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kNotFound);

  // An empty name reloads everything the daemon serves.
  reload.dataset.clear();
  Result<ReloadResponse> all = client.ValueOrDie().Reload(reload, NoStop());
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all.ValueOrDie().datasets_reloaded, 1u);
  EXPECT_EQ(all.ValueOrDie().generation, 2u);
}

}  // namespace
}  // namespace server
}  // namespace corrob
