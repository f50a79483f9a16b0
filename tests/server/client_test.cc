#include "server/client.h"

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/retry.h"
#include "common/socket.h"
#include "common/status.h"
#include "data/dataset_io.h"
#include "data/motivating_example.h"
#include "data/wal.h"
#include "server/frame.h"
#include "server/protocol.h"
#include "server/server.h"

// CorrobClient transport-failure taxonomy, pinned against a scripted
// fake server: a daemon that dies mid-response must surface as the
// typed kConnectionLost (the peer died while talking to us), while a
// close on a clean frame boundary stays kIoError (it never answered).
// tools/loadgen keys its dropped-response accounting on this split.

namespace corrob {
namespace server {
namespace {

StopSignal NoStop() { return StopSignal(); }

/// A Unix-socket server that accepts one connection, reads the
/// client's request frame, writes `response_bytes` verbatim (possibly
/// a deliberately truncated frame) and hangs up.
class ScriptedServer {
 public:
  explicit ScriptedServer(std::string response_bytes)
      : response_bytes_(std::move(response_bytes)) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "/scripted_" + info->name() + ".sock";
  }

  ~ScriptedServer() {
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] Status Launch() {
    CORROB_ASSIGN_OR_RETURN(listener_, ListenUnixSocket(path_));
    thread_ = std::thread([this] { ServeOne(); });
    return Status::OK();
  }

  const std::string& path() const { return path_; }

 private:
  void ServeOne() {
    Result<UniqueFd> conn = AcceptWithStop(listener_.get(), NoStop());
    if (!conn.ok()) return;
    // Consume the request so the client's write never sees a reset,
    // then answer with the scripted bytes and hang up. The UniqueFd
    // closing at scope exit is the "daemon died" part of the script.
    Result<WireFrame> request = ReadFrame(conn.ValueOrDie().get(), NoStop());
    if (!request.ok()) return;
    if (!response_bytes_.empty()) {
      // lint: discard-ok: a scripted peer failing to write simulates the crash
      (void)WriteAll(conn.ValueOrDie().get(), response_bytes_.data(),
                     response_bytes_.size(), NoStop());
    }
  }

  std::string path_;
  std::string response_bytes_;
  UniqueFd listener_;
  std::thread thread_;
};

std::string WellFormedResultFrame() {
  CorroborateResponse body;
  body.algorithm = "IncEstHeu";
  body.iterations = 3;
  body.fact_probability = {0.5, 0.25};
  body.source_trust = {0.75};
  Frame frame;
  frame.type = FrameType::kResultResponse;
  frame.payload = EncodeCorroborateResponse(body);
  return EncodeFrame(frame);
}

TEST(CorrobClientTest, MidFrameServerDeathIsConnectionLost) {
  const std::string whole = WellFormedResultFrame();
  // Cut inside the payload: header delivered, body truncated.
  ScriptedServer server(whole.substr(0, whole.size() - 3));
  ASSERT_TRUE(server.Launch().ok());

  Result<CorrobClient> client = CorrobClient::Connect(server.path());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  CorroborateRequest request;
  request.dataset = "table1";
  Result<CorroborateOutcome> outcome =
      client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kConnectionLost)
      << outcome.status().ToString();
}

TEST(CorrobClientTest, HeaderOnlyServerDeathIsConnectionLost) {
  // Even a close exactly between the header and the payload is a
  // mid-message death: the server committed to a response length and
  // never delivered it.
  const std::string whole = WellFormedResultFrame();
  ScriptedServer server(whole.substr(0, kFrameHeaderBytes));
  ASSERT_TRUE(server.Launch().ok());

  Result<CorrobClient> client = CorrobClient::Connect(server.path());
  ASSERT_TRUE(client.ok());
  Result<CorroborateOutcome> outcome =
      client.ValueOrDie().Corroborate(CorroborateRequest{}, NoStop());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kConnectionLost);
}

TEST(CorrobClientTest, BoundaryCloseBeforeAnyResponseIsIoError) {
  ScriptedServer server("");  // reads the request, answers nothing
  ASSERT_TRUE(server.Launch().ok());

  Result<CorrobClient> client = CorrobClient::Connect(server.path());
  ASSERT_TRUE(client.ok());
  Result<CorroborateOutcome> outcome =
      client.ValueOrDie().Corroborate(CorroborateRequest{}, NoStop());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kIoError)
      << outcome.status().ToString();
}

TEST(CorrobClientTest, IntactScriptedResponseStillDecodes) {
  // Control arm: the same scripted server delivering the whole frame
  // produces a normal outcome, so the failures above are about the
  // truncation, not the harness.
  ScriptedServer server(WellFormedResultFrame());
  ASSERT_TRUE(server.Launch().ok());

  Result<CorrobClient> client = CorrobClient::Connect(server.path());
  ASSERT_TRUE(client.ok());
  Result<CorroborateOutcome> outcome =
      client.ValueOrDie().Corroborate(CorroborateRequest{}, NoStop());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  EXPECT_EQ(outcome.ValueOrDie().result.iterations, 3u);
  EXPECT_EQ(outcome.ValueOrDie().raw_frame, WellFormedResultFrame());
}

TEST(CorrobClientTest, StandaloneRawFrameIsTheEncodedResponse) {
  // raw_frame is the read buffer itself; for every kind of answer it
  // must equal the standalone framing of the type and payload.
  CorroborateResponse tagged;
  tagged.algorithm = "TwoEstimate";
  tagged.fact_probability.assign(5000, 0.25);
  tagged.source_trust = {0.5, -0.0};
  std::string tagged_payload = EncodeCorroborateResponse(tagged);
  AttachRequestId(&tagged_payload, "req-42");
  const std::vector<std::pair<FrameType, std::string>> responses = {
      {FrameType::kResultResponse, tagged_payload},
      {FrameType::kErrorResponse, EncodeErrorResponse({3, "no dataset", ""})},
      {FrameType::kOverloadedResponse,
       EncodeOverloadedResponse({20, 9, "queue full", ""})},
      {FrameType::kQuotaExceededResponse,
       EncodeQuotaExceededResponse({40, "metered", "over quota", ""})}};
  for (const auto& [type, payload] : responses) {
    SCOPED_TRACE(FrameTypeName(type));
    const std::string expected = EncodeFrame({type, payload});
    ScriptedServer server(expected);
    ASSERT_TRUE(server.Launch().ok());
    Result<CorrobClient> client = CorrobClient::Connect(server.path());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    Result<CorroborateOutcome> outcome =
        client.ValueOrDie().Corroborate(CorroborateRequest{}, NoStop());
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome.ValueOrDie().raw_frame, expected);
  }
}

TEST(CorrobClientTest, DecodeCorroborateOutcomeKeepsTheReadBuffer) {
  CorroborateResponse body;
  body.algorithm = "IncEstHeu";
  body.fact_probability = {0.5, 0.125};
  body.source_trust = {0.75};
  WireFrame frame;
  frame.type = FrameType::kResultResponse;
  frame.bytes = EncodeFrame({frame.type, EncodeCorroborateResponse(body)});
  const std::string expected = frame.bytes;
  Result<CorroborateOutcome> outcome =
      DecodeCorroborateOutcome(std::move(frame));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  EXPECT_EQ(outcome.ValueOrDie().result.fact_probability,
            body.fact_probability);
  EXPECT_EQ(outcome.ValueOrDie().raw_frame, expected);

  WireFrame pong;
  pong.type = FrameType::kPongResponse;
  pong.bytes = EncodeFrame({pong.type, "hi"});
  Result<CorroborateOutcome> wrong = DecodeCorroborateOutcome(pong);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kParseError);
}

TEST(CorrobClientTest, DisconnectedClientFailsFast) {
  CorrobClient never_connected;
  EXPECT_FALSE(never_connected.connected());
  Result<CorroborateOutcome> outcome =
      never_connected.Corroborate(CorroborateRequest{}, NoStop());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition);
}

// ----- Reconnect-and-retry against a deliberately restarted daemon ----

/// A real corrobd on its own socket, drained on destruction; letting
/// one instance die and starting another on the same path is the
/// "daemon restarted under the client" scenario reconnect exists for.
class RestartableDaemon {
 public:
  explicit RestartableDaemon(ServerOptions options)
      : options_(std::move(options)) {}

  ~RestartableDaemon() { Stop(); }

  [[nodiscard]] Status Launch() {
    server_ = std::make_unique<CorrobdServer>(options_);
    CORROB_RETURN_NOT_OK(server_->Start());
    drain_ = std::make_unique<CancellationToken>();
    thread_ = std::thread([this] {
      // lint: discard-ok: drain status is checked via Stop() callers' asserts
      (void)server_->Serve(drain_.get());
    });
    return Status::OK();
  }

  void Stop() {
    if (drain_ != nullptr) drain_->Cancel();
    if (thread_.joinable()) thread_.join();
    server_.reset();
    drain_.reset();
  }

 private:
  ServerOptions options_;
  std::unique_ptr<CorrobdServer> server_;
  std::unique_ptr<CancellationToken> drain_;
  std::thread thread_;
};

class ReconnectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string stem =
        ::testing::TempDir() + "/reconnect_" + info->name();
    csv_path_ = stem + ".csv";
    const MotivatingExample example = MakeMotivatingExample();
    ASSERT_TRUE(SaveDatasetCsv(csv_path_, example.dataset).ok());
    options_.socket_path = stem + ".sock";
    options_.dataset_specs = {"table1=" + csv_path_};
    options_.drain_timeout_ms = 10000;
  }

  static RetryPolicy FastReconnectPolicy() {
    RetryPolicy policy;
    policy.max_attempts = 5;
    policy.initial_backoff_ms = 1.0;
    policy.max_backoff_ms = 5.0;
    return policy;
  }

  std::string csv_path_;
  ServerOptions options_;
};

TEST_F(ReconnectTest, IdempotentReadsSurviveADaemonRestart) {
  RestartableDaemon first(options_);
  ASSERT_TRUE(first.Launch().ok());
  Result<CorrobClient> client =
      CorrobClient::Connect(options_.socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  CorrobClient& conn = client.ValueOrDie();
  conn.EnableReconnect(FastReconnectPolicy());
  EXPECT_TRUE(conn.reconnect_enabled());

  CorroborateRequest request;
  request.dataset = "table1";
  request.algorithm = "TwoEstimate";
  Result<CorroborateOutcome> before =
      client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // The daemon the client is attached to dies; a replacement comes up
  // on the same socket before the retry budget runs out.
  first.Stop();
  RestartableDaemon second(options_);
  ASSERT_TRUE(second.Launch().ok());

  Result<CorroborateOutcome> after =
      client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  // Same CSV, same algorithm: the replacement serves identical bytes.
  EXPECT_EQ(after.ValueOrDie().raw_frame, before.ValueOrDie().raw_frame);

  // Stats ride the same reconnect path.
  Result<std::string> stats = client.ValueOrDie().Stats(NoStop());
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
}

TEST_F(ReconnectTest, WithoutOptInARestartIsATransientFailure) {
  RestartableDaemon first(options_);
  ASSERT_TRUE(first.Launch().ok());
  Result<CorrobClient> client =
      CorrobClient::Connect(options_.socket_path);
  ASSERT_TRUE(client.ok());
  EXPECT_FALSE(client.ValueOrDie().reconnect_enabled());

  first.Stop();
  RestartableDaemon second(options_);
  ASSERT_TRUE(second.Launch().ok());

  CorroborateRequest request;
  request.dataset = "table1";
  Result<CorroborateOutcome> outcome =
      client.ValueOrDie().Corroborate(request, NoStop());
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(IsTransientCode(outcome.status().code()))
      << outcome.status().ToString();
}

TEST_F(ReconnectTest, MutatingRequestsNeverAutoReconnect) {
  RestartableDaemon daemon(options_);
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client =
      CorrobClient::Connect(options_.socket_path);
  ASSERT_TRUE(client.ok());
  CorrobClient& conn = client.ValueOrDie();
  conn.EnableReconnect(FastReconnectPolicy());

  // After a hard close, the reconnect path redials transparently for
  // a read...
  conn.Close();
  CorroborateRequest read;
  read.dataset = "table1";
  Result<CorroborateOutcome> outcome = conn.Corroborate(read, NoStop());
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();

  // ...but an apply-delta on the same closed client fails fast: a
  // mutation the daemon might already have logged must never be
  // silently resent.
  conn.Close();
  ApplyDeltaRequest mutation;
  mutation.dataset = "table1";
  mutation.deltas = {MakeAddVote("w", "f", Vote::kTrue)};
  Result<ApplyDeltaResponse> applied = conn.ApplyDelta(mutation, NoStop());
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace server
}  // namespace corrob
