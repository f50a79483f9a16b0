#include <dirent.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/failpoint.h"
#include "core/delta_apply.h"
#include "core/registry.h"
#include "data/dataset_io.h"
#include "data/motivating_example.h"
#include "data/wal.h"
#include "obs/json.h"
#include "server/client.h"
#include "server/server.h"

// Durable delta ingestion end to end: apply-delta changes the served
// answers and bumps the generation, acked deltas survive a daemon
// restart (the crash-soak CI job does the kill -9 variant of this),
// and a WAL disk failure degrades the dataset to read-only serving
// instead of taking the daemon down.

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

/// A corrobd on its own socket with Serve() on a background thread;
/// drains on destruction. Mirrors the helper in server_test.cc.
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

/// Removes every file in `dir` and the directory itself, so each test
/// starts with a WAL directory that does not exist.
void RemoveTree(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return;
  std::vector<std::string> names;
  for (struct dirent* entry = ::readdir(handle); entry != nullptr;
       entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(handle);
  for (const std::string& name : names) {
    const std::string path = dir + "/" + name;
    if (::unlink(path.c_str()) != 0) RemoveTree(path);
  }
  ::rmdir(dir.c_str());
}

class WalServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string stem =
        ::testing::TempDir() + "/wal_serving_" + info->name();
    csv_path_ = stem + ".csv";
    socket_path_ = stem + ".sock";
    wal_dir_ = stem + ".wal";
    RemoveTree(wal_dir_);
    const MotivatingExample example = MakeMotivatingExample();
    ASSERT_TRUE(SaveDatasetCsv(csv_path_, example.dataset).ok());
  }

  void TearDown() override {
    Failpoints::DisarmAll();
    RemoveTree(wal_dir_);
  }

  ServerOptions WalOptionsBase() const {
    ServerOptions options;
    options.socket_path = socket_path_;
    options.dataset_specs = {"table1=" + csv_path_};
    options.drain_timeout_ms = 10000;
    options.wal_dir = wal_dir_;
    return options;
  }

  static ApplyDeltaRequest SampleDeltaRequest() {
    ApplyDeltaRequest request;
    request.dataset = "table1";
    request.deltas = {
        MakeAddVote("new-witness", "obama-born-hawaii", Vote::kTrue),
        MakeAddVote("new-witness", "obama-born-kenya", Vote::kFalse),
    };
    return request;
  }

  static CorroborateRequest SampleCorroborate() {
    CorroborateRequest request;
    request.dataset = "table1";
    request.algorithm = "TwoEstimate";
    return request;
  }

  std::string csv_path_;
  std::string socket_path_;
  std::string wal_dir_;
};

TEST_F(WalServingTest, ApplyDeltaWithoutWalIsFailedPrecondition) {
  ServerOptions options = WalOptionsBase();
  options.wal_dir.clear();
  Daemon daemon(options);
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = CorrobClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());
  Result<ApplyDeltaResponse> applied =
      client.ValueOrDie().ApplyDelta(SampleDeltaRequest(), NoStop());
  EXPECT_EQ(applied.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(applied.status().message().find("--wal"), std::string::npos);
}

TEST_F(WalServingTest, ApplyDeltaToUnknownDatasetIsNotFound) {
  Daemon daemon(WalOptionsBase());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = CorrobClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());
  ApplyDeltaRequest request = SampleDeltaRequest();
  request.dataset = "no-such-table";
  Result<ApplyDeltaResponse> applied =
      client.ValueOrDie().ApplyDelta(request, NoStop());
  EXPECT_EQ(applied.status().code(), StatusCode::kNotFound);
}

TEST_F(WalServingTest, ApplyDeltaChangesServedAnswersBitExactly) {
  Daemon daemon(WalOptionsBase());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = CorrobClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());

  // Answer before the delta (also warms the result cache, so this
  // exercises invalidation too).
  Result<CorroborateOutcome> before =
      client.ValueOrDie().Corroborate(SampleCorroborate(), NoStop());
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);

  const ApplyDeltaRequest delta = SampleDeltaRequest();
  Result<ApplyDeltaResponse> applied =
      client.ValueOrDie().ApplyDelta(delta, NoStop());
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.ValueOrDie().applied, 2u);
  EXPECT_GE(applied.ValueOrDie().generation, 2u);

  Result<CorroborateOutcome> after =
      client.ValueOrDie().Corroborate(SampleCorroborate(), NoStop());
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  // The cached pre-delta answer must not leak through.
  EXPECT_NE(after.ValueOrDie().raw_frame, before.ValueOrDie().raw_frame);

  // The served answer equals an in-process rebuild from the same CSV
  // and the same deltas, bit for bit.
  Result<LabeledDataset> loaded = LoadDatasetCsv(csv_path_);
  ASSERT_TRUE(loaded.ok());
  Result<Dataset> rebuilt =
      ApplyDeltasToDataset(loaded.ValueOrDie().dataset, delta.deltas);
  ASSERT_TRUE(rebuilt.ok());
  Result<std::unique_ptr<Corroborator>> direct =
      MakeCorroborator("TwoEstimate", CorroboratorOptions{.num_threads = 1});
  ASSERT_TRUE(direct.ok());
  Result<CorroborationResult> run =
      direct.ValueOrDie()->Run(rebuilt.ValueOrDie());
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(after.ValueOrDie().result.fact_probability,
            run.ValueOrDie().fact_probability);
  EXPECT_EQ(after.ValueOrDie().result.source_trust,
            run.ValueOrDie().source_trust);
}

TEST_F(WalServingTest, AckedDeltasSurviveDaemonRestart) {
  const ApplyDeltaRequest delta = SampleDeltaRequest();
  std::vector<double> probabilities_before_restart;
  {
    Daemon daemon(WalOptionsBase());
    ASSERT_TRUE(daemon.Launch().ok());
    Result<CorrobClient> client = CorrobClient::Connect(socket_path_);
    ASSERT_TRUE(client.ok());
    Result<ApplyDeltaResponse> applied =
        client.ValueOrDie().ApplyDelta(delta, NoStop());
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    Result<CorroborateOutcome> answer =
        client.ValueOrDie().Corroborate(SampleCorroborate(), NoStop());
    ASSERT_TRUE(answer.ok());
    ASSERT_EQ(answer.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
    probabilities_before_restart =
        answer.ValueOrDie().result.fact_probability;
    EXPECT_TRUE(daemon.Drain().ok());
  }
  // A fresh daemon on the same WAL directory replays the acked deltas
  // before serving its first request.
  {
    Daemon daemon(WalOptionsBase());
    ASSERT_TRUE(daemon.Launch().ok());
    Result<CorrobClient> client = CorrobClient::Connect(socket_path_);
    ASSERT_TRUE(client.ok());
    Result<CorroborateOutcome> answer =
        client.ValueOrDie().Corroborate(SampleCorroborate(), NoStop());
    ASSERT_TRUE(answer.ok());
    ASSERT_EQ(answer.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
    EXPECT_EQ(answer.ValueOrDie().result.fact_probability,
              probabilities_before_restart);
    // Stats report the replayed deltas.
    Result<std::string> stats = client.ValueOrDie().Stats(NoStop());
    ASSERT_TRUE(stats.ok());
    EXPECT_NE(stats.ValueOrDie().find("\"wal\""), std::string::npos);
    EXPECT_NE(stats.ValueOrDie().find("\"deltas_applied\""),
              std::string::npos);
    // The answer above was this daemon's first run, so the cache holds
    // exactly its payload.
    obs::JsonValue stats_doc;
    ASSERT_TRUE(obs::JsonValue::Parse(stats.ValueOrDie(), &stats_doc));
    EXPECT_EQ(stats_doc.Find("cache")->Find("bytes")->int_value(),
              static_cast<int64_t>(answer.ValueOrDie().raw_frame.size() -
                                   kFrameHeaderBytes - kFrameTrailerBytes));
  }
}

TEST_F(WalServingTest, ReloadIsRejectedForWalBackedDatasets) {
  // A CSV reload would resurrect the startup file and silently drop
  // every acked delta from live serving (restart would then replay
  // them — live and recovered state diverging). corrobd refuses.
  Daemon daemon(WalOptionsBase());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = CorrobClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());
  Result<ApplyDeltaResponse> applied =
      client.ValueOrDie().ApplyDelta(SampleDeltaRequest(), NoStop());
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  Result<CorroborateOutcome> before =
      client.ValueOrDie().Corroborate(SampleCorroborate(), NoStop());
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);

  ReloadRequest named;
  named.dataset = "table1";
  Result<ReloadResponse> reloaded =
      client.ValueOrDie().Reload(named, NoStop());
  EXPECT_EQ(reloaded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(reloaded.status().message().find("vote-delta log"),
            std::string::npos);
  // The bulk variant walks the same per-dataset path.
  Result<ReloadResponse> bulk =
      client.ValueOrDie().Reload(ReloadRequest(), NoStop());
  EXPECT_EQ(bulk.status().code(), StatusCode::kFailedPrecondition);

  // The refusal leaves serving untouched: the applied deltas still
  // shape the answers.
  Result<CorroborateOutcome> after =
      client.ValueOrDie().Corroborate(SampleCorroborate(), NoStop());
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  EXPECT_EQ(after.ValueOrDie().result.fact_probability,
            before.ValueOrDie().result.fact_probability);
}

TEST_F(WalServingTest, WalFailureDegradesToReadOnlyServing) {
  Daemon daemon(WalOptionsBase());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = CorrobClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());

  // First apply succeeds and is on the log.
  Result<ApplyDeltaResponse> applied =
      client.ValueOrDie().ApplyDelta(SampleDeltaRequest(), NoStop());
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();

  // The disk starts failing: the next apply reports the typed code
  // and flips the dataset read-only.
  Failpoints::Arm("wal.append");
  ApplyDeltaRequest second;
  second.dataset = "table1";
  second.deltas = {MakeAddVote("late-witness", "obama-born-hawaii",
                               Vote::kTrue)};
  Result<ApplyDeltaResponse> failed =
      client.ValueOrDie().ApplyDelta(second, NoStop());
  EXPECT_EQ(failed.status().code(), StatusCode::kWalUnavailable);

  // Sticky even after the disk recovers: the log can no longer be
  // trusted to be ahead of the resident state.
  Failpoints::DisarmAll();
  Result<ApplyDeltaResponse> still_failed =
      client.ValueOrDie().ApplyDelta(second, NoStop());
  EXPECT_EQ(still_failed.status().code(), StatusCode::kWalUnavailable);
  EXPECT_NE(still_failed.status().message().find("read-only"),
            std::string::npos);

  // Reads are unaffected; no in-flight response was dropped and the
  // daemon is still healthy.
  Result<CorroborateOutcome> answer =
      client.ValueOrDie().Corroborate(SampleCorroborate(), NoStop());
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  Result<std::string> stats = client.ValueOrDie().Stats(NoStop());
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.ValueOrDie().find("\"unhealthy_datasets\":1"),
            std::string::npos)
      << stats.ValueOrDie();
  EXPECT_TRUE(daemon.Drain().ok());
}

TEST_F(WalServingTest, RejectedDeltaBatchLeavesWalAndStateUntouched) {
  Daemon daemon(WalOptionsBase());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = CorrobClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());

  Result<CorroborateOutcome> before =
      client.ValueOrDie().Corroborate(SampleCorroborate(), NoStop());
  ASSERT_TRUE(before.ok());

  // An empty batch is rejected at the codec layer; the WAL never
  // sees it and later applies still work.
  ApplyDeltaRequest empty;
  empty.dataset = "table1";
  Result<ApplyDeltaResponse> rejected =
      client.ValueOrDie().ApplyDelta(empty, NoStop());
  EXPECT_FALSE(rejected.ok());

  Result<CorroborateOutcome> after =
      client.ValueOrDie().Corroborate(SampleCorroborate(), NoStop());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueOrDie().raw_frame, before.ValueOrDie().raw_frame);

  Result<ApplyDeltaResponse> applied =
      client.ValueOrDie().ApplyDelta(SampleDeltaRequest(), NoStop());
  EXPECT_TRUE(applied.ok()) << applied.status().ToString();
}

// The fact-group index's lifecycle: built by the first IncEstimate
// request at a generation and by nothing else, built once however
// many requests race for it, and freed with its generation once the
// runs holding that generation finish. Read from the stats document's
// `fact_groups` object.
class FactGroupLifecycleTest : public WalServingTest {
 protected:
  struct Tally {
    int64_t builds = -1;
    int64_t resident = -1;
    int64_t resident_bytes = -1;
    int64_t generation = -1;
    bool built = false;
    int64_t bytes = -1;
  };

  static Tally ReadTally(CorrobClient* client) {
    Tally tally;
    Result<std::string> stats = client->Stats(NoStop());
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (!stats.ok()) return tally;
    obs::JsonValue doc;
    EXPECT_TRUE(obs::JsonValue::Parse(stats.ValueOrDie(), &doc));
    const obs::JsonValue* groups = doc.Find("fact_groups");
    EXPECT_NE(groups, nullptr) << stats.ValueOrDie();
    if (groups == nullptr) return tally;
    tally.builds = groups->Find("builds")->int_value();
    tally.resident = groups->Find("resident")->int_value();
    tally.resident_bytes = groups->Find("resident_bytes")->int_value();
    const obs::JsonValue& row = groups->Find("datasets")->at(0);
    EXPECT_EQ(row.Find("dataset")->string_value(), "table1");
    tally.generation = row.Find("generation")->int_value();
    tally.built = row.Find("built")->bool_value();
    tally.bytes = row.Find("bytes")->int_value();
    return tally;
  }

  /// An IncEstHeu read; distinct `max_rounds` give distinct cache keys,
  /// so each one misses and runs.
  static CorroborateRequest IncEstHeuRead(uint32_t max_rounds) {
    CorroborateRequest request;
    request.dataset = "table1";
    request.algorithm = "IncEstHeu";
    request.max_rounds = max_rounds;
    return request;
  }

  static void ExpectResult(const Result<CorroborateOutcome>& outcome) {
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  }
};

TEST_F(FactGroupLifecycleTest, BuiltOncePerGenerationAndOnlyByIncEstimate) {
  Daemon daemon(WalOptionsBase());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = CorrobClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());
  CorrobClient* c = &client.ValueOrDie();

  // TwoEstimate reads and a delta build nothing.
  ExpectResult(c->Corroborate(SampleCorroborate(), NoStop()));
  Tally tally = ReadTally(c);
  EXPECT_EQ(tally.builds, 0);
  EXPECT_EQ(tally.resident, 0);
  EXPECT_EQ(tally.resident_bytes, 0);
  EXPECT_FALSE(tally.built);
  EXPECT_EQ(tally.bytes, 0);
  ASSERT_TRUE(c->ApplyDelta(SampleDeltaRequest(), NoStop()).ok());
  ExpectResult(c->Corroborate(SampleCorroborate(), NoStop()));
  tally = ReadTally(c);
  EXPECT_EQ(tally.builds, 0);
  EXPECT_EQ(tally.generation, 2);
  EXPECT_FALSE(tally.built);

  // N IncEstHeu misses at one generation build it once.
  for (uint32_t rounds = 1; rounds <= 5; ++rounds) {
    ExpectResult(c->Corroborate(IncEstHeuRead(rounds), NoStop()));
  }
  tally = ReadTally(c);
  EXPECT_EQ(tally.builds, 1);
  EXPECT_EQ(tally.resident, 1);
  EXPECT_TRUE(tally.built);
  EXPECT_GT(tally.bytes, 0);
  EXPECT_EQ(tally.resident_bytes, tally.bytes);

  // A delta publishes an unbuilt generation and frees the old index;
  // the first IncEstHeu read after it builds exactly one more.
  ApplyDeltaRequest second;
  second.dataset = "table1";
  second.deltas = {MakeAddVote("late-witness", "obama-born-hawaii",
                               Vote::kTrue)};
  ASSERT_TRUE(c->ApplyDelta(second, NoStop()).ok());
  tally = ReadTally(c);
  EXPECT_EQ(tally.builds, 1);
  EXPECT_EQ(tally.resident, 0);
  EXPECT_EQ(tally.generation, 3);
  EXPECT_FALSE(tally.built);
  for (uint32_t rounds = 1; rounds <= 3; ++rounds) {
    ExpectResult(c->Corroborate(IncEstHeuRead(rounds), NoStop()));
  }
  tally = ReadTally(c);
  EXPECT_EQ(tally.builds, 2);
  EXPECT_EQ(tally.resident, 1);
  EXPECT_TRUE(tally.built);
  EXPECT_TRUE(daemon.Drain().ok());
}

TEST_F(FactGroupLifecycleTest, ConcurrentFirstRequestsBuildOnce) {
  ServerOptions options = WalOptionsBase();
  options.run_threads = 4;
  options.admission.max_concurrency = 4;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.Launch().ok());

  // Hold four misses with distinct keys just before their runs, then
  // release them together: all four reach the unbuilt index at once.
  Failpoints::Arm("server.request.stall",
                  {.code = StatusCode::kInternal, .message = "stall"});
  std::vector<Result<CorroborateOutcome>> outcomes(
      4, Status::Internal("not yet run"));
  std::vector<std::thread> readers;
  for (uint32_t i = 0; i < 4; ++i) {
    readers.emplace_back([&, i] {
      Result<CorrobClient> reader = CorrobClient::Connect(socket_path_);
      if (!reader.ok()) {
        outcomes[i] = reader.status();
        return;
      }
      outcomes[i] =
          reader.ValueOrDie().Corroborate(IncEstHeuRead(i + 1), NoStop());
    });
  }
  ASSERT_TRUE(EventuallyTrue(
      [&] { return daemon.server().admission().running() == 4; }));
  Failpoints::DisarmAll();
  for (std::thread& reader : readers) reader.join();
  for (const Result<CorroborateOutcome>& outcome : outcomes) {
    ExpectResult(outcome);
  }

  Result<CorrobClient> client = CorrobClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());
  const Tally tally = ReadTally(&client.ValueOrDie());
  EXPECT_EQ(tally.builds, 1);
  EXPECT_EQ(tally.resident, 1);
  EXPECT_TRUE(daemon.Drain().ok());
}

TEST_F(FactGroupLifecycleTest, OldGenerationIndexIsFreedWhenItsRunsFinish) {
  Daemon daemon(WalOptionsBase());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = CorrobClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());
  CorrobClient* c = &client.ValueOrDie();
  ExpectResult(c->Corroborate(IncEstHeuRead(1), NoStop()));
  const int64_t first_bytes = ReadTally(c).bytes;
  ASSERT_GT(first_bytes, 0);

  // A run stalled at generation 1 keeps that generation alive.
  Failpoints::Arm("server.request.stall",
                  {.code = StatusCode::kInternal, .message = "stall"});
  Result<CorroborateOutcome> held = Status::Internal("not yet run");
  std::thread holder([&] {
    Result<CorrobClient> reader = CorrobClient::Connect(socket_path_);
    if (!reader.ok()) {
      held = reader.status();
      return;
    }
    held = reader.ValueOrDie().Corroborate(IncEstHeuRead(2), NoStop());
  });
  ASSERT_TRUE(EventuallyTrue(
      [&] { return daemon.server().admission().running() == 1; }));
  ASSERT_TRUE(c->ApplyDelta(SampleDeltaRequest(), NoStop()).ok());
  Tally tally = ReadTally(c);
  EXPECT_EQ(tally.generation, 2);
  EXPECT_FALSE(tally.built);
  EXPECT_EQ(tally.resident, 1);
  EXPECT_EQ(tally.resident_bytes, first_bytes);

  // Once the held run finishes, nothing holds generation 1.
  Failpoints::DisarmAll();
  holder.join();
  ExpectResult(held);
  ASSERT_TRUE(EventuallyTrue([&] { return ReadTally(c).resident == 0; }));
  tally = ReadTally(c);
  EXPECT_EQ(tally.resident_bytes, 0);
  EXPECT_EQ(tally.builds, 1);
  EXPECT_TRUE(daemon.Drain().ok());
}

}  // namespace
}  // namespace server
}  // namespace corrob
