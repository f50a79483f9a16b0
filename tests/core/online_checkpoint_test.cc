#include "core/online_checkpoint.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/csv.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "data/vote.h"

namespace corrob {
namespace {

/// A corroborator with a non-trivial trust state: 6 sources, 300
/// pseudo-random observations.
OnlineCorroborator MakeBusyCorroborator(uint64_t seed = 11) {
  OnlineCorroboratorOptions options;
  options.initial_trust = 0.85;
  options.trust_prior_weight = 4.0;
  options.tie_margin = 0.03;
  OnlineCorroborator online(options);
  for (int s = 0; s < 6; ++s) {
    online.AddSource("src" + std::to_string(s));
  }
  Rng rng(seed);
  for (int i = 0; i < 300; ++i) {
    std::vector<SourceVote> votes;
    for (SourceId s = 0; s < 6; ++s) {
      if (rng.Bernoulli(0.4)) {
        votes.push_back(
            {s, rng.Bernoulli(0.85) ? Vote::kTrue : Vote::kFalse});
      }
    }
    EXPECT_TRUE(online.Observe(votes).ok());
  }
  return online;
}

void ExpectBitIdenticalState(const OnlineCorroborator& a,
                             const OnlineCorroborator& b) {
  OnlineCorroboratorState sa = a.ExportState();
  OnlineCorroboratorState sb = b.ExportState();
  EXPECT_EQ(sa.source_names, sb.source_names);
  EXPECT_EQ(sa.correct, sb.correct);  // exact double equality
  EXPECT_EQ(sa.total, sb.total);
  EXPECT_EQ(sa.facts_observed, sb.facts_observed);
  EXPECT_EQ(sa.decisions_true, sb.decisions_true);
  EXPECT_EQ(sa.decisions_false, sb.decisions_false);
  EXPECT_EQ(sa.deferrals, sb.deferrals);
  EXPECT_DOUBLE_EQ(sa.options.initial_trust, sb.options.initial_trust);
  EXPECT_DOUBLE_EQ(sa.options.trust_prior_weight,
                   sb.options.trust_prior_weight);
  EXPECT_DOUBLE_EQ(sa.options.tie_margin, sb.options.tie_margin);
}

TEST(OnlineStateTest, ExportRestoreRoundTrip) {
  OnlineCorroborator online = MakeBusyCorroborator();
  auto restored =
      OnlineCorroborator::FromState(online.ExportState()).ValueOrDie();
  ExpectBitIdenticalState(online, restored);
  EXPECT_EQ(restored.trust_snapshot(), online.trust_snapshot());
}

TEST(OnlineStateTest, FromStateRejectsInconsistency) {
  OnlineCorroboratorState state = MakeBusyCorroborator().ExportState();
  {
    OnlineCorroboratorState bad = state;
    bad.correct.pop_back();
    EXPECT_EQ(OnlineCorroborator::FromState(bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    OnlineCorroboratorState bad = state;
    bad.correct[0] = bad.total[0] + 1.0;  // correct > total
    EXPECT_EQ(OnlineCorroborator::FromState(bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    OnlineCorroboratorState bad = state;
    bad.total[1] = -1.0;
    EXPECT_EQ(OnlineCorroborator::FromState(bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    OnlineCorroboratorState bad = state;
    bad.facts_observed = -5;
    EXPECT_EQ(OnlineCorroborator::FromState(bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    OnlineCorroboratorState bad = state;
    bad.source_names[1] = bad.source_names[0];  // duplicate name
    EXPECT_EQ(OnlineCorroborator::FromState(bad).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(OnlineCheckpointTest, SerializeParseRoundTripIsBitIdentical) {
  OnlineCorroborator online = MakeBusyCorroborator();
  std::string snapshot = SerializeOnlineSnapshot(online);
  auto restored = ParseOnlineSnapshot(snapshot).ValueOrDie();
  ExpectBitIdenticalState(online, restored);

  // The restored instance continues identically.
  std::vector<SourceVote> votes{{0, Vote::kTrue}, {3, Vote::kFalse}};
  auto va = online.Observe(votes).ValueOrDie();
  auto vb = restored.Observe(votes).ValueOrDie();
  EXPECT_EQ(va.probability, vb.probability);  // exact, not approximate
  EXPECT_EQ(va.decision, vb.decision);
}

TEST(OnlineCheckpointTest, EmptyCorroboratorRoundTrips) {
  OnlineCorroborator online;
  auto restored =
      ParseOnlineSnapshot(SerializeOnlineSnapshot(online)).ValueOrDie();
  EXPECT_EQ(restored.num_sources(), 0);
  EXPECT_EQ(restored.facts_observed(), 0);
}

TEST(OnlineCheckpointTest, RejectsGarbageAsParseError) {
  EXPECT_EQ(ParseOnlineSnapshot("").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseOnlineSnapshot("not a snapshot at all").status().code(),
            StatusCode::kParseError);
}

TEST(OnlineCheckpointTest, RejectsTruncationAsParseError) {
  std::string snapshot =
      SerializeOnlineSnapshot(MakeBusyCorroborator());
  for (size_t keep : {snapshot.size() - 1, snapshot.size() / 2, size_t{21},
                      size_t{12}}) {
    auto result = ParseOnlineSnapshot(snapshot.substr(0, keep));
    EXPECT_EQ(result.status().code(), StatusCode::kParseError)
        << "kept " << keep << " bytes";
  }
}

TEST(OnlineCheckpointTest, RejectsBitFlipsAsParseError) {
  std::string snapshot =
      SerializeOnlineSnapshot(MakeBusyCorroborator());
  // Flip one payload bit: the CRC must catch it.
  std::string corrupted = snapshot;
  corrupted[25] = static_cast<char>(corrupted[25] ^ 0x10);
  EXPECT_EQ(ParseOnlineSnapshot(corrupted).status().code(),
            StatusCode::kParseError);
  // Flip a CRC bit: also corruption.
  corrupted = snapshot;
  corrupted[snapshot.size() - 1] =
      static_cast<char>(corrupted[snapshot.size() - 1] ^ 0x01);
  EXPECT_EQ(ParseOnlineSnapshot(corrupted).status().code(),
            StatusCode::kParseError);
}

TEST(OnlineCheckpointTest, TelemetryCountersSurviveRoundTrip) {
  OnlineCorroborator online = MakeBusyCorroborator();
  ASSERT_GT(online.decisions_true() + online.decisions_false(), 0);
  EXPECT_EQ(online.decisions_true() + online.decisions_false(),
            online.facts_observed());
  auto restored =
      ParseOnlineSnapshot(SerializeOnlineSnapshot(online)).ValueOrDie();
  EXPECT_EQ(restored.decisions_true(), online.decisions_true());
  EXPECT_EQ(restored.decisions_false(), online.decisions_false());
  EXPECT_EQ(restored.deferrals(), online.deferrals());
}

TEST(OnlineCheckpointTest, ParsesV1SnapshotsWithZeroedCounters) {
  // A v1 snapshot (pre-telemetry format: no counter section) must
  // still load; the counters start over at zero but the trust state
  // restores bit-identically.
  OnlineCorroborator online = MakeBusyCorroborator();
  OnlineCorroboratorState state = online.ExportState();

  std::string payload;
  ByteWriter body(&payload);
  body.F64(state.options.initial_trust);
  body.F64(state.options.trust_prior_weight);
  body.F64(state.options.tie_margin);
  body.U64(static_cast<uint64_t>(state.facts_observed));
  body.U32(static_cast<uint32_t>(state.source_names.size()));
  for (size_t s = 0; s < state.source_names.size(); ++s) {
    body.Str(state.source_names[s]);
    body.F64(state.correct[s]);
    body.F64(state.total[s]);
  }
  std::string snapshot = "CORROBSN";
  ByteWriter writer(&snapshot);
  writer.U32(1);  // kOnlineSnapshotMinVersion
  writer.U64(payload.size());
  writer.Raw(payload);
  writer.U32(ComputeCrc32(payload));

  auto restored = ParseOnlineSnapshot(snapshot).ValueOrDie();
  OnlineCorroboratorState rs = restored.ExportState();
  EXPECT_EQ(rs.correct, state.correct);
  EXPECT_EQ(rs.total, state.total);
  EXPECT_EQ(rs.facts_observed, state.facts_observed);
  EXPECT_EQ(restored.decisions_true(), 0);
  EXPECT_EQ(restored.decisions_false(), 0);
  EXPECT_EQ(restored.deferrals(), 0);
  EXPECT_EQ(restored.trust_snapshot(), online.trust_snapshot());
}

TEST(OnlineCheckpointTest, RejectsSourceCountLargerThanPayload) {
  // A CRC-valid 60-byte snapshot whose source count claims 2^32 - 1
  // entries with no bytes behind it. Each entry needs at least 20
  // bytes, so the count is rejected before anything is reserved.
  std::string payload;
  ByteWriter body(&payload);
  body.F64(0.0);  // initial_trust
  body.F64(0.0);  // trust_prior_weight
  body.F64(0.0);  // tie_margin
  body.U64(0);    // facts_observed
  body.U32(0xFFFFFFFFu);  // num_sources
  std::string snapshot = "CORROBSN";
  ByteWriter writer(&snapshot);
  writer.U32(kOnlineSnapshotVersion);
  writer.U64(payload.size());
  writer.Raw(payload);
  writer.U32(ComputeCrc32(payload));
  ASSERT_EQ(snapshot.size(), 60u);

  auto result = ParseOnlineSnapshot(snapshot);
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find("count"), std::string::npos)
      << result.status().ToString();
}

TEST(OnlineCheckpointTest, RejectsInconsistentCounters) {
  OnlineCorroboratorState state = MakeBusyCorroborator().ExportState();
  {
    OnlineCorroboratorState bad = state;
    bad.deferrals = -1;
    EXPECT_EQ(OnlineCorroborator::FromState(bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    OnlineCorroboratorState bad = state;
    bad.decisions_true = bad.facts_observed + 1;
    bad.decisions_false = 1;  // decided more facts than observed
    EXPECT_EQ(OnlineCorroborator::FromState(bad).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(OnlineCheckpointTest, RejectsNewerVersionNamingBothVersions) {
  // A v(N+1) snapshot fed to a vN build: the version word lives at
  // bytes [8,12) and the CRC covers only the payload, so patching the
  // header needs no re-checksum. The error must be a
  // kFailedPrecondition (not kParseError: the bytes are fine, the
  // build is old) naming both the snapshot's version and the newest
  // one this build supports.
  std::string snapshot =
      SerializeOnlineSnapshot(MakeBusyCorroborator());
  std::string future = snapshot;
  future[8] = static_cast<char>(kOnlineSnapshotVersion + 1);
  auto result = ParseOnlineSnapshot(future);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  const std::string message(result.status().message());
  EXPECT_NE(message.find("version " +
                         std::to_string(kOnlineSnapshotVersion + 1)),
            std::string::npos);
  EXPECT_NE(message.find("max version " +
                         std::to_string(kOnlineSnapshotVersion)),
            std::string::npos);
  EXPECT_NE(message.find("newer"), std::string::npos);
}

TEST(OnlineCheckpointTest, RejectsPrehistoricVersionAsTooOld) {
  std::string snapshot =
      SerializeOnlineSnapshot(MakeBusyCorroborator());
  std::string ancient = snapshot;
  ancient[8] = static_cast<char>(kOnlineSnapshotMinVersion - 1);
  auto result = ParseOnlineSnapshot(ancient);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(std::string(result.status().message()).find("older"),
            std::string::npos);
}

TEST(OnlineCheckpointTest, SaveLoadThroughDisk) {
  std::string path = ::testing::TempDir() + "/corrob_snapshot_test.snap";
  OnlineCorroborator online = MakeBusyCorroborator();
  ASSERT_TRUE(SaveOnlineSnapshot(path, online).ok());
  auto restored = LoadOnlineSnapshot(path).ValueOrDie();
  ExpectBitIdenticalState(online, restored);
  std::remove(path.c_str());
}

TEST(OnlineCheckpointTest, LoadMissingFileIsNotFound) {
  auto result = LoadOnlineSnapshot("/nonexistent/snapshot.snap");
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(OnlineCheckpointTest, LoadNamesThePathOnCorruption) {
  std::string path = ::testing::TempDir() + "/corrob_corrupt_test.snap";
  ASSERT_TRUE(WriteFileAtomic(path, "junk bytes").ok());
  auto result = LoadOnlineSnapshot(path);
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find(path), std::string::npos);
  std::remove(path.c_str());
}

TEST(OnlineCheckpointTest, InjectedSaveFaultLeavesOldSnapshotIntact) {
  ScopedFailpointDisarmer disarmer;
  std::string path = ::testing::TempDir() + "/corrob_snapshot_fault.snap";
  OnlineCorroborator before = MakeBusyCorroborator(1);
  ASSERT_TRUE(SaveOnlineSnapshot(path, before).ok());

  // Every write attempt fails at the fsync stage: the retried save
  // reports IoError and the previous snapshot is still loadable.
  Failpoints::Arm("io.atomic_write.fsync");
  RetryPolicy policy = DefaultIoRetryPolicy();
  policy.enable_sleep = false;
  OnlineCorroborator after = MakeBusyCorroborator(2);
  Status status = SaveOnlineSnapshot(path, after, policy);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  Failpoints::DisarmAll();

  auto restored = LoadOnlineSnapshot(path).ValueOrDie();
  ExpectBitIdenticalState(before, restored);
  std::remove(path.c_str());
}

TEST(OnlineCheckpointTest, InterruptCheckpointPathKeepsFullSuffix) {
  // Regression: the suffix buffer used to be one byte short, so the
  // formatted ".interrupt-<crc32>.snap" lost its final character and
  // interrupt checkpoints landed on ".sna" paths.
  const std::string path =
      DeriveInterruptCheckpointPath("in.csv", "out.csv");
  ASSERT_GE(path.size(), 5u);
  EXPECT_EQ(path.substr(path.size() - 5), ".snap");
  EXPECT_EQ(path.size(), std::string("out.csv").size() + 11 + 8 + 5);
  // Different input paths against the same output stem must still get
  // distinct checkpoint files.
  EXPECT_NE(path, DeriveInterruptCheckpointPath("other.csv", "out.csv"));
}

TEST(OnlineCheckpointTest, RetryMasksTransientSaveFault) {
  ScopedFailpointDisarmer disarmer;
  std::string path = ::testing::TempDir() + "/corrob_snapshot_retry.snap";
  FailpointConfig config;
  config.max_failures = 2;  // fewer than the 3 attempts
  Failpoints::Arm("io.atomic_write.open", config);
  RetryPolicy policy = DefaultIoRetryPolicy();
  policy.enable_sleep = false;
  OnlineCorroborator online = MakeBusyCorroborator();
  EXPECT_TRUE(SaveOnlineSnapshot(path, online, policy).ok());
  EXPECT_EQ(Failpoints::FailureCount("io.atomic_write.open"), 2);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace corrob
