#include <dirent.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/csv.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/socket.h"
#include "core/online_checkpoint.h"
#include "data/dataset_io.h"
#include "data/wal.h"
#include "server/frame.h"
#include "server/protocol.h"
#include "testing/property.h"

// Seeded robustness sweep over every decoder that reads untrusted
// bytes: CRB1 frames, each protocol payload, online checkpoints, WAL
// recovery of a segment and of a snapshot, and dataset CSV. Each valid
// sample is mutated three ways:
//   - every strict prefix;
//   - seeded random byte flips;
//   - every 4-byte window forced to 0xFFFFFFFF, which covers every
//     u32 length and count field.
// Every result must be OK or a typed Status; a crash, an abort or an
// untyped code fails the sweep. Checksummed formats are resealed
// after mutation where the checksum would otherwise hide the decoder.

namespace corrob {
namespace server {
namespace {

constexpr uint64_t kSweepSeed = 0xB17E5;
constexpr int kFlipSeeds = 24;

/// A decoder under test: turns bytes into a Status.
struct DecoderCase {
  std::string name;
  std::function<Status(std::string_view)> decode;
  std::vector<std::string> samples;
  /// When true, every strict prefix of a sample must be kParseError.
  bool prefix_is_parse_error = true;
  /// Recomputes checksums after a mutation (identity when unset).
  std::function<void(std::string*)> reseal;
};

void ExpectTyped(const Status& status, const std::string& what) {
  if (status.ok()) return;
  const StatusCode code = status.code();
  EXPECT_TRUE(code == StatusCode::kParseError ||
              code == StatusCode::kInvalidArgument ||
              code == StatusCode::kFailedPrecondition)
      << what << ": " << status.ToString();
}

void Sweep(const DecoderCase& decoder) {
  SCOPED_TRACE(decoder.name);
  const auto mutant_status = [&](std::string bytes) {
    if (decoder.reseal) decoder.reseal(&bytes);
    return decoder.decode(bytes);
  };
  for (size_t sample = 0; sample < decoder.samples.size(); ++sample) {
    const std::string& valid = decoder.samples[sample];
    const std::string label = "sample " + std::to_string(sample);
    ASSERT_TRUE(decoder.decode(valid).ok())
        << label << ": " << decoder.decode(valid).ToString();

    for (size_t length = 0; length < valid.size(); ++length) {
      const Status status = decoder.decode(valid.substr(0, length));
      if (decoder.prefix_is_parse_error) {
        EXPECT_EQ(status.code(), StatusCode::kParseError)
            << label << " prefix " << length << ": " << status.ToString();
      } else {
        ExpectTyped(status, label + " prefix " + std::to_string(length));
      }
    }

    for (size_t at = 0; at + 4 <= valid.size(); ++at) {
      std::string mutant = valid;
      mutant.replace(at, 4, "\xFF\xFF\xFF\xFF");
      ExpectTyped(mutant_status(mutant),
                  label + " u32 at " + std::to_string(at));
    }

    proptest::ForEachSeed(kSweepSeed + sample, kFlipSeeds, [&](uint64_t seed) {
      Rng rng(seed);
      std::string mutant = valid;
      const int flips = static_cast<int>(rng.UniformInt(1, 3));
      for (int i = 0; i < flips; ++i) {
        const size_t at = rng.NextBelow(mutant.size());
        mutant[at] = static_cast<char>(mutant[at] ^
                                       static_cast<char>(rng.UniformInt(1, 255)));
      }
      ExpectTyped(mutant_status(mutant), label + " flips");
    });
  }
}

std::vector<DecoderCase> ProtocolCases() {
  std::vector<DecoderCase> cases;
  const auto add = [&](std::string name, auto decode,
                       std::vector<std::string> samples) {
    cases.push_back({std::move(name),
                     [decode](std::string_view bytes) {
                       return decode(bytes).status();
                     },
                     std::move(samples), true, nullptr});
  };

  CorroborateRequest request;
  request.priority = Priority::kInteractive;
  request.dataset = "restaurants";
  request.algorithm = "TwoEstimate";
  request.timeout_ms = 250;
  request.tenant = "alpha";
  request.options = {{"initial_trust", "0.9"}, {"tie_margin", "0.05"}};
  request.request_id = "req-7";
  add("corroborate_request", DecodeCorroborateRequest,
      {EncodeCorroborateRequest(request, 1),
       EncodeCorroborateRequest(request, 2),
       EncodeCorroborateRequest(request)});

  CorroborateResponse response;
  response.algorithm = "IncEstHeu";
  response.iterations = 3;
  response.fact_probability = {1.0, 0.5, 0.0};
  response.source_trust = {0.75, 0.25};
  std::string tagged = EncodeCorroborateResponse(response);
  AttachRequestId(&tagged, "req-8");
  add("corroborate_response", DecodeCorroborateResponse,
      {EncodeCorroborateResponse(response), tagged});

  add("error_response", DecodeErrorResponse,
      {EncodeErrorResponse({3, "no such dataset", ""})});
  add("overloaded_response", DecodeOverloadedResponse,
      {EncodeOverloadedResponse({20, 9, "queue full", ""})});
  add("quota_exceeded_response", DecodeQuotaExceededResponse,
      {EncodeQuotaExceededResponse({40, "metered", "over quota", ""})});

  BatchRequest batch;
  batch.tenant = "beta";
  batch.items.push_back({"d1", "TwoEstimate", 10, 5, {{"k", "v"}}});
  batch.items.push_back({"d2", "IncEstHeu", 0, 0, {}});
  add("batch_request", DecodeBatchRequest, {EncodeBatchRequest(batch)});

  BatchResponse batch_response;
  batch_response.items.push_back(
      {static_cast<uint8_t>(FrameType::kResultResponse),
       EncodeCorroborateResponse(response)});
  batch_response.items.push_back(
      {static_cast<uint8_t>(FrameType::kErrorResponse),
       EncodeErrorResponse({1, "bad", ""})});
  add("batch_response", DecodeBatchResponse,
      {EncodeBatchResponse(batch_response)});

  add("reload_request", DecodeReloadRequest, {EncodeReloadRequest({"serve"})});
  add("reload_response", DecodeReloadResponse,
      {EncodeReloadResponse({2, 77})});

  ApplyDeltaRequest delta;
  delta.dataset = "serve";
  delta.deltas = {MakeAddSource("carol"),
                  MakeAddVote("carol", "f1", Vote::kTrue),
                  MakeRetractVote("bob", "f2")};
  add("apply_delta_request", DecodeApplyDeltaRequest,
      {EncodeApplyDeltaRequest(delta)});
  add("apply_delta_response", DecodeApplyDeltaResponse,
      {EncodeApplyDeltaResponse({3, 12})});
  add("introspect_request", DecodeIntrospectRequest,
      {EncodeIntrospectRequest({5, 50})});
  return cases;
}

TEST(DecoderRobustnessTest, ProtocolPayloads) {
  const std::vector<DecoderCase> cases = ProtocolCases();
  EXPECT_EQ(cases.size(), 12u);  // one per protocol.h Decode*
  for (const DecoderCase& decoder : cases) Sweep(decoder);
}

std::vector<std::string> FrameSamples() {
  std::vector<std::string> samples;
  for (const auto& [type, payload] :
       std::vector<std::pair<FrameType, std::string>>{
           {FrameType::kPingRequest, ""},
           {FrameType::kReloadRequest,
            EncodeReloadRequest({"serve"})},
           {FrameType::kResultResponse, std::string(64, 'x')}}) {
    samples.push_back(EncodeFrame({type, payload}));
  }
  return samples;
}

TEST(DecoderRobustnessTest, Frames) {
  Sweep({"frame",
         [](std::string_view bytes) {
           return DecodeFrame(bytes).status();
         },
         FrameSamples(), true, nullptr});
}

/// What ReadFrame must report when a peer sends `wire` and closes:
/// DecodeFrame's code on the same bytes, except where the close cuts a
/// frame short. DecodeFrame calls that a truncated ParseError; on a
/// socket it is a mid-frame ConnectionLost, or the boundary IoError
/// when nothing was sent at all.
StatusCode ExpectedReadCode(std::string_view wire) {
  if (wire.empty()) return StatusCode::kIoError;
  if (wire.size() < kFrameHeaderBytes) return StatusCode::kConnectionLost;
  const uint32_t payload_length = LoadU32(wire.data() + 5);
  const bool header_ok = LoadU32(wire.data()) == kFrameMagic &&
                         IsKnownFrameType(static_cast<uint8_t>(wire[4])) &&
                         payload_length <= kMaxFramePayload;
  if (header_ok && wire.size() < kFrameHeaderBytes + size_t{payload_length} +
                                     kFrameTrailerBytes) {
    return StatusCode::kConnectionLost;
  }
  return DecodeFrame(wire).status().code();
}

/// Sends `wire` over a socket pair, closes the sending end and reads
/// one frame back with the socket reader.
Result<WireFrame> ReadFromSocket(std::string_view wire) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  UniqueFd sender(fds[0]);
  UniqueFd receiver(fds[1]);
  // Every sample is far below one socket buffer, so the send never
  // waits for the reader.
  EXPECT_TRUE(WriteAll(sender.get(), wire.data(), wire.size(), StopSignal())
                  .ok());
  sender.Reset();
  return ReadFrame(receiver.get(), StopSignal());
}

TEST(DecoderRobustnessTest, SocketReaderAgreesWithDecodeFrame) {
  // The mutants of the Frames sweep above (every prefix, every u32
  // window forced to 0xFFFFFFFF, the same seeded flips), fed to the
  // socket reader instead of the buffer decoder.
  const std::vector<std::string> samples = FrameSamples();
  int compared = 0;
  const auto check = [&](const std::string& what, std::string_view wire) {
    SCOPED_TRACE(what);
    ++compared;
    size_t consumed = 0;
    const Result<Frame> decoded = DecodeFrame(wire, &consumed);
    const Result<WireFrame> read = ReadFromSocket(wire);
    EXPECT_EQ(read.status().code(), ExpectedReadCode(wire))
        << "read: " << read.status().ToString()
        << "; decode: " << decoded.status().ToString();
    if (read.ok() && decoded.ok()) {
      EXPECT_EQ(read.ValueOrDie().type, decoded.ValueOrDie().type);
      EXPECT_EQ(read.ValueOrDie().bytes, wire.substr(0, consumed));
      EXPECT_EQ(read.ValueOrDie().payload(), decoded.ValueOrDie().payload);
    }
  };
  for (size_t sample = 0; sample < samples.size(); ++sample) {
    const std::string& valid = samples[sample];
    const std::string label = "sample " + std::to_string(sample);
    check(label, valid);
    for (size_t length = 0; length < valid.size(); ++length) {
      check(label + " prefix " + std::to_string(length),
            valid.substr(0, length));
    }
    for (size_t at = 0; at + 4 <= valid.size(); ++at) {
      std::string mutant = valid;
      mutant.replace(at, 4, "\xFF\xFF\xFF\xFF");
      check(label + " u32 at " + std::to_string(at), mutant);
    }
    proptest::ForEachSeed(kSweepSeed + sample, kFlipSeeds, [&](uint64_t seed) {
      Rng rng(seed);
      std::string mutant = valid;
      const int flips = static_cast<int>(rng.UniformInt(1, 3));
      for (int i = 0; i < flips; ++i) {
        const size_t at = rng.NextBelow(mutant.size());
        mutant[at] = static_cast<char>(
            mutant[at] ^ static_cast<char>(rng.UniformInt(1, 255)));
      }
      check(label + " flips", mutant);
    });
  }
  EXPECT_GT(compared, 200);
}

OnlineCorroborator SampleCorroborator() {
  OnlineCorroborator online;
  online.AddSource("a");
  online.AddSource("bb");
  online.AddSource("ccc");
  EXPECT_TRUE(online.Observe({{0, Vote::kTrue}, {1, Vote::kTrue}}).ok());
  EXPECT_TRUE(online.Observe({{0, Vote::kTrue}, {2, Vote::kFalse}}).ok());
  return online;
}

TEST(DecoderRobustnessTest, Checkpoints) {
  // Reseal the payload CRC so mutations reach the payload decoder
  // instead of stopping at the checksum.
  constexpr size_t kHeader = 8 + 4 + 8;
  const auto reseal = [](std::string* bytes) {
    if (bytes->size() < kHeader + 4) return;
    const std::string_view payload =
        std::string_view(*bytes).substr(kHeader, bytes->size() - kHeader - 4);
    std::string crc;
    ByteWriter(&crc).U32(ComputeCrc32(payload));
    bytes->replace(bytes->size() - 4, 4, crc);
  };
  Sweep({"checkpoint",
         [](std::string_view bytes) {
           return ParseOnlineSnapshot(bytes).status();
         },
         {SerializeOnlineSnapshot(SampleCorroborator()),
          SerializeOnlineSnapshot(OnlineCorroborator())},
         true, reseal});
}

TEST(DecoderRobustnessTest, DatasetCsv) {
  // BOM, CRLF and LF rows, a quoted header cell, a doubled quote, a
  // blank line, a repeated fact, padded lower-case votes and no final
  // newline.
  const std::string fixture =
      "\xEF\xBB\xBF"
      "fact,s1,\"s,2\",s3,__truth__\r\n"
      "r1,T,-,F,true\r\n"
      "\"r \"\"2\"\"\",F,T,,false\n"
      "\n"
      "r1,-,T,T,1\n"
      "r3, t ,f,-,0";
  for (const bool lenient : {false, true}) {
    SCOPED_TRACE(lenient ? "lenient" : "strict");
    DatasetCsvOptions options;
    options.lenient = lenient;
    const auto decode = [options](std::string_view bytes) {
      return ParseDatasetCsv(std::string(bytes), options).status();
    };
    // A prefix that ends between rows is a valid, shorter dataset.
    Sweep({"dataset csv", decode, {fixture}, false, nullptr});
    for (size_t at = 0; at <= fixture.size(); ++at) {
      for (const char injected : {'"', '\r'}) {
        std::string mutant = fixture;
        mutant.insert(at, 1, injected);
        ExpectTyped(decode(mutant), "injected at " + std::to_string(at));
      }
    }
  }
}

/// Fresh WAL directory per test; InspectWal reads what each mutant
/// writes into it.
class WalRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/decoder_robustness_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(::getpid());
    Clear();
    ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0);
    // Every torn-tail mutant would log a WARNING.
    saved_level_ = internal_logging::MinLogLevel();
    internal_logging::SetMinLogLevel(internal_logging::LogLevel::kError);
  }
  void TearDown() override {
    internal_logging::SetMinLogLevel(saved_level_);
    Clear();
  }

  void Clear() const {
    DIR* handle = ::opendir(dir_.c_str());
    if (handle == nullptr) return;
    std::vector<std::string> names;
    for (struct dirent* entry = ::readdir(handle); entry != nullptr;
         entry = ::readdir(handle)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    ::closedir(handle);
    for (const std::string& name : names) {
      ::unlink((dir_ + "/" + name).c_str());
    }
    ::rmdir(dir_.c_str());
  }

  /// Writes `bytes` as the directory's only file `name` and recovers.
  Status InspectAs(const std::string& name, std::string_view bytes) const {
    Clear();
    EXPECT_EQ(::mkdir(dir_.c_str(), 0755), 0);
    EXPECT_TRUE(WriteStringToFile(dir_ + "/" + name, std::string(bytes)).ok());
    return InspectWal(dir_).status();
  }

  std::string dir_;
  internal_logging::LogLevel saved_level_ = internal_logging::LogLevel::kInfo;
};

TEST_F(WalRobustnessTest, SegmentRecovery) {
  const std::vector<WalRecord> batch = {
      MakeAddSource("s3"), MakeAddVote("s3", "f2", Vote::kFalse),
      MakeRetractVote("s1", "f1")};
  const std::string segment =
      wal_internal::SegmentHeader() +
      wal_internal::EncodeRecord(MakeAddVote("s1", "f1", Vote::kTrue)) +
      wal_internal::EncodeRecord(MakeRetractVote("s2", "f1")) +
      wal_internal::EncodeBatchRecord(batch);
  // Reseal every record whose frame still fits, so a forced length or
  // count inside a payload reaches the record decoder rather than the
  // torn-tail check. Record: u8 type, u32 length, payload, u32 CRC of
  // everything before it.
  const auto reseal = [](std::string* bytes) {
    size_t offset = wal_internal::SegmentHeader().size();
    while (offset + 5 + 4 <= bytes->size()) {
      const uint32_t length = LoadU32(bytes->data() + offset + 1);
      if (length > bytes->size() - offset - 5 - 4) return;
      std::string crc;
      ByteWriter(&crc).U32(
          ComputeCrc32(std::string_view(*bytes).substr(offset, 5 + length)));
      bytes->replace(offset + 5 + length, 4, crc);
      offset += 5 + length + 4;
    }
  };
  // A strict prefix of the final segment is a torn tail, which
  // recovery repairs, so prefixes need only be typed.
  Sweep({"wal segment",
         [this](std::string_view bytes) {
           return InspectAs(wal_internal::SegmentFileName(0), bytes);
         },
         {segment}, false, reseal});
}

TEST_F(WalRobustnessTest, SnapshotRecovery) {
  {
    WalOptions options;
    options.fsync_policy = WalFsyncPolicy::kNever;
    Result<WalWriter> writer = WalWriter::Open(dir_, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(
        writer.ValueOrDie().Compact("source,fact,vote\ns1,f1,T\n", 1).ok());
  }
  Result<std::string> snapshot = ReadFileToString(dir_ + "/snapshot.snap");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  // Snapshot: magic, u32 version, u64 seq, u64 size, payload, u32 CRC.
  constexpr size_t kHeader = 8 + 4 + 8 + 8;
  const auto reseal = [](std::string* bytes) {
    if (bytes->size() < kHeader + 4) return;
    std::string crc;
    ByteWriter(&crc).U32(ComputeCrc32(
        std::string_view(*bytes).substr(kHeader, bytes->size() - kHeader - 4)));
    bytes->replace(bytes->size() - 4, 4, crc);
  };
  Sweep({"wal snapshot",
         [this](std::string_view bytes) {
           return InspectAs("snapshot.snap", bytes);
         },
         {snapshot.ValueOrDie()}, true, reseal});
}

}  // namespace
}  // namespace server
}  // namespace corrob
