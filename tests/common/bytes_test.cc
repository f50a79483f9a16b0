#include <dirent.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/csv.h"
#include "core/online_checkpoint.h"
#include "data/wal.h"
#include "server/frame.h"
#include "server/protocol.h"

// Every format corrob persists or ships shares one little-endian
// layout. The golden encodings below pin one example of each format
// byte for byte, so a change to any encoder (or to the shared codec
// under them) that moves a single byte fails here, and each golden
// decodes and re-encodes to itself.

namespace corrob {
namespace {

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0x0F]);
  }
  return out;
}

std::string Unhex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

// ---------------------------------------------------------------
// Golden encodings, one per format.
// ---------------------------------------------------------------

constexpr std::string_view kGoldenFrame = "435242318106000000636f72726f62650095f1";
constexpr std::string_view kGoldenCorroborateRequestV3 =
    "0300fa000000280000000b00000072657374617572616e74730b00000054776f"
    "457374696d61746505000000616c706861020000000d000000696e697469616c"
    "5f747275737403000000302e390a0000007469655f6d617267696e0400000030"
    "2e3035050000007265712d37";
constexpr std::string_view kGoldenResultResponse =
    "0109000000496e63457374486575010c00000003000000000000000000f03f00"
    "0000000000e03f000000000000000002000000000000000000e83f0000000000"
    "0004c0";
constexpr std::string_view kGoldenApplyDeltaRequest =
    "040500000073657276650300000001050000006361726f6c000000002d020500"
    "00006361726f6c020000006631540303000000626f620200000066322d";
constexpr std::string_view kGoldenWalSegment =
    "434f52524f42574c02000000020d00000002000000733102000000663154802a"
    "fae1030c00000002000000733202000000663176a8fee3052100000002000000"
    "0106000000020000007333020d00000002000000733302000000663246821287"
    "32";
constexpr std::string_view kGoldenWalSnapshot =
    "434f52524f4257530200000001000000000000001900000000000000736f7572"
    "63652c666163742c766f74650a73312c66312c540a5b9eccf1";
constexpr std::string_view kGoldenCheckpointV2 =
    "434f52524f42534e020000006600000000000000000000000000e83f00000000"
    "00000040000000000000c03f0200000000000000020000000100000061000000"
    "000000f03f000000000000f03f0100000062000000000000f03f000000000000"
    "f03f020000000000000000000000000000000100000000000000d510cc29";

TEST(GoldenBytesTest, FrameIsPinned) {
  server::Frame frame;
  frame.type = server::FrameType::kResultResponse;
  frame.payload = "corrob";
  const std::string wire = server::EncodeFrame(frame);
  EXPECT_EQ(Hex(wire), kGoldenFrame);

  size_t consumed = 0;
  Result<server::Frame> decoded =
      server::DecodeFrame(Unhex(kGoldenFrame), &consumed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(consumed, kGoldenFrame.size() / 2);
  EXPECT_EQ(decoded.ValueOrDie().type, frame.type);
  EXPECT_EQ(decoded.ValueOrDie().payload, frame.payload);
}

TEST(GoldenBytesTest, CorroborateRequestV3IsPinned) {
  server::CorroborateRequest request;
  request.priority = server::Priority::kInteractive;
  request.dataset = "restaurants";
  request.algorithm = "TwoEstimate";
  request.timeout_ms = 250;
  request.max_rounds = 40;
  request.tenant = "alpha";
  // Deliberately unsorted: the encoder writes options in key order.
  request.options = {{"tie_margin", "0.05"}, {"initial_trust", "0.9"}};
  request.request_id = "req-7";
  EXPECT_EQ(Hex(server::EncodeCorroborateRequest(request)),
            kGoldenCorroborateRequestV3);

  Result<server::CorroborateRequest> decoded =
      server::DecodeCorroborateRequest(Unhex(kGoldenCorroborateRequestV3));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(Hex(server::EncodeCorroborateRequest(decoded.ValueOrDie())),
            kGoldenCorroborateRequestV3);
  EXPECT_EQ(decoded.ValueOrDie().request_id, "req-7");
}

TEST(GoldenBytesTest, ResultResponseIsPinned) {
  server::CorroborateResponse response;
  response.algorithm = "IncEstHeu";
  response.termination = 1;
  response.iterations = 12;
  response.fact_probability = {1.0, 0.5, 0.0};
  response.source_trust = {0.75, -2.5};
  EXPECT_EQ(Hex(server::EncodeCorroborateResponse(response)),
            kGoldenResultResponse);

  Result<server::CorroborateResponse> decoded =
      server::DecodeCorroborateResponse(Unhex(kGoldenResultResponse));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(Hex(server::EncodeCorroborateResponse(decoded.ValueOrDie())),
            kGoldenResultResponse);
}

TEST(GoldenBytesTest, ApplyDeltaRequestIsPinned) {
  server::ApplyDeltaRequest request;
  request.dataset = "serve";
  request.deltas = {MakeAddSource("carol"),
                    MakeAddVote("carol", "f1", Vote::kTrue),
                    MakeRetractVote("bob", "f2")};
  EXPECT_EQ(Hex(server::EncodeApplyDeltaRequest(request)),
            kGoldenApplyDeltaRequest);

  Result<server::ApplyDeltaRequest> decoded =
      server::DecodeApplyDeltaRequest(Unhex(kGoldenApplyDeltaRequest));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(Hex(server::EncodeApplyDeltaRequest(decoded.ValueOrDie())),
            kGoldenApplyDeltaRequest);
}

/// A WAL directory under the test temp dir, emptied before and after.
class GoldenWalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/golden_bytes_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(::getpid());
    Clear();
  }
  void TearDown() override { Clear(); }

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

  static WalOptions Options() {
    WalOptions options;
    options.fsync_policy = WalFsyncPolicy::kNever;
    return options;
  }

  std::string ReadFile(const std::string& name) const {
    Result<std::string> contents = ReadFileToString(dir_ + "/" + name);
    EXPECT_TRUE(contents.ok()) << contents.status().ToString();
    return contents.ok() ? contents.ValueOrDie() : std::string();
  }

  std::string dir_;
};

TEST_F(GoldenWalTest, SegmentIsPinned) {
  {
    Result<WalWriter> writer = WalWriter::Open(dir_, Options());
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(
        writer.ValueOrDie().Append(MakeAddVote("s1", "f1", Vote::kTrue)).ok());
    ASSERT_TRUE(writer.ValueOrDie().Append(MakeRetractVote("s2", "f1")).ok());
    const std::vector<WalRecord> batch = {
        MakeAddSource("s3"), MakeAddVote("s3", "f2", Vote::kFalse)};
    ASSERT_TRUE(writer.ValueOrDie().AppendBatch(batch).ok());
  }
  const std::string segment = ReadFile(wal_internal::SegmentFileName(0));
  EXPECT_EQ(Hex(segment), kGoldenWalSegment);

  Result<WalRecovery> recovery = InspectWal(dir_);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  const std::vector<WalRecord>& records = recovery.ValueOrDie().records;
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].type, WalRecordType::kAddVote);
  EXPECT_EQ(records[1].type, WalRecordType::kRetractVote);
  EXPECT_EQ(records[2].type, WalRecordType::kAddSource);
  EXPECT_EQ(records[3].vote, Vote::kFalse);
}

TEST_F(GoldenWalTest, SnapshotIsPinned) {
  {
    Result<WalWriter> writer = WalWriter::Open(dir_, Options());
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer.ValueOrDie().Compact("source,fact,vote\ns1,f1,T\n", 3)
                    .ok());
  }
  EXPECT_EQ(Hex(ReadFile("snapshot.snap")), kGoldenWalSnapshot);

  Result<WalRecovery> recovery = InspectWal(dir_);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_TRUE(recovery.ValueOrDie().has_snapshot);
  EXPECT_EQ(recovery.ValueOrDie().snapshot_seq, 1u);
  EXPECT_EQ(recovery.ValueOrDie().snapshot_csv, "source,fact,vote\ns1,f1,T\n");
}

TEST(GoldenBytesTest, CheckpointV2IsPinned) {
  OnlineCorroboratorOptions options;
  options.initial_trust = 0.75;
  options.trust_prior_weight = 2.0;
  options.tie_margin = 0.125;
  OnlineCorroborator online(options);
  online.AddSource("a");
  online.AddSource("b");
  ASSERT_TRUE(online.Observe({{0, Vote::kTrue}, {1, Vote::kTrue}}).ok());
  ASSERT_TRUE(online.Observe({{0, Vote::kTrue}, {1, Vote::kFalse}}).ok());
  const std::string snapshot = SerializeOnlineSnapshot(online);
  EXPECT_EQ(Hex(snapshot), kGoldenCheckpointV2);

  Result<OnlineCorroborator> restored =
      ParseOnlineSnapshot(Unhex(kGoldenCheckpointV2));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(Hex(SerializeOnlineSnapshot(restored.ValueOrDie())),
            kGoldenCheckpointV2);
}

// ---------------------------------------------------------------
// ByteWriter / ByteReader (common/bytes.h), the codec under every
// format above.
// ---------------------------------------------------------------

TEST(ByteCodecTest, WriterLayoutIsLittleEndian) {
  std::string out;
  ByteWriter writer(&out);
  writer.U8(0xAB);
  writer.U32(0x04030201u);
  writer.U64(0x0807060504030201ull);
  writer.F64(1.0);
  writer.Str("hi");
  writer.Raw("xy");
  EXPECT_EQ(Hex(out),
            "ab"
            "01020304"
            "0102030405060708"
            "000000000000f03f"
            "020000006869"
            "7879");
  EXPECT_EQ(LoadU32(out.data() + 1), 0x04030201u);
  EXPECT_EQ(LoadU64(out.data() + 5), 0x0807060504030201ull);
  EXPECT_EQ(LoadF64(out.data() + 13), 1.0);
}

TEST(ByteCodecTest, RoundTripsEveryFieldKind) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::string out;
  ByteWriter writer(&out);
  writer.U8(0);
  writer.U8(255);
  writer.U32(0);
  writer.U32(0xFFFFFFFFu);
  writer.U64(0xFFFFFFFFFFFFFFFFull);
  writer.F64(-0.0);
  writer.F64(nan);
  writer.F64(-inf);
  writer.F64(0.1);
  writer.Str("");
  writer.Str(std::string("a\0b", 3));
  writer.Raw("tail");

  ByteReader reader(out);
  EXPECT_EQ(reader.U8(), 0);
  EXPECT_EQ(reader.U8(), 255);
  EXPECT_EQ(reader.U32(), 0u);
  EXPECT_EQ(reader.U32(), 0xFFFFFFFFu);
  EXPECT_EQ(reader.U64(), 0xFFFFFFFFFFFFFFFFull);
  const double negative_zero = reader.F64();
  EXPECT_EQ(negative_zero, 0.0);
  EXPECT_TRUE(std::signbit(negative_zero));
  EXPECT_TRUE(std::isnan(reader.F64()));
  EXPECT_EQ(reader.F64(), -inf);
  EXPECT_EQ(reader.F64(), 0.1);
  EXPECT_EQ(reader.Str(), "");
  EXPECT_EQ(reader.Str(), std::string_view("a\0b", 3));
  EXPECT_EQ(reader.remaining(), 4u);
  EXPECT_EQ(reader.Raw(4), "tail");
  EXPECT_TRUE(reader.Finish().ok()) << reader.Finish().ToString();
}

TEST(ByteCodecTest, FirstUnderrunLatchesAndNamesTheRead) {
  std::string out;
  ByteWriter writer(&out);
  writer.U8(7);
  writer.U8(8);
  writer.U8(9);
  ByteReader reader(out, "test record");
  EXPECT_EQ(reader.U8(), 7);
  EXPECT_EQ(reader.U32(), 0u);  // 2 bytes left: underrun
  ASSERT_FALSE(reader.ok());
  const Status first = reader.status();
  EXPECT_EQ(first.code(), StatusCode::kParseError);
  EXPECT_NE(first.message().find("test record"), std::string::npos) << first;
  EXPECT_NE(first.message().find("u32"), std::string::npos) << first;
  EXPECT_NE(first.message().find("offset 1"), std::string::npos) << first;

  // Latched: even reads that would fit now return zero values, and
  // the first error is the one reported.
  EXPECT_EQ(reader.U8(), 0);
  EXPECT_EQ(reader.Str(), "");
  EXPECT_EQ(reader.Raw(1), "");
  EXPECT_EQ(reader.Count(1), 0u);
  EXPECT_EQ(reader.status().message(), first.message());
  EXPECT_EQ(reader.Finish().message(), first.message());
}

TEST(ByteCodecTest, StringBodyUnderrunLatches) {
  std::string out;
  ByteWriter writer(&out);
  writer.U32(10);
  writer.Raw("abc");
  ByteReader reader(out);
  EXPECT_EQ(reader.Str(), "");
  EXPECT_EQ(reader.status().code(), StatusCode::kParseError);
  EXPECT_NE(reader.status().message().find("string body"), std::string::npos)
      << reader.status();
}

TEST(ByteCodecTest, CountRejectsWhatTheRemainingBytesCannotHold) {
  std::string out;
  ByteWriter writer(&out);
  writer.U32(3);
  writer.Raw("0123456789");  // 10 bytes behind the count
  {
    ByteReader reader(out);
    EXPECT_EQ(reader.Count(3), 3u);  // 9 <= 10
    EXPECT_TRUE(reader.ok());
  }
  {
    ByteReader reader(out);
    EXPECT_EQ(reader.Count(4), 0u);  // 12 > 10
    EXPECT_EQ(reader.status().code(), StatusCode::kParseError);
    EXPECT_NE(reader.status().message().find("count 3"), std::string::npos)
        << reader.status();
  }
  std::string huge;
  ByteWriter(&huge).U32(0xFFFFFFFFu);
  ByteReader reader(huge);
  EXPECT_EQ(reader.Count(1), 0u);
  EXPECT_EQ(reader.status().code(), StatusCode::kParseError);
}

TEST(ByteCodecTest, FinishReportsTrailingBytes) {
  ByteReader reader("abc");
  EXPECT_EQ(reader.U8(), 'a');
  EXPECT_TRUE(reader.ok());
  const Status finish = reader.Finish();
  EXPECT_EQ(finish.code(), StatusCode::kParseError);
  EXPECT_NE(finish.message().find("2 trailing bytes"), std::string::npos)
      << finish;
  EXPECT_EQ(reader.Raw(2), "bc");
  EXPECT_TRUE(reader.Finish().ok());
}

// ---------------------------------------------------------------
// The bulk f64 array path against the one-value-at-a-time path it
// replaces.
// ---------------------------------------------------------------

/// Bit patterns a bulk copy must carry untouched: quiet and signalling
/// NaNs with payloads and either sign, signed zeros, the smallest and
/// largest denormals, infinities and the normal extremes.
std::vector<uint64_t> SpecialF64Bits() {
  return {0x7FF8000000000000ull, 0xFFF8000000000000ull,
          0x7FF8DEADBEEF0001ull, 0xFFF0000000000001ull,
          0x7FF0000000000001ull, 0x7FF7FFFFFFFFFFFFull,
          0x0000000000000000ull, 0x8000000000000000ull,
          0x0000000000000001ull, 0x8000000000000001ull,
          0x000FFFFFFFFFFFFFull, 0x800FFFFFFFFFFFFFull,
          0x7FF0000000000000ull, 0xFFF0000000000000ull,
          0x7FEFFFFFFFFFFFFFull, 0x0010000000000000ull,
          0x3FF0000000000000ull, 0xBFB999999999999Aull};
}

/// SpecialF64Bits, then `extra` seeded arbitrary patterns.
std::vector<double> F64Sample(size_t extra) {
  std::vector<uint64_t> bits = SpecialF64Bits();
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < extra; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    bits.push_back(state ^ (state >> 29));
  }
  std::vector<double> values;
  for (const uint64_t b : bits) values.push_back(std::bit_cast<double>(b));
  return values;
}

std::vector<uint64_t> BitsOf(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  for (const double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

/// The element-wise u32-counted array read the bulk path replaced.
std::vector<double> ReadCountedF64sOneByOne(ByteReader& reader) {
  const uint32_t count = reader.Count(8);
  const std::string_view bytes = reader.Raw(size_t{count} * 8, "f64 array");
  std::vector<double> out(count);
  for (size_t i = 0; i < count; ++i) out[i] = LoadF64(bytes.data() + 8 * i);
  return out;
}

std::vector<double> ReadCountedF64sInBulk(ByteReader& reader) {
  std::vector<double> out(reader.Count(8));
  reader.F64Array(out);
  return out;
}

TEST(ByteCodecTest, BulkF64ArrayIsBitExactWithTheElementLoop) {
  for (const size_t extra : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
    const std::vector<double> values = F64Sample(extra);
    std::string one_by_one;
    ByteWriter element_writer(&one_by_one);
    for (const double v : values) element_writer.F64(v);
    std::string bulk;
    ByteWriter(&bulk).F64Array(values);
    EXPECT_EQ(bulk, one_by_one) << values.size() << " values";

    ByteReader element_reader(one_by_one);
    std::vector<double> read_one_by_one;
    for (size_t i = 0; i < values.size(); ++i) {
      read_one_by_one.push_back(element_reader.F64());
    }
    ByteReader bulk_reader(one_by_one);
    std::vector<double> read_bulk(values.size());
    bulk_reader.F64Array(read_bulk);
    EXPECT_TRUE(bulk_reader.Finish().ok()) << bulk_reader.Finish();
    EXPECT_EQ(BitsOf(read_bulk), BitsOf(read_one_by_one));
    EXPECT_EQ(BitsOf(read_bulk), BitsOf(values));
  }
  std::string empty;
  ByteWriter(&empty).F64Array({});
  EXPECT_TRUE(empty.empty());
}

TEST(ByteCodecTest, BulkF64ArrayFailsLikeTheElementLoop) {
  const std::vector<double> values = F64Sample(5);
  std::string valid;
  ByteWriter writer(&valid);
  writer.U32(static_cast<uint32_t>(values.size()));
  writer.F64Array(values);

  std::vector<std::string> inputs;
  for (size_t length = 0; length <= valid.size(); ++length) {
    inputs.push_back(valid.substr(0, length));  // every truncation
  }
  for (const uint32_t count :
       {static_cast<uint32_t>(values.size() + 1), 0x1FFFFFFFu, 0xFFFFFFFFu}) {
    std::string over_count = valid;  // a count the bytes cannot hold
    std::string prefix;
    ByteWriter(&prefix).U32(count);
    over_count.replace(0, 4, prefix);
    inputs.push_back(over_count);
  }
  for (const std::string& input : inputs) {
    SCOPED_TRACE(Hex(input.substr(0, 8)) + " (" +
                 std::to_string(input.size()) + " bytes)");
    ByteReader element_reader(input);
    const std::vector<double> one_by_one =
        ReadCountedF64sOneByOne(element_reader);
    ByteReader bulk_reader(input);
    const std::vector<double> bulk = ReadCountedF64sInBulk(bulk_reader);
    EXPECT_EQ(bulk_reader.status().code(), element_reader.status().code());
    EXPECT_EQ(bulk_reader.status().message(),
              element_reader.status().message());
    EXPECT_EQ(BitsOf(bulk), BitsOf(one_by_one));
  }

  // An array read past the end latches a ParseError naming the read
  // and hands back zeros, like every other field kind.
  std::string short_bytes;
  ByteWriter(&short_bytes).F64(1.5);
  ByteReader reader(short_bytes, "test record");
  std::vector<double> out = {7.0, 7.0};
  reader.F64Array(out);
  EXPECT_EQ(reader.status().code(), StatusCode::kParseError);
  EXPECT_NE(reader.status().message().find("f64 array"), std::string::npos)
      << reader.status();
  EXPECT_EQ(out, std::vector<double>({0.0, 0.0}));
}

}  // namespace
}  // namespace corrob
