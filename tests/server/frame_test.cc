#include "server/frame.h"

#include <sys/socket.h>
#include <unistd.h>

#include <iterator>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/failpoint.h"
#include "common/socket.h"
#include "obs/clock.h"

namespace corrob {
namespace server {
namespace {

StopSignal NoStop() { return StopSignal(); }

/// A connected AF_UNIX socket pair; both ends close on destruction.
struct SocketPair {
  UniqueFd a;
  UniqueFd b;
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a.Reset(fds[0]);
    b.Reset(fds[1]);
  }
};

TEST(FrameCodecTest, EncodeDecodeRoundTrip) {
  Frame frame;
  frame.type = FrameType::kCorroborateRequest;
  frame.payload = std::string("hello\0world", 11);
  const std::string wire = EncodeFrame(frame);
  EXPECT_EQ(wire.size(),
            kFrameHeaderBytes + frame.payload.size() + kFrameTrailerBytes);

  size_t consumed = 0;
  Result<Frame> decoded = DecodeFrame(wire, &consumed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(decoded.ValueOrDie().type, frame.type);
  EXPECT_EQ(decoded.ValueOrDie().payload, frame.payload);
}

TEST(FrameCodecTest, EmptyPayloadRoundTrips) {
  Frame frame;
  frame.type = FrameType::kPingRequest;
  Result<Frame> decoded = DecodeFrame(EncodeFrame(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.ValueOrDie().payload.empty());
}

TEST(FrameCodecTest, BadMagicIsParseError) {
  std::string wire = EncodeFrame({FrameType::kPingRequest, "x"});
  wire[0] = 'Z';
  Result<Frame> decoded = DecodeFrame(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  EXPECT_NE(decoded.status().message().find("magic"), std::string::npos);
}

TEST(FrameCodecTest, IntrospectFrameTypesAreKnownAndRoundTrip) {
  EXPECT_TRUE(IsKnownFrameType(static_cast<uint8_t>(0x06)));
  EXPECT_TRUE(IsKnownFrameType(static_cast<uint8_t>(0x89)));
  EXPECT_EQ(FrameTypeName(FrameType::kIntrospectRequest),
            std::string_view("introspect_request"));
  EXPECT_EQ(FrameTypeName(FrameType::kIntrospectResponse),
            std::string_view("introspect_response"));
  for (const FrameType type :
       {FrameType::kIntrospectRequest, FrameType::kIntrospectResponse}) {
    Frame frame;
    frame.type = type;
    frame.payload = "payload";
    Result<Frame> decoded = DecodeFrame(EncodeFrame(frame));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.ValueOrDie().type, type);
    EXPECT_EQ(decoded.ValueOrDie().payload, "payload");
  }
}

TEST(FrameCodecTest, UnknownTypeIsInvalidArgument) {
  std::string wire = EncodeFrame({FrameType::kPingRequest, "x"});
  wire[4] = 0x7F;  // not a FrameType value
  Result<Frame> decoded = DecodeFrame(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameCodecTest, OversizedLengthRejectedBeforeAllocation) {
  std::string wire = EncodeFrame({FrameType::kPingRequest, ""});
  // Announce a payload far over the cap; the frame itself stays tiny.
  wire[5] = static_cast<char>(0xFF);
  wire[6] = static_cast<char>(0xFF);
  wire[7] = static_cast<char>(0xFF);
  wire[8] = static_cast<char>(0xFF);
  Result<Frame> decoded = DecodeFrame(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("cap"), std::string::npos);
}

TEST(FrameCodecTest, TruncationAtEveryBoundaryIsParseError) {
  const std::string wire =
      EncodeFrame({FrameType::kCorroborateRequest, "payload"});
  for (size_t length = 0; length < wire.size(); ++length) {
    Result<Frame> decoded = DecodeFrame(wire.substr(0, length));
    ASSERT_FALSE(decoded.ok()) << "length " << length;
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError)
        << "length " << length;
  }
}

TEST(FrameCodecTest, CorruptedPayloadFailsChecksum) {
  std::string wire = EncodeFrame({FrameType::kPingRequest, "payload"});
  wire[kFrameHeaderBytes] ^= 0x01;  // flip one payload bit
  Result<Frame> decoded = DecodeFrame(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  EXPECT_NE(decoded.status().message().find("checksum"), std::string::npos);
}

TEST(FrameCodecTest, ChecksumCoversTypeByte) {
  std::string wire = EncodeFrame({FrameType::kPingRequest, "payload"});
  wire[4] = static_cast<char>(FrameType::kStatsRequest);  // also valid
  Result<Frame> decoded = DecodeFrame(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(FrameSocketTest, WriteThenReadAcrossSocket) {
  SocketPair pair;
  Frame frame;
  frame.type = FrameType::kResultResponse;
  frame.payload.assign(100000, 'x');  // larger than one send buffer
  std::thread writer([&] {
    Status written = WriteFrame(pair.a.get(), frame, NoStop());
    EXPECT_TRUE(written.ok()) << written.ToString();
    pair.a.Reset();
  });
  Result<WireFrame> read = ReadFrame(pair.b.get(), NoStop());
  writer.join();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.ValueOrDie().payload(), frame.payload);
}

TEST(FrameSocketTest, CleanCloseOnBoundaryIsEofNotError) {
  SocketPair pair;
  pair.a.Reset();  // close without sending anything
  Result<std::optional<WireFrame>> read =
      ReadFrameOrEof(pair.b.get(), NoStop());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_FALSE(read.ValueOrDie().has_value());
  // The strict variant reports the same close as a typed IoError.
  SocketPair strict;
  strict.a.Reset();
  Result<WireFrame> frame = ReadFrame(strict.b.get(), NoStop());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kIoError);
}

TEST(FrameSocketTest, MidFrameDisconnectIsConnectionLost) {
  SocketPair pair;
  const std::string wire =
      EncodeFrame({FrameType::kCorroborateRequest, "abcdefgh"});
  // Send only part of the frame, then vanish: a typed ConnectionLost,
  // distinct from the boundary-close IoError, so clients can tell a
  // dropped in-flight message from a peer that never answered.
  ASSERT_EQ(::send(pair.a.get(), wire.data(), kFrameHeaderBytes + 3,
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(kFrameHeaderBytes + 3));
  pair.a.Reset();
  Result<WireFrame> read = ReadFrame(pair.b.get(), NoStop());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kConnectionLost);
  EXPECT_NE(read.status().message().find("mid-read"), std::string::npos);
}

TEST(FrameSocketTest, HeaderOnlyDisconnectIsConnectionLost) {
  SocketPair pair;
  const std::string wire =
      EncodeFrame({FrameType::kCorroborateRequest, "abcdefgh"});
  // The peer dies exactly on the header/payload boundary: the frame
  // was announced and never delivered, which is still a mid-frame
  // death, not a clean goodbye.
  ASSERT_EQ(::send(pair.a.get(), wire.data(), kFrameHeaderBytes,
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(kFrameHeaderBytes));
  pair.a.Reset();
  Result<WireFrame> read = ReadFrame(pair.b.get(), NoStop());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kConnectionLost);
  EXPECT_NE(read.status().message().find("mid-frame"), std::string::npos);
}

TEST(FrameSocketTest, ReadBytesAreTheEncodedFrame) {
  // Payload sizes around the reader's first buffer: empty, small, a
  // frame that exactly fills kFrameReadChunkBytes, one byte more (one
  // regrowth) and several times more (repeated regrowth).
  const size_t fill = kFrameReadChunkBytes - kFrameHeaderBytes -
                      kFrameTrailerBytes;
  const FrameType types[] = {FrameType::kResultResponse,
                             FrameType::kPingRequest,
                             FrameType::kCorroborateRequest,
                             FrameType::kStatsResponse};
  uint64_t state = 0x5EED;
  size_t round = 0;
  for (const size_t length :
       {size_t{0}, size_t{1}, size_t{4095}, fill, fill + 1,
        3 * kFrameReadChunkBytes + 17}) {
    SCOPED_TRACE("payload " + std::to_string(length));
    Frame frame;
    frame.type = types[round++ % std::size(types)];
    frame.payload.resize(length);
    for (char& c : frame.payload) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      c = static_cast<char>(state >> 56);
    }
    SocketPair pair;
    std::thread writer([&] {
      Status written = WriteFrame(pair.a.get(), frame, NoStop());
      EXPECT_TRUE(written.ok()) << written.ToString();
    });
    Result<WireFrame> read = ReadFrame(pair.b.get(), NoStop());
    writer.join();
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    const std::string wire = EncodeFrame(frame);
    Result<Frame> decoded = DecodeFrame(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(read.ValueOrDie().type, frame.type);
    EXPECT_TRUE(read.ValueOrDie().bytes == wire);
    EXPECT_TRUE(read.ValueOrDie().payload() == decoded.ValueOrDie().payload);
  }
}

TEST(FrameSocketTest, GarbageBytesAreParseErrorNotCrash) {
  SocketPair pair;
  const std::string garbage(64, '\x5A');
  ASSERT_EQ(::send(pair.a.get(), garbage.data(), garbage.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));
  Result<WireFrame> read = ReadFrame(pair.b.get(), NoStop());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kParseError);
}

TEST(FrameSocketTest, CancelledStopUnblocksRead) {
  SocketPair pair;
  CancellationToken token;
  const StopSignal stop(&token, Deadline());
  std::thread canceller([&] {
    (void)token.WaitForMs(30);
    token.Cancel();
  });
  // No bytes ever arrive; the read must return instead of hanging.
  Result<WireFrame> read = ReadFrame(pair.b.get(), stop);
  canceller.join();
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCancelled);
}

TEST(FrameSocketTest, ExpiredDeadlineUnblocksRead) {
  SocketPair pair;
  obs::ManualClock clock;
  const StopSignal stop(nullptr, Deadline::After(&clock, 1));
  clock.AdvanceNanos(2);
  Result<WireFrame> read = ReadFrame(pair.b.get(), stop);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCancelled);
}

TEST(FrameSocketTest, ReadAndWriteFailpointsInjectTypedErrors) {
  ScopedFailpointDisarmer disarm;
  SocketPair pair;
  Failpoints::Arm("server.frame.read",
                  {.code = StatusCode::kIoError, .message = "injected"});
  Result<WireFrame> read = ReadFrame(pair.b.get(), NoStop());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  EXPECT_EQ(read.status().message(), "injected");

  Failpoints::Arm("server.frame.write",
                  {.code = StatusCode::kIoError, .message = "injected"});
  Status written =
      WriteFrame(pair.a.get(), {FrameType::kPingRequest, ""}, NoStop());
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace server
}  // namespace corrob
