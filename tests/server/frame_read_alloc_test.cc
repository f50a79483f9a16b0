#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <new>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/bytes.h"
#include "common/socket.h"
#include "server/frame.h"

// How much memory ReadFrame commits for a frame that has not arrived.
// A frame header may announce up to kMaxFramePayload bytes; a peer
// that sends only the header must not make the reader allocate them.
// This binary replaces the global operator new to record the largest
// single allocation made by a thread that opted in, which is why it is
// its own executable: no other test runs under the replacement.

namespace {

thread_local bool recording = false;
thread_local size_t largest_allocation = 0;

}  // namespace

void* operator new(size_t size) {
  if (recording && size > largest_allocation) largest_allocation = size;
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, size_t) noexcept { std::free(block); }

namespace corrob {
namespace server {
namespace {

/// ReadFrame on `fd`; `*largest` is the largest single allocation
/// the read made.
Result<WireFrame> ReadFrameMeasured(int fd, size_t* largest) {
  largest_allocation = 0;
  recording = true;
  Result<WireFrame> read = ReadFrame(fd, StopSignal());
  recording = false;
  *largest = largest_allocation;
  return read;
}

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

std::string HeaderAnnouncing(uint32_t payload_length) {
  std::string header;
  ByteWriter writer(&header);
  writer.U32(kFrameMagic);
  writer.U8(static_cast<uint8_t>(FrameType::kCorroborateRequest));
  writer.U32(payload_length);
  return header;
}

TEST(FrameReadAllocationTest, BareHeaderCommitsOneChunkNotTheAnnouncedSize) {
  SocketPair pair;
  const std::string header = HeaderAnnouncing(kMaxFramePayload);
  ASSERT_EQ(::send(pair.a.get(), header.data(), header.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(header.size()));
  pair.a.Reset();
  size_t largest = 0;
  Result<WireFrame> read = ReadFrameMeasured(pair.b.get(), &largest);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kConnectionLost);
  // The hook saw the first buffer, so it works; nothing near the
  // announced 64 MiB was requested.
  EXPECT_GE(largest, kFrameReadChunkBytes);
  EXPECT_LT(largest, 2 * kFrameReadChunkBytes);
}

TEST(FrameReadAllocationTest, BufferGrowsOnlyAsBytesArrive) {
  // 1.5 chunks of a 64 MiB frame arrive before the peer dies: the
  // buffer doubles once, to two chunks, and no further.
  SocketPair pair;
  std::string partial = HeaderAnnouncing(kMaxFramePayload);
  partial.append(kFrameReadChunkBytes + kFrameReadChunkBytes / 2, 'x');
  std::thread writer([&] {
    Status written = WriteAll(pair.a.get(), partial.data(), partial.size(),
                              StopSignal());
    EXPECT_TRUE(written.ok()) << written.ToString();
    pair.a.Reset();
  });
  size_t largest = 0;
  Result<WireFrame> read = ReadFrameMeasured(pair.b.get(), &largest);
  writer.join();
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kConnectionLost);
  EXPECT_GE(largest, 2 * kFrameReadChunkBytes);
  EXPECT_LT(largest, 4 * kFrameReadChunkBytes);
}

TEST(FrameReadAllocationTest, FrameWithinOneChunkIsAllocatedOnce) {
  // A frame carrying hot_read's 800,117-byte answer fits the first
  // buffer, so the read never regrows it.
  SocketPair pair;
  Frame frame;
  frame.type = FrameType::kResultResponse;
  frame.payload.assign(800117, 'p');
  std::thread writer([&] {
    Status written = WriteFrame(pair.a.get(), frame, StopSignal());
    EXPECT_TRUE(written.ok()) << written.ToString();
  });
  size_t largest = 0;
  Result<WireFrame> read = ReadFrameMeasured(pair.b.get(), &largest);
  writer.join();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const size_t total =
      kFrameHeaderBytes + frame.payload.size() + kFrameTrailerBytes;
  EXPECT_EQ(read.ValueOrDie().bytes.size(), total);
  EXPECT_LT(largest, 2 * total);
}

}  // namespace
}  // namespace server
}  // namespace corrob
