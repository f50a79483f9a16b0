#include "server/shared_response.h"

#include <sys/socket.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/socket.h"
#include "server/cache.h"
#include "server/coalesce.h"
#include "server/frame.h"
#include "server/protocol.h"

// The cache-hit write path against its reference definition: a
// SharedResponse written with a request id must put exactly the bytes
// of EncodeFrame({type, AttachRequestId(payload, id)}) on the wire,
// while taking its CRC from the state folded when the response was
// made (never rescanning the shared body), and the cache and the
// coalescer must hand out that one buffer by reference.

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

/// The reference frame for `response` sent with `request_id`.
std::string ReferenceFrame(const SharedResponse& response,
                           const std::string& request_id) {
  std::string payload = *response.payload;
  AttachRequestId(&payload, request_id);
  return EncodeFrame({response.type, std::move(payload)});
}

/// Writes `response` on one end of a socket pair from a second thread
/// (a large frame outgrows the socket buffer) and returns the
/// `length` bytes that arrive on the other end, checking that exactly
/// that many were sent.
std::string WriteAndCapture(const SharedResponse& response,
                            const std::string& request_id, size_t length) {
  SocketPair pair;
  Status written;
  std::thread writer([&] {
    written = WriteSharedResponse(pair.a.get(), response, request_id,
                                  NoStop());
    pair.a.Reset(-1);  // EOF after the frame
  });
  std::string wire(length, '\0');
  const Status read = ReadExact(pair.b.get(), wire.data(), length, NoStop());
  char extra = 0;
  const Result<bool> more = ReadExactOrEof(pair.b.get(), &extra, 1, NoStop());
  writer.join();
  EXPECT_TRUE(written.ok()) << written.ToString();
  EXPECT_TRUE(read.ok()) << read.ToString();
  EXPECT_TRUE(more.ok() && !more.ValueOrDie()) << "bytes past the frame";
  return wire;
}

/// A random but well-formed corroborate response payload.
std::string RandomResponsePayload(std::mt19937_64* rng, size_t facts) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  CorroborateResponse body;
  body.algorithm = "TwoEstimate";
  body.termination = static_cast<uint8_t>((*rng)() % 3);
  body.iterations = static_cast<uint32_t>((*rng)() % 1000);
  body.fact_probability.resize(facts);
  for (double& p : body.fact_probability) p = unit(*rng);
  body.source_trust.resize(1 + (*rng)() % 16);
  for (double& t : body.source_trust) t = unit(*rng);
  return EncodeCorroborateResponse(body);
}

std::string RandomId(std::mt19937_64* rng, size_t length) {
  std::string id(length, '\0');
  for (char& c : id) c = static_cast<char>((*rng)() & 0xFFu);
  return id;
}

TEST(SharedResponseTest, HitFramesEqualTheAttachedReferenceByteForByte) {
  std::mt19937_64 rng(18);
  // Fact counts around the in-place write threshold and one large
  // response; ids from none to longer than the staging threshold.
  const std::vector<size_t> fact_counts = {0, 1, 7, 500, 520, 20000};
  const std::vector<size_t> id_lengths = {0, 1, 9, 64, 5000};
  for (size_t facts : fact_counts) {
    const SharedResponse response = MakeSharedResponse(
        FrameType::kResultResponse, RandomResponsePayload(&rng, facts));
    for (size_t id_length : id_lengths) {
      const std::string id = RandomId(&rng, id_length);
      const std::string expected = ReferenceFrame(response, id);
      const std::string wire =
          WriteAndCapture(response, id, expected.size());
      ASSERT_EQ(wire, expected)
          << "facts " << facts << " id length " << id_length;

      // The same bytes read back through the frame and protocol codecs.
      Result<Frame> frame = DecodeFrame(wire);
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      Result<CorroborateResponse> decoded =
          DecodeCorroborateResponse(frame.ValueOrDie().payload);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(decoded.ValueOrDie().request_id, id);
      EXPECT_EQ(decoded.ValueOrDie().fact_probability.size(), facts);
    }
  }
}

TEST(SharedResponseTest, ReadFrameAcceptsAHitFrame) {
  std::mt19937_64 rng(7);
  const SharedResponse response = MakeSharedResponse(
      FrameType::kResultResponse, RandomResponsePayload(&rng, 30000));
  SocketPair pair;
  Status written;
  std::thread writer([&] {
    written = WriteSharedResponse(pair.a.get(), response, "client-7",
                                  NoStop());
  });
  Result<WireFrame> frame = ReadFrame(pair.b.get(), NoStop());
  writer.join();
  ASSERT_TRUE(written.ok()) << written.ToString();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.ValueOrDie().type, FrameType::kResultResponse);
  Result<CorroborateResponse> decoded =
      DecodeCorroborateResponse(frame.ValueOrDie().payload());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().request_id, "client-7");
}

TEST(SharedResponseTest, EveryPerRequestTypeSplicesLikeAttachRequestId) {
  // Errors, sheds and quota rejections carry the echo too.
  ErrorResponse error;
  error.code = 3;
  error.message = "no such dataset";
  OverloadedResponse overloaded;
  overloaded.message = "full";
  QuotaExceededResponse quota;
  quota.tenant = "metered";
  const std::vector<SharedResponse> responses = {
      MakeSharedResponse(FrameType::kErrorResponse,
                         EncodeErrorResponse(error)),
      MakeSharedResponse(FrameType::kOverloadedResponse,
                         EncodeOverloadedResponse(overloaded)),
      MakeSharedResponse(FrameType::kQuotaExceededResponse,
                         EncodeQuotaExceededResponse(quota)),
      MakeSharedResponse(FrameType::kResultResponse, ""),
  };
  for (const SharedResponse& response : responses) {
    for (const std::string id : {"", "req-1"}) {
      const std::string expected = ReferenceFrame(response, id);
      EXPECT_EQ(WriteAndCapture(response, id, expected.size()), expected)
          << FrameTypeName(response.type) << " id '" << id << "'";
    }
  }
}

TEST(SharedResponseTest, TrailerContinuesFromTheStoredStateWithoutRescan) {
  // Swap the body for different bytes of the same length after the
  // state was folded. A writer that rescanned the body would emit a
  // valid frame for the new bytes; the hit writer must instead emit
  // the trailer derived from the stored state, i.e. the original
  // frame's CRC over the new body.
  std::mt19937_64 rng(3);
  const std::string original = RandomResponsePayload(&rng, 2000);
  std::string altered = original;
  altered[altered.size() / 2] ^= 0x5A;
  SharedResponse response =
      MakeSharedResponse(FrameType::kResultResponse, original);
  const std::string original_frame = ReferenceFrame(response, "id-3");
  response.payload = std::make_shared<const std::string>(altered);

  const std::string wire =
      WriteAndCapture(response, "id-3", original_frame.size());
  EXPECT_EQ(wire.substr(wire.size() - kFrameTrailerBytes),
            original_frame.substr(original_frame.size() - kFrameTrailerBytes));
  EXPECT_EQ(wire.substr(0, wire.size() - kFrameTrailerBytes),
            ReferenceFrame(response, "id-3")
                .substr(0, wire.size() - kFrameTrailerBytes));
  Result<Frame> decoded = DecodeFrame(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);

  // Without an id there is no stored state to continue from: the
  // payload is checksummed once, so the frame is valid for what it
  // carries.
  const std::string plain = ReferenceFrame(response, "");
  EXPECT_EQ(WriteAndCapture(response, "", plain.size()), plain);
}

TEST(SharedResponseTest, LookupAndWaitHandOutTheInsertedBuffer) {
  const SharedResponse made =
      MakeSharedResponse(FrameType::kResultResponse, "cached-bytes");
  ResultCache cache(CacheOptions{.capacity_entries = 4, .shards = 1});
  cache.Insert("k", "d", made);
  const std::optional<SharedResponse> hit = cache.Lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->payload.get(), made.payload.get());
  EXPECT_EQ(hit->tagged_crc.Digest(), made.tagged_crc.Digest());

  RunCoalescer coalescer;
  RunCoalescer::Ticket leader = coalescer.Attach("k");
  RunCoalescer::Ticket follower = coalescer.Attach("k");
  coalescer.Publish(leader, made);
  const RunCoalescer::WaitResult waited = coalescer.Wait(&follower, NoStop());
  ASSERT_EQ(waited.outcome, RunCoalescer::WaitOutcome::kGotResult);
  EXPECT_EQ(waited.response.payload.get(), made.payload.get());
}

TEST(SharedResponseTest, HeldHitOutlivesEvictionAndInvalidation) {
  ResultCache cache(CacheOptions{.capacity_entries = 1, .shards = 1});
  cache.Insert("a", "d", MakeSharedResponse(FrameType::kResultResponse,
                                            std::string(4096, 'a')));
  const std::optional<SharedResponse> held_a = cache.Lookup("a");
  ASSERT_TRUE(held_a.has_value());
  cache.Insert("b", "d", MakeSharedResponse(FrameType::kResultResponse,
                                            std::string(100, 'b')));
  EXPECT_FALSE(cache.Lookup("a").has_value());  // evicted
  EXPECT_EQ(*held_a->payload, std::string(4096, 'a'));

  const std::optional<SharedResponse> held_b = cache.Lookup("b");
  ASSERT_TRUE(held_b.has_value());
  cache.InvalidateDataset("d");
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_EQ(*held_b->payload, std::string(100, 'b'));
  // A held hit still writes its exact frame after leaving the cache.
  const std::string expected = ReferenceFrame(*held_a, "late");
  EXPECT_EQ(WriteAndCapture(*held_a, "late", expected.size()), expected);
}

TEST(SharedResponseTest, CacheBytesTrackResidentPayloads) {
  ResultCache cache(CacheOptions{.capacity_entries = 2, .shards = 1});
  const auto make = [](size_t size) {
    return MakeSharedResponse(FrameType::kResultResponse,
                              std::string(size, 'x'));
  };
  cache.Insert("a", "d1", make(10));
  cache.Insert("b", "d2", make(20));
  EXPECT_EQ(cache.stats().bytes, 30);
  cache.Insert("b", "d2", make(25));  // refresh replaces the bytes
  EXPECT_EQ(cache.stats().bytes, 35);
  cache.Insert("c", "d2", make(40));  // evicts a
  EXPECT_EQ(cache.stats().bytes, 65);
  cache.InvalidateDataset("d2");
  EXPECT_EQ(cache.stats().bytes, 0);
  EXPECT_EQ(cache.stats().entries, 0);
}

}  // namespace
}  // namespace server
}  // namespace corrob
