#ifndef CORROB_SERVER_FRAME_H_
#define CORROB_SERVER_FRAME_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/budget.h"
#include "common/crc32.h"
#include "common/result.h"
#include "common/status.h"

// Wire framing of the corrobd protocol (docs/SERVING.md). Every
// message is one length-prefixed, checksummed frame:
//
//   [u32 magic "CRB1"][u8 type][u32 payload length][payload]
//   [u32 CRC-32 of type byte + payload]
//
// all integers little-endian. The codec never trusts the peer: a bad
// magic, an oversized length, an unknown type or a checksum mismatch
// each produce a distinct typed error (and the fault-injection tests
// in tests/server/frame_test.cc pin that none of them can crash or
// wedge the daemon).

namespace corrob {
namespace server {

/// Message kind carried by a frame. Requests have the high bit clear,
/// responses have it set.
enum class FrameType : uint8_t {
  kCorroborateRequest = 0x01,
  kPingRequest = 0x02,
  kStatsRequest = 0x03,
  kBatchRequest = 0x04,
  kReloadRequest = 0x05,
  kIntrospectRequest = 0x06,
  kApplyDeltaRequest = 0x07,
  kResultResponse = 0x81,
  kErrorResponse = 0x82,
  kOverloadedResponse = 0x83,
  kPongResponse = 0x84,
  kStatsResponse = 0x85,
  kBatchResponse = 0x86,
  kQuotaExceededResponse = 0x87,
  kReloadResponse = 0x88,
  kIntrospectResponse = 0x89,
  kApplyDeltaResponse = 0x8A,
};

/// Stable lowercase name, e.g. "corroborate_request".
[[nodiscard]] std::string_view FrameTypeName(FrameType type);

/// True when `raw` is one of the FrameType values.
[[nodiscard]] bool IsKnownFrameType(uint8_t raw);

inline constexpr uint32_t kFrameMagic = 0x31425243;  // "CRB1"
/// Frame header: magic + type + payload length.
inline constexpr size_t kFrameHeaderBytes = 4 + 1 + 4;
/// CRC-32 trailer.
inline constexpr size_t kFrameTrailerBytes = 4;
/// Hard cap on one frame's payload; a header claiming more is
/// rejected before any allocation (64 MiB holds the response for an
/// ~4M-fact corroboration).
inline constexpr uint32_t kMaxFramePayload = 64u << 20;
/// The most a socket read commits for one frame before its bytes
/// arrive: a larger frame's buffer grows as it is received, so a bare
/// header cannot make the reader allocate kMaxFramePayload.
inline constexpr size_t kFrameReadChunkBytes = 1u << 20;

/// A frame to encode or write, or decoded from a buffer.
struct Frame {
  FrameType type = FrameType::kPingRequest;
  std::string payload;
};

/// A frame as read from a socket, every check passed: `bytes` holds
/// the header, payload and trailer exactly as they crossed the wire,
/// so it equals EncodeFrame({type, payload()}). Callers that keep the
/// frame (CorroborateOutcome::raw_frame) move `bytes` out; callers
/// that only decode it read payload().
struct WireFrame {
  FrameType type = FrameType::kPingRequest;
  std::string bytes;

  /// The payload, viewing `bytes`.
  [[nodiscard]] std::string_view payload() const;
};

/// Serializes `frame` (header + payload + checksum).
[[nodiscard]] std::string EncodeFrame(const Frame& frame);

/// Decodes one complete frame from the front of `wire`. Typed errors:
///   ParseError       - bad magic, checksum mismatch, or `wire` is
///                      shorter than the frame it announces;
///   InvalidArgument  - unknown frame type or payload length above
///                      kMaxFramePayload.
/// On success `*consumed` (when non-null) is the encoded size.
[[nodiscard]] Result<Frame> DecodeFrame(std::string_view wire,
                                        size_t* consumed = nullptr);

/// Reads one frame from `fd` into one buffer, polling `stop`. Error
/// taxonomy of DecodeFrame plus:
///   ConnectionLost - the peer closed mid-frame (bytes of the frame
///                    were already on the wire);
///   IoError        - the peer closed on a frame boundary when a
///                    frame was expected, or the socket died;
///   Cancelled      - `stop` fired.
/// The header is checked before anything is allocated; the buffer then
/// starts at the whole frame or kFrameReadChunkBytes, whichever is
/// smaller, and grows as the rest arrives. The "server.frame.read"
/// failpoint is checked before the read.
[[nodiscard]] Result<WireFrame> ReadFrame(int fd, const StopSignal& stop);

/// Like ReadFrame, but a clean close on a frame boundary returns
/// nullopt instead of an error (how connection loops see goodbye).
[[nodiscard]] Result<std::optional<WireFrame>> ReadFrameOrEof(
    int fd, const StopSignal& stop);

/// A Crc32 already folded over a frame's type byte and its first
/// `pieces` payload pieces (see WriteFramePieces).
struct FoldedPrefix {
  Crc32 crc;
  size_t pieces = 0;
};

/// Writes one frame whose payload is the concatenation of `pieces`,
/// without joining them: pieces under a few KiB are staged with the
/// header and trailer, larger ones go to the socket straight from the
/// caller's buffer. With `folded`, the trailer continues from
/// `folded->crc` and scans only the pieces after the first
/// `folded->pieces`. The bytes on the wire equal EncodeFrame of the
/// joined payload. Polls `stop`; the "server.frame.write" failpoint is
/// checked before the write.
[[nodiscard]] Status WriteFramePieces(
    int fd, FrameType type, std::span<const std::string_view> pieces,
    const StopSignal& stop, const FoldedPrefix* folded = nullptr);

/// WriteFramePieces of the one-piece payload `frame.payload`.
[[nodiscard]] Status WriteFrame(int fd, const Frame& frame,
                                const StopSignal& stop);

}  // namespace server
}  // namespace corrob

#endif  // CORROB_SERVER_FRAME_H_
