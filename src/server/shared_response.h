#ifndef CORROB_SERVER_SHARED_RESPONSE_H_
#define CORROB_SERVER_SHARED_RESPONSE_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/budget.h"
#include "common/crc32.h"
#include "common/status.h"
#include "server/frame.h"

// One encoded per-request response, immutable once made, so the result
// cache, the coalescer and every connection that sends it hold the
// same bytes by reference. A cache hit or a coalesced follower then
// writes its frame without copying the payload and, when the client
// sent a request id, without scanning it either: the frame CRC
// continues from a state folded once when the response was made.

namespace corrob {
namespace server {

struct SharedResponse {
  FrameType type = FrameType::kErrorResponse;
  /// The canonical payload: what a v2 peer records, with no request id.
  std::shared_ptr<const std::string> payload;
  /// CRC-32 folded over the frame bytes that every id-carrying frame
  /// of this response shares: the type byte, kProtocolVersion, and
  /// the payload after its version byte (see AttachRequestId).
  Crc32 tagged_crc;
};

/// Takes ownership of `payload` and folds its tagged CRC; call it
/// outside any lock, before the response is shared.
[[nodiscard]] SharedResponse MakeSharedResponse(FrameType type,
                                                std::string payload);

/// Writes `response` as one frame with `request_id` attached: the same
/// bytes as WriteFrame of {type, AttachRequestId(payload, request_id)}.
/// With a non-empty id the payload is written in place and never
/// rescanned; with an empty id it is checksummed once.
[[nodiscard]] Status WriteSharedResponse(int fd,
                                         const SharedResponse& response,
                                         std::string_view request_id,
                                         const StopSignal& stop);

}  // namespace server
}  // namespace corrob

#endif  // CORROB_SERVER_SHARED_RESPONSE_H_
