#include "server/shared_response.h"

#include <array>
#include <string_view>

#include "common/bytes.h"
#include "server/protocol.h"

namespace corrob {
namespace server {

namespace {

constexpr char kTaggedVersion = static_cast<char>(kProtocolVersion);

}  // namespace

SharedResponse MakeSharedResponse(FrameType type, std::string payload) {
  SharedResponse out;
  out.type = type;
  const char type_byte = static_cast<char>(type);
  out.tagged_crc.Update(std::string_view(&type_byte, 1));
  out.tagged_crc.Update(std::string_view(&kTaggedVersion, 1));
  if (!payload.empty()) {
    out.tagged_crc.Update(std::string_view(payload).substr(1));
  }
  out.payload = std::make_shared<const std::string>(std::move(payload));
  return out;
}

Status WriteSharedResponse(int fd, const SharedResponse& response,
                           std::string_view request_id,
                           const StopSignal& stop) {
  const std::string_view payload = *response.payload;
  // AttachRequestId leaves an empty id (or payload) untouched.
  if (request_id.empty() || payload.empty()) {
    return WriteFramePieces(fd, response.type, {&payload, 1}, stop);
  }
  std::string suffix;
  ByteWriter(&suffix).Str(request_id);
  const std::array<std::string_view, 3> pieces = {
      std::string_view(&kTaggedVersion, 1), payload.substr(1), suffix};
  const FoldedPrefix folded{.crc = response.tagged_crc, .pieces = 2};
  return WriteFramePieces(fd, response.type, pieces, stop, &folded);
}

}  // namespace server
}  // namespace corrob
