#include "server/frame.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/socket.h"

namespace corrob {
namespace server {

namespace {

/// Pieces shorter than this are copied into the staging buffer that
/// carries the header and trailer; longer ones are written in place.
constexpr size_t kStagePieceBytes = 4096;

uint32_t FrameChecksum(uint8_t type, std::string_view payload) {
  Crc32 crc;
  const char type_byte = static_cast<char>(type);
  crc.Update(std::string_view(&type_byte, 1));
  crc.Update(payload);
  return crc.Digest();
}

/// Validates the decoded header fields shared by the buffer and
/// socket decode paths.
Status CheckHeader(uint32_t magic, uint8_t raw_type,
                   uint32_t payload_length) {
  if (magic != kFrameMagic) {
    return Status::ParseError("bad frame magic 0x" + [&] {
      char buffer[16];
      std::snprintf(buffer, sizeof(buffer), "%08x", magic);
      return std::string(buffer);
    }());
  }
  if (payload_length > kMaxFramePayload) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(payload_length) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte cap");
  }
  if (!IsKnownFrameType(raw_type)) {
    return Status::InvalidArgument("unknown frame type 0x" + [&] {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "%02x", raw_type);
      return std::string(buffer);
    }());
  }
  return Status::OK();
}

}  // namespace

std::string_view FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kCorroborateRequest:
      return "corroborate_request";
    case FrameType::kPingRequest:
      return "ping_request";
    case FrameType::kStatsRequest:
      return "stats_request";
    case FrameType::kBatchRequest:
      return "batch_request";
    case FrameType::kReloadRequest:
      return "reload_request";
    case FrameType::kIntrospectRequest:
      return "introspect_request";
    case FrameType::kApplyDeltaRequest:
      return "apply_delta_request";
    case FrameType::kResultResponse:
      return "result_response";
    case FrameType::kErrorResponse:
      return "error_response";
    case FrameType::kOverloadedResponse:
      return "overloaded_response";
    case FrameType::kPongResponse:
      return "pong_response";
    case FrameType::kStatsResponse:
      return "stats_response";
    case FrameType::kBatchResponse:
      return "batch_response";
    case FrameType::kQuotaExceededResponse:
      return "quota_exceeded_response";
    case FrameType::kReloadResponse:
      return "reload_response";
    case FrameType::kIntrospectResponse:
      return "introspect_response";
    case FrameType::kApplyDeltaResponse:
      return "apply_delta_response";
  }
  return "unknown";
}

bool IsKnownFrameType(uint8_t raw) {
  switch (static_cast<FrameType>(raw)) {
    case FrameType::kCorroborateRequest:
    case FrameType::kPingRequest:
    case FrameType::kStatsRequest:
    case FrameType::kBatchRequest:
    case FrameType::kReloadRequest:
    case FrameType::kResultResponse:
    case FrameType::kErrorResponse:
    case FrameType::kOverloadedResponse:
    case FrameType::kPongResponse:
    case FrameType::kStatsResponse:
    case FrameType::kBatchResponse:
    case FrameType::kIntrospectRequest:
    case FrameType::kQuotaExceededResponse:
    case FrameType::kReloadResponse:
    case FrameType::kIntrospectResponse:
    case FrameType::kApplyDeltaRequest:
    case FrameType::kApplyDeltaResponse:
      return true;
  }
  return false;
}

std::string EncodeFrame(const Frame& frame) {
  std::string out;
  out.reserve(kFrameHeaderBytes + frame.payload.size() +
              kFrameTrailerBytes);
  ByteWriter writer(&out);
  writer.U32(kFrameMagic);
  writer.U8(static_cast<uint8_t>(frame.type));
  writer.U32(static_cast<uint32_t>(frame.payload.size()));
  writer.Raw(frame.payload);
  writer.U32(FrameChecksum(static_cast<uint8_t>(frame.type), frame.payload));
  return out;
}

Result<Frame> DecodeFrame(std::string_view wire, size_t* consumed) {
  if (wire.size() < kFrameHeaderBytes) {
    return Status::ParseError("truncated frame: " +
                              std::to_string(wire.size()) +
                              " bytes is shorter than the " +
                              std::to_string(kFrameHeaderBytes) +
                              "-byte header");
  }
  const uint32_t magic = LoadU32(wire.data());
  const uint8_t raw_type = static_cast<uint8_t>(wire[4]);
  const uint32_t payload_length = LoadU32(wire.data() + 5);
  CORROB_RETURN_NOT_OK(CheckHeader(magic, raw_type, payload_length));
  const size_t total =
      kFrameHeaderBytes + payload_length + kFrameTrailerBytes;
  if (wire.size() < total) {
    return Status::ParseError(
        "truncated frame: header announces " + std::to_string(total) +
        " bytes, got " + std::to_string(wire.size()));
  }
  const std::string_view payload =
      wire.substr(kFrameHeaderBytes, payload_length);
  const uint32_t stored =
      LoadU32(wire.data() + kFrameHeaderBytes + payload_length);
  const uint32_t computed = FrameChecksum(raw_type, payload);
  if (stored != computed) {
    return Status::ParseError("frame checksum mismatch: stored " +
                              std::to_string(stored) + ", computed " +
                              std::to_string(computed));
  }
  if (consumed != nullptr) *consumed = total;
  Frame frame;
  frame.type = static_cast<FrameType>(raw_type);
  frame.payload.assign(payload);
  return frame;
}

std::string_view WireFrame::payload() const {
  return std::string_view(bytes).substr(
      kFrameHeaderBytes, bytes.size() - kFrameHeaderBytes - kFrameTrailerBytes);
}

Result<std::optional<WireFrame>> ReadFrameOrEof(int fd,
                                                const StopSignal& stop) {
  CORROB_FAILPOINT("server.frame.read");
  char header[kFrameHeaderBytes];
  CORROB_ASSIGN_OR_RETURN(
      bool got_header, ReadExactOrEof(fd, header, sizeof(header), stop));
  if (!got_header) return std::optional<WireFrame>();
  const uint32_t magic = LoadU32(header);
  const uint8_t raw_type = static_cast<uint8_t>(header[4]);
  const uint32_t payload_length = LoadU32(header + 5);
  CORROB_RETURN_NOT_OK(CheckHeader(magic, raw_type, payload_length));
  const size_t total =
      kFrameHeaderBytes + size_t{payload_length} + kFrameTrailerBytes;
  WireFrame frame;
  frame.type = static_cast<FrameType>(raw_type);
  frame.bytes.resize(std::min(total, kFrameReadChunkBytes));
  std::memcpy(frame.bytes.data(), header, kFrameHeaderBytes);
  // Once the header has arrived the frame is in flight: a close on any
  // later read boundary is still a mid-frame death, so promote the
  // clean-close IoError to ConnectionLost (the mid-read case already
  // carries it from the socket layer). The buffer doubles only when
  // the bytes already received fill it.
  size_t received = kFrameHeaderBytes;
  while (received < total) {
    if (received == frame.bytes.size()) {
      frame.bytes.resize(std::min(total, 2 * frame.bytes.size()));
    }
    const size_t length = frame.bytes.size() - received;
    CORROB_ASSIGN_OR_RETURN(
        bool complete,
        ReadExactOrEof(fd, frame.bytes.data() + received, length, stop));
    if (!complete) {
      return Status::ConnectionLost(
          "connection closed mid-frame (" + std::to_string(received) +
          " of " + std::to_string(total) + " bytes received)");
    }
    received += length;
  }
  const uint32_t stored =
      LoadU32(frame.bytes.data() + kFrameHeaderBytes + payload_length);
  const uint32_t computed = FrameChecksum(raw_type, frame.payload());
  if (stored != computed) {
    return Status::ParseError("frame checksum mismatch: stored " +
                              std::to_string(stored) + ", computed " +
                              std::to_string(computed));
  }
  return std::optional<WireFrame>(std::move(frame));
}

Result<WireFrame> ReadFrame(int fd, const StopSignal& stop) {
  CORROB_ASSIGN_OR_RETURN(std::optional<WireFrame> frame,
                          ReadFrameOrEof(fd, stop));
  if (!frame.has_value()) {
    return Status::IoError("connection closed while waiting for a frame");
  }
  return std::move(*frame);
}

Status WriteFramePieces(int fd, FrameType type,
                        std::span<const std::string_view> pieces,
                        const StopSignal& stop, const FoldedPrefix* folded) {
  CORROB_FAILPOINT("server.frame.write");
  Crc32 crc;
  size_t unfolded = 0;
  if (folded != nullptr) {
    crc = folded->crc;
    unfolded = folded->pieces;
  } else {
    const char type_byte = static_cast<char>(type);
    crc.Update(std::string_view(&type_byte, 1));
  }
  size_t payload_length = 0;
  size_t staged_length = kFrameHeaderBytes + kFrameTrailerBytes;
  for (size_t i = 0; i < pieces.size(); ++i) {
    payload_length += pieces[i].size();
    if (pieces[i].size() < kStagePieceBytes) staged_length += pieces[i].size();
    if (i >= unfolded) crc.Update(pieces[i]);
  }

  std::string staged;
  staged.reserve(staged_length);
  ByteWriter writer(&staged);
  writer.U32(kFrameMagic);
  writer.U8(static_cast<uint8_t>(type));
  writer.U32(static_cast<uint32_t>(payload_length));
  for (const std::string_view piece : pieces) {
    if (piece.size() < kStagePieceBytes) {
      writer.Raw(piece);
      continue;
    }
    if (!staged.empty()) {
      CORROB_RETURN_NOT_OK(WriteAll(fd, staged.data(), staged.size(), stop));
      staged.clear();
    }
    CORROB_RETURN_NOT_OK(WriteAll(fd, piece.data(), piece.size(), stop));
  }
  writer.U32(crc.Digest());
  return WriteAll(fd, staged.data(), staged.size(), stop);
}

Status WriteFrame(int fd, const Frame& frame, const StopSignal& stop) {
  const std::string_view payload = frame.payload;
  return WriteFramePieces(fd, frame.type, {&payload, 1}, stop);
}

}  // namespace server
}  // namespace corrob
