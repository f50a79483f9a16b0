#include "server/protocol.h"

#include <algorithm>
#include <span>

#include "common/bytes.h"
#include "common/string_util.h"

namespace corrob {
namespace server {

namespace {

/// Options in canonical (sorted) order regardless of the order the
/// caller assembled the list in: permuted but semantically identical
/// option maps must be byte-identical on the wire.
void PutOptions(ByteWriter& writer, const OptionList& options) {
  OptionList sorted = options;
  std::sort(sorted.begin(), sorted.end());
  writer.U32(static_cast<uint32_t>(sorted.size()));
  for (const auto& [key, value] : sorted) {
    writer.Str(key);
    writer.Str(value);
  }
}

/// A u32-counted f64 array, bounds-checked once up front.
void ReadF64Vector(ByteReader& reader, std::vector<double>* out) {
  out->resize(reader.Count(8));
  reader.F64Array(*out);
}

void WriteF64Vector(ByteWriter& writer, std::span<const double> values) {
  writer.U32(static_cast<uint32_t>(values.size()));
  writer.F64Array(values);
}

[[nodiscard]] Status ReadOptions(ByteReader& reader, OptionList* out) {
  // Each entry needs at least its two length prefixes.
  const uint32_t count = reader.Count(8);
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string key(reader.Str());
    std::string value(reader.Str());
    out->emplace_back(std::move(key), std::move(value));
  }
  CORROB_RETURN_NOT_OK(reader.status());
  // Canonicalize here too: a hand-rolled client that encoded in a
  // different order still produces one cache key server-side.
  return NormalizeOptions(out);
}

/// Reads the payload version byte and rejects anything outside the
/// supported window. Most payloads accept [1, current]; v2-only
/// payloads pass 2 as the floor.
[[nodiscard]] Result<uint8_t> ReadVersionInRange(ByteReader& reader,
                                                 uint8_t min_version,
                                                 uint8_t max_version) {
  const uint8_t version = reader.U8();
  CORROB_RETURN_NOT_OK(reader.status());
  if (version < min_version || version > max_version) {
    return Status::FailedPrecondition(
        "payload codec version " + std::to_string(version) +
        " is outside the supported range [" + std::to_string(min_version) +
        ", " + std::to_string(max_version) + "]");
  }
  return version;
}

/// Reads a priority byte; InvalidArgument for an unknown class.
[[nodiscard]] Result<Priority> ReadPriority(ByteReader& reader) {
  const uint8_t priority = reader.U8();
  CORROB_RETURN_NOT_OK(reader.status());
  if (priority >= kNumPriorities) {
    return Status::InvalidArgument("unknown priority class " +
                                   std::to_string(priority));
  }
  return static_cast<Priority>(priority);
}

}  // namespace

std::string_view PriorityName(Priority priority) {
  switch (priority) {
    case Priority::kInteractive:
      return "interactive";
    case Priority::kBatch:
      return "batch";
    case Priority::kBestEffort:
      return "best_effort";
  }
  return "unknown";
}

Result<Priority> ParsePriority(std::string_view text) {
  const std::string lowered = ToLower(Trim(text));
  if (lowered == "interactive") return Priority::kInteractive;
  if (lowered == "batch") return Priority::kBatch;
  if (lowered == "best_effort" || lowered == "besteffort" ||
      lowered == "best-effort") {
    return Priority::kBestEffort;
  }
  return Status::InvalidArgument(
      "unknown priority '" + std::string(text) +
      "' (expected interactive|batch|best_effort)");
}

Status NormalizeOptions(OptionList* options) {
  std::sort(options->begin(), options->end());
  for (size_t i = 1; i < options->size(); ++i) {
    if ((*options)[i].first == (*options)[i - 1].first) {
      return Status::InvalidArgument("duplicate option key '" +
                                     (*options)[i].first + "'");
    }
  }
  return Status::OK();
}

std::string EncodeCorroborateRequest(const CorroborateRequest& request) {
  return EncodeCorroborateRequest(request, kProtocolVersion);
}

std::string EncodeCorroborateRequest(const CorroborateRequest& request,
                                     uint8_t version) {
  std::string out;
  ByteWriter writer(&out);
  writer.U8(version);
  writer.U8(static_cast<uint8_t>(request.priority));
  writer.U32(request.timeout_ms);
  writer.U32(request.max_rounds);
  writer.Str(request.dataset);
  writer.Str(request.algorithm);
  if (version >= 2) {
    writer.Str(request.tenant);
    PutOptions(writer, request.options);
  }
  if (version >= 3) {
    writer.Str(request.request_id);
  }
  return out;
}

Result<CorroborateRequest> DecodeCorroborateRequest(
    std::string_view payload) {
  ByteReader reader(payload);
  CORROB_ASSIGN_OR_RETURN(
      uint8_t version,
      ReadVersionInRange(reader, kMinCorroborateRequestVersion,
                         kProtocolVersion));
  CorroborateRequest request;
  CORROB_ASSIGN_OR_RETURN(request.priority, ReadPriority(reader));
  request.timeout_ms = reader.U32();
  request.max_rounds = reader.U32();
  request.dataset = reader.Str();
  request.algorithm = reader.Str();
  if (version >= 2) {
    request.tenant = reader.Str();
    CORROB_RETURN_NOT_OK(ReadOptions(reader, &request.options));
  }
  if (version >= 3) {
    request.request_id = reader.Str();
  }
  CORROB_RETURN_NOT_OK(reader.Finish());
  return request;
}

std::string EncodeCorroborateResponse(
    const CorroborateResponse& response) {
  std::string out;
  out.reserve(32 + 8 * (response.fact_probability.size() +
                        response.source_trust.size()));
  ByteWriter writer(&out);
  // The response payload is deliberately still version 1: it carries
  // no v2 field and staying put keeps cached/coalesced/batch replies
  // byte-identical to any response a v1 peer recorded.
  writer.U8(1);
  writer.Str(response.algorithm);
  writer.U8(response.termination);
  writer.U32(response.iterations);
  WriteF64Vector(writer, response.fact_probability);
  WriteF64Vector(writer, response.source_trust);
  return out;
}

Result<CorroborateResponse> DecodeCorroborateResponse(
    std::string_view payload) {
  ByteReader reader(payload);
  CORROB_ASSIGN_OR_RETURN(
      uint8_t version, ReadVersionInRange(reader, 1, kProtocolVersion));
  CorroborateResponse response;
  response.algorithm = reader.Str();
  response.termination = reader.U8();
  response.iterations = reader.U32();
  ReadF64Vector(reader, &response.fact_probability);
  ReadF64Vector(reader, &response.source_trust);
  if (version >= 3) {
    response.request_id = reader.Str();
  }
  CORROB_RETURN_NOT_OK(reader.Finish());
  return response;
}

std::string EncodeErrorResponse(const ErrorResponse& response) {
  std::string out;
  ByteWriter writer(&out);
  writer.U8(1);
  writer.U8(response.code);
  writer.Str(response.message);
  return out;
}

Result<ErrorResponse> DecodeErrorResponse(std::string_view payload) {
  ByteReader reader(payload);
  CORROB_ASSIGN_OR_RETURN(
      uint8_t version, ReadVersionInRange(reader, 1, kProtocolVersion));
  ErrorResponse response;
  response.code = reader.U8();
  response.message = reader.Str();
  if (version >= 3) {
    response.request_id = reader.Str();
  }
  CORROB_RETURN_NOT_OK(reader.Finish());
  return response;
}

std::string EncodeOverloadedResponse(const OverloadedResponse& response) {
  std::string out;
  ByteWriter writer(&out);
  writer.U8(1);
  writer.U32(response.retry_after_ms);
  writer.U32(response.queue_depth);
  writer.Str(response.message);
  return out;
}

Result<OverloadedResponse> DecodeOverloadedResponse(
    std::string_view payload) {
  ByteReader reader(payload);
  CORROB_ASSIGN_OR_RETURN(
      uint8_t version, ReadVersionInRange(reader, 1, kProtocolVersion));
  OverloadedResponse response;
  response.retry_after_ms = reader.U32();
  response.queue_depth = reader.U32();
  response.message = reader.Str();
  if (version >= 3) {
    response.request_id = reader.Str();
  }
  CORROB_RETURN_NOT_OK(reader.Finish());
  return response;
}

std::string EncodeQuotaExceededResponse(
    const QuotaExceededResponse& response) {
  std::string out;
  ByteWriter writer(&out);
  // Pinned at version 2: version 3 means "plus a trailing request id",
  // which only AttachRequestId produces.
  writer.U8(2);
  writer.U32(response.retry_after_ms);
  writer.Str(response.tenant);
  writer.Str(response.message);
  return out;
}

Result<QuotaExceededResponse> DecodeQuotaExceededResponse(
    std::string_view payload) {
  ByteReader reader(payload);
  CORROB_ASSIGN_OR_RETURN(
      uint8_t version, ReadVersionInRange(reader, 2, kProtocolVersion));
  QuotaExceededResponse response;
  response.retry_after_ms = reader.U32();
  response.tenant = reader.Str();
  response.message = reader.Str();
  if (version >= 3) {
    response.request_id = reader.Str();
  }
  CORROB_RETURN_NOT_OK(reader.Finish());
  return response;
}

void AttachRequestId(std::string* payload, const std::string& request_id) {
  if (request_id.empty() || payload->empty()) return;
  (*payload)[0] = static_cast<char>(kProtocolVersion);
  ByteWriter(payload).Str(request_id);
}

std::string EncodeBatchRequest(const BatchRequest& request) {
  std::string out;
  ByteWriter writer(&out);
  // Batch payloads carry no v3 field; pinned at 2 (see version history).
  writer.U8(2);
  writer.U8(static_cast<uint8_t>(request.priority));
  writer.Str(request.tenant);
  writer.U32(static_cast<uint32_t>(request.items.size()));
  for (const BatchItem& item : request.items) {
    writer.U32(item.timeout_ms);
    writer.U32(item.max_rounds);
    writer.Str(item.dataset);
    writer.Str(item.algorithm);
    PutOptions(writer, item.options);
  }
  return out;
}

Result<BatchRequest> DecodeBatchRequest(std::string_view payload) {
  ByteReader reader(payload);
  CORROB_RETURN_NOT_OK(
      ReadVersionInRange(reader, 2, kProtocolVersion).status());
  BatchRequest request;
  CORROB_ASSIGN_OR_RETURN(request.priority, ReadPriority(reader));
  request.tenant = reader.Str();
  const uint32_t count = reader.U32();
  CORROB_RETURN_NOT_OK(reader.status());
  if (count == 0) {
    return Status::InvalidArgument("batch request has no items");
  }
  if (count > kMaxBatchItems) {
    return Status::InvalidArgument(
        "batch request has " + std::to_string(count) +
        " items; the cap is " + std::to_string(kMaxBatchItems));
  }
  request.items.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    BatchItem item;
    item.timeout_ms = reader.U32();
    item.max_rounds = reader.U32();
    item.dataset = reader.Str();
    item.algorithm = reader.Str();
    CORROB_RETURN_NOT_OK(ReadOptions(reader, &item.options));
    request.items.push_back(std::move(item));
  }
  CORROB_RETURN_NOT_OK(reader.Finish());
  return request;
}

std::string EncodeBatchResponse(const BatchResponse& response) {
  std::string out;
  ByteWriter writer(&out);
  writer.U8(2);
  writer.U32(static_cast<uint32_t>(response.items.size()));
  for (const BatchItemResponse& item : response.items) {
    writer.U8(item.type);
    writer.Str(item.payload);
  }
  return out;
}

Result<BatchResponse> DecodeBatchResponse(std::string_view payload) {
  ByteReader reader(payload);
  CORROB_RETURN_NOT_OK(
      ReadVersionInRange(reader, 2, kProtocolVersion).status());
  BatchResponse response;
  const uint32_t count = reader.U32();
  CORROB_RETURN_NOT_OK(reader.status());
  if (count > kMaxBatchItems) {
    return Status::InvalidArgument(
        "batch response has " + std::to_string(count) +
        " items; the cap is " + std::to_string(kMaxBatchItems));
  }
  response.items.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    BatchItemResponse item;
    item.type = reader.U8();
    item.payload = reader.Str();
    response.items.push_back(std::move(item));
  }
  CORROB_RETURN_NOT_OK(reader.Finish());
  return response;
}

std::string EncodeReloadRequest(const ReloadRequest& request) {
  std::string out;
  ByteWriter writer(&out);
  // Reload payloads carry no v3 field; pinned at 2 (see version history).
  writer.U8(2);
  writer.Str(request.dataset);
  return out;
}

Result<ReloadRequest> DecodeReloadRequest(std::string_view payload) {
  ByteReader reader(payload);
  CORROB_RETURN_NOT_OK(
      ReadVersionInRange(reader, 2, kProtocolVersion).status());
  ReloadRequest request;
  request.dataset = reader.Str();
  CORROB_RETURN_NOT_OK(reader.Finish());
  return request;
}

std::string EncodeReloadResponse(const ReloadResponse& response) {
  std::string out;
  ByteWriter writer(&out);
  writer.U8(2);
  writer.U32(response.datasets_reloaded);
  writer.U64(response.generation);
  return out;
}

Result<ReloadResponse> DecodeReloadResponse(std::string_view payload) {
  ByteReader reader(payload);
  CORROB_RETURN_NOT_OK(
      ReadVersionInRange(reader, 2, kProtocolVersion).status());
  ReloadResponse response;
  response.datasets_reloaded = reader.U32();
  response.generation = reader.U64();
  CORROB_RETURN_NOT_OK(reader.Finish());
  return response;
}

std::string EncodeApplyDeltaRequest(const ApplyDeltaRequest& request) {
  std::string out;
  ByteWriter writer(&out);
  writer.U8(kApplyDeltaVersion);
  writer.Str(request.dataset);
  writer.U32(static_cast<uint32_t>(request.deltas.size()));
  for (const WalRecord& record : request.deltas) {
    writer.U8(static_cast<uint8_t>(record.type));
    writer.Str(record.source);
    writer.Str(record.fact);
    // The vote byte travels for every record type so the layout stays
    // fixed-shape; it is only meaningful for add-vote.
    writer.U8(static_cast<uint8_t>(VoteToChar(record.vote)));
  }
  return out;
}

Result<ApplyDeltaRequest> DecodeApplyDeltaRequest(std::string_view payload) {
  ByteReader reader(payload);
  CORROB_RETURN_NOT_OK(
      ReadVersionInRange(reader, kApplyDeltaVersion, kApplyDeltaVersion)
          .status());
  ApplyDeltaRequest request;
  request.dataset = reader.Str();
  const uint32_t count = reader.U32();
  CORROB_RETURN_NOT_OK(reader.status());
  if (count == 0) {
    return Status::InvalidArgument("apply-delta request has no deltas");
  }
  if (count > kMaxDeltaItems) {
    return Status::InvalidArgument(
        "apply-delta request has " + std::to_string(count) +
        " deltas; the cap is " + std::to_string(kMaxDeltaItems));
  }
  request.deltas.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WalRecord record;
    const uint8_t type = reader.U8();
    record.source = reader.Str();
    record.fact = reader.Str();
    const uint8_t vote_char = reader.U8();
    CORROB_RETURN_NOT_OK(reader.status());
    switch (static_cast<WalRecordType>(type)) {
      case WalRecordType::kAddSource:
      case WalRecordType::kAddVote:
      case WalRecordType::kRetractVote:
        record.type = static_cast<WalRecordType>(type);
        break;
      case WalRecordType::kSnapshotMarker:
        return Status::InvalidArgument(
            "delta " + std::to_string(i) +
            ": snapshot markers are log metadata, not mutations");
      default:
        return Status::InvalidArgument("delta " + std::to_string(i) +
                                       ": unknown record type " +
                                       std::to_string(type));
    }
    if (record.type == WalRecordType::kAddVote) {
      CORROB_ASSIGN_OR_RETURN(record.vote,
                              VoteFromChar(static_cast<char>(vote_char)));
      if (record.vote == Vote::kNone) {
        return Status::InvalidArgument(
            "delta " + std::to_string(i) +
            ": add-vote carries '-'; use retract-vote to erase");
      }
    }
    request.deltas.push_back(std::move(record));
  }
  CORROB_RETURN_NOT_OK(reader.Finish());
  return request;
}

std::string EncodeApplyDeltaResponse(const ApplyDeltaResponse& response) {
  std::string out;
  ByteWriter writer(&out);
  writer.U8(kApplyDeltaVersion);
  writer.U32(response.applied);
  writer.U64(response.generation);
  return out;
}

Result<ApplyDeltaResponse> DecodeApplyDeltaResponse(
    std::string_view payload) {
  ByteReader reader(payload);
  CORROB_RETURN_NOT_OK(
      ReadVersionInRange(reader, kApplyDeltaVersion, kApplyDeltaVersion)
          .status());
  ApplyDeltaResponse response;
  response.applied = reader.U32();
  response.generation = reader.U64();
  CORROB_RETURN_NOT_OK(reader.Finish());
  return response;
}

std::string EncodeIntrospectRequest(const IntrospectRequest& request) {
  std::string out;
  ByteWriter writer(&out);
  writer.U8(kProtocolVersion);
  writer.U32(request.top_k);
  writer.U32(request.max_recent);
  return out;
}

Result<IntrospectRequest> DecodeIntrospectRequest(
    std::string_view payload) {
  ByteReader reader(payload);
  CORROB_RETURN_NOT_OK(
      ReadVersionInRange(reader, 3, kProtocolVersion).status());
  IntrospectRequest request;
  request.top_k = reader.U32();
  request.max_recent = reader.U32();
  CORROB_RETURN_NOT_OK(reader.Finish());
  return request;
}

}  // namespace server
}  // namespace corrob
