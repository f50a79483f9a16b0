#ifndef CORROB_SERVER_PROTOCOL_H_
#define CORROB_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/wal.h"

// Payload encodings of the corrobd frames (docs/SERVING.md). Each
// payload starts with a u8 codec version so the format can evolve
// without changing the frame layer. Integers are little-endian;
// doubles travel as their IEEE-754 bit pattern, so a response is
// byte-identical whenever the underlying corroboration result is —
// the property the drain parity and serving-equivalence tests assert
// end to end.
//
// Version history:
//   1  PR 6: corroborate request/response, error, overloaded.
//   2  serving-efficiency layer: requests carry a tenant id and a
//      canonically ordered option list; batch, quota-exceeded and
//      reload frames. Version-1 corroborate requests are still
//      decoded (empty tenant, no options).
//   3  live introspection: corroborate requests may carry a client-
//      supplied request id, echoed back as a trailing string on the
//      per-request response payloads (result, error, overloaded,
//      quota-exceeded) via AttachRequestId; introspect frames. A
//      version byte of 3 on a response payload means exactly "the
//      version-1/2 fields plus a trailing request id", so the batch
//      and reload payloads — which never carry an id — stay pinned
//      at version 2 on the wire.
//   4  durable delta ingestion: apply-delta frames carrying WAL vote
//      deltas (data/wal.h record types). Both apply-delta payloads
//      are pinned at version 4; every other payload keeps its pinned
//      version, so responses recorded by a v3 peer stay byte-valid.

namespace corrob {
namespace server {

inline constexpr uint8_t kProtocolVersion = 3;
/// Oldest corroborate-request version the daemon still accepts.
inline constexpr uint8_t kMinCorroborateRequestVersion = 1;

/// Admission priority class of a request. Lower values are served
/// first; each class maps onto a default Deadline + ResourceBudget
/// and a bounded admission queue (docs/SERVING.md, "Priority classes").
enum class Priority : uint8_t {
  kInteractive = 0,
  kBatch = 1,
  kBestEffort = 2,
};
inline constexpr int kNumPriorities = 3;

/// Stable lowercase name, e.g. "interactive".
[[nodiscard]] std::string_view PriorityName(Priority priority);

/// Parses "interactive" | "batch" | "best_effort" (and "besteffort").
[[nodiscard]] Result<Priority> ParsePriority(std::string_view text);

/// Key=value request options. Semantically a map: the codec
/// canonicalizes the order (sorted by key) on encode AND decode, so
/// two requests that differ only in option ordering are
/// byte-identical on the wire and produce one cache key.
using OptionList = std::vector<std::pair<std::string, std::string>>;

/// Sorts `options` by key (values break ties) and rejects duplicate
/// keys. Both codec directions and the result cache key go through
/// this, so there is exactly one canonical form per option map.
[[nodiscard]] Status NormalizeOptions(OptionList* options);

/// Client request: corroborate `dataset` (a name the daemon loaded at
/// startup) with `algorithm`, under the priority class's admission
/// queue and budget. timeout_ms/max_rounds of 0 inherit the class
/// defaults configured on the server. `tenant` selects the quota
/// buckets ("" = the anonymous tenant); `options` are opaque
/// key=value pairs folded into the result-cache key.
struct CorroborateRequest {
  Priority priority = Priority::kBatch;
  std::string dataset;
  std::string algorithm = "IncEstHeu";
  uint32_t timeout_ms = 0;
  uint32_t max_rounds = 0;
  std::string tenant;
  OptionList options;
  /// Optional client-chosen correlation id (v3). The daemon echoes it
  /// on the response payload and records it in the flight recorder,
  /// so a client-observed latency can be matched to the server-side
  /// record. Never part of the cache key.
  std::string request_id;
};

/// Encodes at the current version. The overload taking `version`
/// exists for compatibility tests; version 1 drops tenant/options,
/// versions below 3 drop request_id.
[[nodiscard]] std::string EncodeCorroborateRequest(
    const CorroborateRequest& request);
[[nodiscard]] std::string EncodeCorroborateRequest(
    const CorroborateRequest& request, uint8_t version);
[[nodiscard]] Result<CorroborateRequest> DecodeCorroborateRequest(
    std::string_view payload);

/// Successful corroboration: the full per-fact probability and
/// per-source trust vectors, bit-exact.
struct CorroborateResponse {
  std::string algorithm;
  /// core Termination enum value; kConverged and kIterationCap are
  /// full runs, everything else is a graceful early stop with
  /// best-so-far scores.
  uint8_t termination = 0;
  uint32_t iterations = 0;
  std::vector<double> fact_probability;
  std::vector<double> source_trust;
  /// Echo of the request's id (v3); empty when the client sent none.
  /// Attached after encoding via AttachRequestId, never by the
  /// encoder itself — the canonical cached payload stays id-free.
  std::string request_id;
};

[[nodiscard]] std::string EncodeCorroborateResponse(
    const CorroborateResponse& response);
[[nodiscard]] Result<CorroborateResponse> DecodeCorroborateResponse(
    std::string_view payload);

/// Typed failure of one request (the daemon stays up): a StatusCode
/// value plus the human-readable message.
struct ErrorResponse {
  uint8_t code = 0;
  std::string message;
  /// Echo of the request's id (v3); empty when the client sent none.
  std::string request_id;
};

[[nodiscard]] std::string EncodeErrorResponse(const ErrorResponse& response);
[[nodiscard]] Result<ErrorResponse> DecodeErrorResponse(
    std::string_view payload);

/// Structured shed: the admission queue for the request's class is
/// full. retry_after_ms is the server's backlog-based estimate of
/// when capacity frees up.
struct OverloadedResponse {
  uint32_t retry_after_ms = 0;
  uint32_t queue_depth = 0;
  std::string message;
  /// Echo of the request's id (v3); empty when the client sent none.
  std::string request_id;
};

[[nodiscard]] std::string EncodeOverloadedResponse(
    const OverloadedResponse& response);
[[nodiscard]] Result<OverloadedResponse> DecodeOverloadedResponse(
    std::string_view payload);

/// Structured per-tenant quota rejection (StatusCode::kQuotaExceeded
/// on the wire-independent side): the tenant's token bucket ran dry
/// or its concurrent-run slots are all taken. Unlike kOverloaded this
/// is about one tenant's allowance, not the daemon's total capacity.
struct QuotaExceededResponse {
  uint32_t retry_after_ms = 0;
  std::string tenant;
  std::string message;
  /// Echo of the request's id (v3); empty when the client sent none.
  std::string request_id;
};

[[nodiscard]] std::string EncodeQuotaExceededResponse(
    const QuotaExceededResponse& response);
[[nodiscard]] Result<QuotaExceededResponse> DecodeQuotaExceededResponse(
    std::string_view payload);

/// Splices a client request id onto an already-encoded per-request
/// response payload: rewrites the leading version byte to 3 and
/// appends the id as a length-prefixed string. With an empty id the
/// payload is untouched, byte for byte — the property that keeps
/// cached, coalesced and batch replies identical to what a v2 peer
/// recorded. This is the reference definition: the daemon writes the
/// same bytes with WriteSharedResponse (server/shared_response.h),
/// splicing the id onto its frame without copying the shared
/// canonical payload, which never carries any one client's id.
void AttachRequestId(std::string* payload, const std::string& request_id);

/// Upper bound on sub-requests in one batch frame; a decoder seeing
/// more rejects before allocating.
inline constexpr uint32_t kMaxBatchItems = 1024;

/// One sub-request of a batch. Priority and tenant are batch-wide;
/// everything else matches CorroborateRequest.
struct BatchItem {
  std::string dataset;
  std::string algorithm = "IncEstHeu";
  uint32_t timeout_ms = 0;
  uint32_t max_rounds = 0;
  OptionList options;
};

/// Many corroborations in one frame. Admission accounts the batch as
/// items.size() units (each item takes and releases its own slot);
/// the tenant's QPS bucket is charged items.size() tokens up front.
struct BatchRequest {
  Priority priority = Priority::kBatch;
  std::string tenant;
  std::vector<BatchItem> items;
};

[[nodiscard]] std::string EncodeBatchRequest(const BatchRequest& request);
[[nodiscard]] Result<BatchRequest> DecodeBatchRequest(
    std::string_view payload);

/// Outcome of one batch item: `type` is the response frame type this
/// item would have produced as a standalone request, and `payload` is
/// that response's encoded payload — byte-identical to the standalone
/// frame's payload (the serving-equivalence suite pins this).
struct BatchItemResponse {
  uint8_t type = 0;  // a response FrameType value
  std::string payload;
};

struct BatchResponse {
  std::vector<BatchItemResponse> items;
};

[[nodiscard]] std::string EncodeBatchResponse(const BatchResponse& response);
[[nodiscard]] Result<BatchResponse> DecodeBatchResponse(
    std::string_view payload);

/// Administrative reload: re-read the named dataset (or every dataset
/// when `dataset` is empty) from its startup path and bump its
/// generation, invalidating cached results keyed on the old one.
struct ReloadRequest {
  std::string dataset;
};

[[nodiscard]] std::string EncodeReloadRequest(const ReloadRequest& request);
[[nodiscard]] Result<ReloadRequest> DecodeReloadRequest(
    std::string_view payload);

struct ReloadResponse {
  uint32_t datasets_reloaded = 0;
  /// Highest generation among the reloaded datasets.
  uint64_t generation = 0;
};

[[nodiscard]] std::string EncodeReloadResponse(const ReloadResponse& response);
[[nodiscard]] Result<ReloadResponse> DecodeReloadResponse(
    std::string_view payload);

/// Codec version of the apply-delta payloads (v4); they are pinned
/// here rather than at kProtocolVersion because no other payload
/// gained a field in v4.
inline constexpr uint8_t kApplyDeltaVersion = 4;

/// Upper bound on deltas in one apply-delta frame; a decoder seeing
/// more rejects before allocating.
inline constexpr uint32_t kMaxDeltaItems = 4096;

/// Durable mutation of a served dataset (v4): append `deltas` to the
/// dataset's write-ahead log, then apply them to the resident
/// Dataset. The daemon acks only after the WAL append (and fsync,
/// under the always policy) succeeded — an acked delta survives
/// kill -9. Deltas are data/wal.h records; snapshot markers are log
/// metadata and are rejected by the codec.
struct ApplyDeltaRequest {
  std::string dataset;
  std::vector<WalRecord> deltas;
};

[[nodiscard]] std::string EncodeApplyDeltaRequest(
    const ApplyDeltaRequest& request);
[[nodiscard]] Result<ApplyDeltaRequest> DecodeApplyDeltaRequest(
    std::string_view payload);

/// Ack of an apply-delta request: every delta is on the log and the
/// resident dataset now serves `generation`.
struct ApplyDeltaResponse {
  uint32_t applied = 0;
  uint64_t generation = 0;
};

[[nodiscard]] std::string EncodeApplyDeltaResponse(
    const ApplyDeltaResponse& response);
[[nodiscard]] Result<ApplyDeltaResponse> DecodeApplyDeltaResponse(
    std::string_view payload);

/// Live-introspection query (v3): how much of each introspection
/// table to return. The response frame's payload is the raw
/// corrob.introspect/1 JSON document (no version byte), mirroring the
/// stats frame.
struct IntrospectRequest {
  /// Per-tenant aggregate rows to include (by request count).
  uint32_t top_k = 10;
  /// Completed records from the flight-recorder ring to include;
  /// capped server-side by the ring capacity.
  uint32_t max_recent = 100;
};

[[nodiscard]] std::string EncodeIntrospectRequest(
    const IntrospectRequest& request);
[[nodiscard]] Result<IntrospectRequest> DecodeIntrospectRequest(
    std::string_view payload);

}  // namespace server
}  // namespace corrob

#endif  // CORROB_SERVER_PROTOCOL_H_
