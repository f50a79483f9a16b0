#ifndef CORROB_SERVER_CLIENT_H_
#define CORROB_SERVER_CLIENT_H_

#include <string>
#include <vector>

#include "common/budget.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/socket.h"
#include "common/status.h"
#include "server/frame.h"
#include "server/protocol.h"

// Client side of the corrobd protocol: one connection, synchronous
// request/response. Used by the corrob CLI, tools/loadgen, and the
// serving tests; anything corrobd can answer is representable here
// without an error path that loses the typed response.

namespace corrob {
namespace server {

/// Every way a corroborate request can come back. A transport-level
/// failure (socket died → kConnectionLost mid-message / kIoError on a
/// boundary, cancelled) is a Status error instead; a daemon that
/// answered — even with an error — always produces an outcome.
struct CorroborateOutcome {
  enum class Kind {
    kResult,         ///< A corroboration result (possibly an early stop).
    kError,          ///< Typed per-request failure; the daemon is fine.
    kOverloaded,     ///< Shed by admission control; retry after the hint.
    kQuotaExceeded,  ///< This tenant's own quota; retry after the hint.
  };
  Kind kind = Kind::kError;
  CorroborateResponse result;      // valid when kind == kResult
  ErrorResponse error;             // valid when kind == kError
  OverloadedResponse overloaded;   // valid when kind == kOverloaded
  QuotaExceededResponse quota;     // valid when kind == kQuotaExceeded
  /// The response frame exactly as it crossed the wire (header +
  /// payload + checksum): the read buffer itself, moved in, so keeping
  /// it costs no copy. The drain parity and serving-equivalence tests
  /// compare these bytes across daemons and serving paths. A batch
  /// item never crossed the wire alone; its raw_frame is the frame the
  /// item would have produced standalone, encoded from its payload.
  std::string raw_frame;
};

/// The client's half of a corroborate round trip after the request is
/// written: takes `response`'s buffer as raw_frame and decodes the
/// payload from it. A frame type that does not answer a corroborate
/// request is a ParseError.
[[nodiscard]] Result<CorroborateOutcome> DecodeCorroborateOutcome(
    WireFrame response);

class CorrobClient {
 public:
  /// Connects to a corrobd at `socket_path`.
  [[nodiscard]] static Result<CorrobClient> Connect(
      const std::string& socket_path);

  CorrobClient() = default;
  CorrobClient(CorrobClient&&) noexcept = default;
  CorrobClient& operator=(CorrobClient&&) noexcept = default;

  [[nodiscard]] bool connected() const { return fd_.valid(); }
  /// Raw descriptor (tests use it to fault the transport mid-call).
  [[nodiscard]] int fd() const { return fd_.get(); }
  /// Hard-closes the connection; a request in flight on the server is
  /// cancelled by its disconnect watcher.
  void Close() { fd_.Reset(); }

  /// Opt-in bounded reconnect-and-retry for the idempotent read paths
  /// (Corroborate, Introspect, Stats): when one of them fails with a
  /// transient transport code (kConnectionLost, kIoError — a daemon
  /// that restarted under the client), the connection is redialed and
  /// the request resent, up to policy.max_attempts with the policy's
  /// jittered backoff. Mutating paths (ApplyDelta, Reload, Batch)
  /// never auto-retry: a request the daemon may have executed before
  /// dying must not be silently repeated.
  void EnableReconnect(const RetryPolicy& policy) {
    reconnect_policy_ = policy;
    reconnect_enabled_ = true;
  }
  [[nodiscard]] bool reconnect_enabled() const { return reconnect_enabled_; }

  /// Sends one corroborate request and reads its response frame.
  [[nodiscard]] Result<CorroborateOutcome> Corroborate(
      const CorroborateRequest& request, const StopSignal& stop);

  /// Sends one batch frame and reads its response. Outcomes line up
  /// with request.items; each outcome's raw_frame is the frame that
  /// item would have produced as a standalone request.
  [[nodiscard]] Result<std::vector<CorroborateOutcome>> BatchCorroborate(
      const BatchRequest& request, const StopSignal& stop);

  /// Asks the daemon to re-read a dataset (or all of them, for an
  /// empty name) from disk. A typed error frame becomes a Status with
  /// the daemon's code.
  [[nodiscard]] Result<ReloadResponse> Reload(const ReloadRequest& request,
                                              const StopSignal& stop);

  /// Sends vote deltas for durable application. The response arrives
  /// only after every delta is on the daemon's write-ahead log, so a
  /// successful return means the mutation survives kill -9. A typed
  /// error frame becomes a Status with the daemon's code — notably
  /// kWalUnavailable when the dataset has degraded to read-only
  /// serving. Never auto-retried, even with reconnect enabled.
  [[nodiscard]] Result<ApplyDeltaResponse> ApplyDelta(
      const ApplyDeltaRequest& request, const StopSignal& stop);

  /// Round-trips a ping; the response echoes `payload`.
  [[nodiscard]] Result<std::string> Ping(const std::string& payload,
                                         const StopSignal& stop);

  /// Fetches the daemon's stats JSON (schema corrob.serving_stats/4).
  [[nodiscard]] Result<std::string> Stats(const StopSignal& stop);

  /// Fetches the daemon's live-introspection JSON (schema
  /// corrob.introspect/1): active requests, the flight-recorder ring,
  /// per-tenant aggregates, latency histograms, watchdog counters and
  /// the full metrics dump. A typed error frame (e.g. a daemon too
  /// old for the v3 introspect codec) becomes a Status with the
  /// daemon's code.
  [[nodiscard]] Result<std::string> Introspect(
      const IntrospectRequest& request, const StopSignal& stop);

 private:
  CorrobClient(UniqueFd fd, std::string socket_path)
      : fd_(std::move(fd)), socket_path_(std::move(socket_path)) {}

  /// Writes `request` and reads one response frame.
  [[nodiscard]] Result<WireFrame> RoundTrip(const Frame& request,
                                            const StopSignal& stop);

  /// RoundTrip for the idempotent read paths: with reconnect enabled,
  /// transient transport failures redial socket_path_ and resend
  /// under reconnect_policy_; otherwise identical to RoundTrip.
  [[nodiscard]] Result<WireFrame> RoundTripWithReconnect(
      const Frame& request, const StopSignal& stop);

  UniqueFd fd_;
  std::string socket_path_;
  bool reconnect_enabled_ = false;
  RetryPolicy reconnect_policy_;
};

}  // namespace server
}  // namespace corrob

#endif  // CORROB_SERVER_CLIENT_H_
