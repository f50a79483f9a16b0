#include "server/client.h"

#include <utility>

namespace corrob {
namespace server {

Result<CorroborateOutcome> DecodeCorroborateOutcome(WireFrame response) {
  CorroborateOutcome outcome;
  const std::string_view payload = response.payload();
  switch (response.type) {
    case FrameType::kResultResponse: {
      outcome.kind = CorroborateOutcome::Kind::kResult;
      CORROB_ASSIGN_OR_RETURN(outcome.result,
                              DecodeCorroborateResponse(payload));
      break;
    }
    case FrameType::kErrorResponse: {
      outcome.kind = CorroborateOutcome::Kind::kError;
      CORROB_ASSIGN_OR_RETURN(outcome.error, DecodeErrorResponse(payload));
      break;
    }
    case FrameType::kOverloadedResponse: {
      outcome.kind = CorroborateOutcome::Kind::kOverloaded;
      CORROB_ASSIGN_OR_RETURN(outcome.overloaded,
                              DecodeOverloadedResponse(payload));
      break;
    }
    case FrameType::kQuotaExceededResponse: {
      outcome.kind = CorroborateOutcome::Kind::kQuotaExceeded;
      CORROB_ASSIGN_OR_RETURN(outcome.quota,
                              DecodeQuotaExceededResponse(payload));
      break;
    }
    default: {
      return Status::ParseError(
          "unexpected response frame '" +
          std::string(FrameTypeName(response.type)) +
          "' to a corroborate request");
    }
  }
  // Decoded values own their bytes, so the buffer can move out now.
  outcome.raw_frame = std::move(response.bytes);
  return outcome;
}

Result<CorrobClient> CorrobClient::Connect(const std::string& socket_path) {
  CORROB_ASSIGN_OR_RETURN(UniqueFd fd, ConnectUnixSocket(socket_path));
  return CorrobClient(std::move(fd), socket_path);
}

Result<WireFrame> CorrobClient::RoundTrip(const Frame& request,
                                          const StopSignal& stop) {
  if (!fd_.valid()) {
    return Status::FailedPrecondition("client is not connected");
  }
  CORROB_RETURN_NOT_OK(WriteFrame(fd_.get(), request, stop));
  // ReadFrame's taxonomy flows through untouched: a daemon that died
  // mid-response surfaces as kConnectionLost, a close on the frame
  // boundary (it never answered) as kIoError.
  return ReadFrame(fd_.get(), stop);
}

Result<WireFrame> CorrobClient::RoundTripWithReconnect(
    const Frame& request, const StopSignal& stop) {
  if (!reconnect_enabled_) return RoundTrip(request, stop);
  return Retry(reconnect_policy_, [&]() -> Result<WireFrame> {
    if (!fd_.valid()) {
      Result<UniqueFd> redial = ConnectUnixSocket(socket_path_);
      if (!redial.ok()) {
        // A refused dial while the daemon restarts is the same
        // transient condition as the lost connection that got us
        // here; keep the retry loop alive with the transient code.
        return Status::ConnectionLost("reconnect to '" + socket_path_ +
                                      "' failed: " +
                                      redial.status().message());
      }
      fd_ = std::move(redial).ValueOrDie();
    }
    Result<WireFrame> response = RoundTrip(request, stop);
    if (!response.ok() && IsTransientCode(response.status().code())) {
      // The stream may no longer be frame-aligned; the next attempt
      // dials fresh.
      Close();
    }
    return response;
  });
}

Result<CorroborateOutcome> CorrobClient::Corroborate(
    const CorroborateRequest& request, const StopSignal& stop) {
  Frame wire;
  wire.type = FrameType::kCorroborateRequest;
  wire.payload = EncodeCorroborateRequest(request);
  CORROB_ASSIGN_OR_RETURN(WireFrame response,
                          RoundTripWithReconnect(wire, stop));
  return DecodeCorroborateOutcome(std::move(response));
}

Result<std::vector<CorroborateOutcome>> CorrobClient::BatchCorroborate(
    const BatchRequest& request, const StopSignal& stop) {
  Frame wire;
  wire.type = FrameType::kBatchRequest;
  wire.payload = EncodeBatchRequest(request);
  CORROB_ASSIGN_OR_RETURN(WireFrame response, RoundTrip(wire, stop));

  std::vector<CorroborateOutcome> outcomes;
  if (response.type == FrameType::kBatchResponse) {
    CORROB_ASSIGN_OR_RETURN(BatchResponse batch,
                            DecodeBatchResponse(response.payload()));
    if (batch.items.size() != request.items.size()) {
      return Status::ParseError(
          "batch response has " + std::to_string(batch.items.size()) +
          " items for " + std::to_string(request.items.size()) +
          " requests");
    }
    outcomes.reserve(batch.items.size());
    for (BatchItemResponse& item : batch.items) {
      // An item never crossed the wire as a frame of its own; its
      // raw_frame is the framing it would have had standalone.
      WireFrame standalone;
      standalone.type = static_cast<FrameType>(item.type);
      standalone.bytes =
          EncodeFrame({standalone.type, std::move(item.payload)});
      CORROB_ASSIGN_OR_RETURN(CorroborateOutcome outcome,
                              DecodeCorroborateOutcome(std::move(standalone)));
      outcomes.push_back(std::move(outcome));
    }
    return outcomes;
  }
  // A whole-batch rejection (quota, malformed frame): one outcome per
  // requested item would be a lie — surface the single response as
  // one outcome so the caller sees exactly what the daemon said.
  CORROB_ASSIGN_OR_RETURN(CorroborateOutcome outcome,
                          DecodeCorroborateOutcome(std::move(response)));
  outcomes.push_back(std::move(outcome));
  return outcomes;
}

Result<ReloadResponse> CorrobClient::Reload(const ReloadRequest& request,
                                            const StopSignal& stop) {
  Frame wire;
  wire.type = FrameType::kReloadRequest;
  wire.payload = EncodeReloadRequest(request);
  CORROB_ASSIGN_OR_RETURN(WireFrame response, RoundTrip(wire, stop));
  if (response.type == FrameType::kErrorResponse) {
    CORROB_ASSIGN_OR_RETURN(ErrorResponse error,
                            DecodeErrorResponse(response.payload()));
    return Status(static_cast<StatusCode>(error.code), error.message);
  }
  if (response.type != FrameType::kReloadResponse) {
    return Status::ParseError("unexpected response frame '" +
                              std::string(FrameTypeName(response.type)) +
                              "' to a reload request");
  }
  return DecodeReloadResponse(response.payload());
}

Result<ApplyDeltaResponse> CorrobClient::ApplyDelta(
    const ApplyDeltaRequest& request, const StopSignal& stop) {
  Frame wire;
  wire.type = FrameType::kApplyDeltaRequest;
  wire.payload = EncodeApplyDeltaRequest(request);
  // Deliberately the plain RoundTrip: a delta batch the daemon may
  // have logged before dying must not be silently resent.
  CORROB_ASSIGN_OR_RETURN(WireFrame response, RoundTrip(wire, stop));
  if (response.type == FrameType::kErrorResponse) {
    CORROB_ASSIGN_OR_RETURN(ErrorResponse error,
                            DecodeErrorResponse(response.payload()));
    return Status(static_cast<StatusCode>(error.code), error.message);
  }
  if (response.type != FrameType::kApplyDeltaResponse) {
    return Status::ParseError("unexpected response frame '" +
                              std::string(FrameTypeName(response.type)) +
                              "' to an apply-delta request");
  }
  return DecodeApplyDeltaResponse(response.payload());
}

Result<std::string> CorrobClient::Ping(const std::string& payload,
                                       const StopSignal& stop) {
  Frame wire;
  wire.type = FrameType::kPingRequest;
  wire.payload = payload;
  CORROB_ASSIGN_OR_RETURN(WireFrame response, RoundTrip(wire, stop));
  if (response.type != FrameType::kPongResponse) {
    return Status::ParseError("unexpected response frame '" +
                              std::string(FrameTypeName(response.type)) +
                              "' to a ping");
  }
  return std::string(response.payload());
}

Result<std::string> CorrobClient::Stats(const StopSignal& stop) {
  Frame wire;
  wire.type = FrameType::kStatsRequest;
  CORROB_ASSIGN_OR_RETURN(WireFrame response,
                          RoundTripWithReconnect(wire, stop));
  if (response.type != FrameType::kStatsResponse) {
    return Status::ParseError("unexpected response frame '" +
                              std::string(FrameTypeName(response.type)) +
                              "' to a stats request");
  }
  return std::string(response.payload());
}

Result<std::string> CorrobClient::Introspect(const IntrospectRequest& request,
                                             const StopSignal& stop) {
  Frame wire;
  wire.type = FrameType::kIntrospectRequest;
  wire.payload = EncodeIntrospectRequest(request);
  CORROB_ASSIGN_OR_RETURN(WireFrame response,
                          RoundTripWithReconnect(wire, stop));
  if (response.type == FrameType::kErrorResponse) {
    CORROB_ASSIGN_OR_RETURN(ErrorResponse error,
                            DecodeErrorResponse(response.payload()));
    return Status(static_cast<StatusCode>(error.code), error.message);
  }
  if (response.type != FrameType::kIntrospectResponse) {
    return Status::ParseError("unexpected response frame '" +
                              std::string(FrameTypeName(response.type)) +
                              "' to an introspect request");
  }
  return std::string(response.payload());
}

}  // namespace server
}  // namespace corrob
