#include "core/online_checkpoint.h"

#include <cstdio>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/csv.h"
#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace corrob {

namespace {

constexpr char kMagic[8] = {'C', 'O', 'R', 'R', 'O', 'B', 'S', 'N'};
constexpr size_t kMagicSize = sizeof(kMagic);
// magic + version + payload_size.
constexpr size_t kHeaderSize = kMagicSize + 4 + 8;

}  // namespace

std::string SerializeOnlineSnapshot(const OnlineCorroborator& online) {
  OnlineCorroboratorState state = online.ExportState();

  std::string payload;
  ByteWriter body(&payload);
  body.F64(state.options.initial_trust);
  body.F64(state.options.trust_prior_weight);
  body.F64(state.options.tie_margin);
  body.U64(static_cast<uint64_t>(state.facts_observed));
  body.U32(static_cast<uint32_t>(state.source_names.size()));
  for (size_t s = 0; s < state.source_names.size(); ++s) {
    body.Str(state.source_names[s]);
    body.F64(state.correct[s]);
    body.F64(state.total[s]);
  }
  // v2 telemetry section.
  body.U64(static_cast<uint64_t>(state.decisions_true));
  body.U64(static_cast<uint64_t>(state.decisions_false));
  body.U64(static_cast<uint64_t>(state.deferrals));

  std::string out;
  out.reserve(kHeaderSize + payload.size() + 4);
  ByteWriter writer(&out);
  writer.Raw(std::string_view(kMagic, kMagicSize));
  writer.U32(kOnlineSnapshotVersion);
  writer.U64(payload.size());
  writer.Raw(payload);
  writer.U32(ComputeCrc32(payload));
  return out;
}

Result<OnlineCorroborator> ParseOnlineSnapshot(std::string_view bytes) {
  if (bytes.size() < kHeaderSize ||
      bytes.substr(0, kMagicSize) != std::string_view(kMagic, kMagicSize)) {
    return Status::ParseError(
        "not an online-corroborator snapshot (bad magic)");
  }
  const uint32_t version = LoadU32(bytes.data() + kMagicSize);
  if (version > kOnlineSnapshotVersion) {
    // A checkpoint from a future build: refuse loudly instead of
    // misreading fields this build does not know about.
    return Status::FailedPrecondition(
        "snapshot version " + std::to_string(version) +
        " is newer than this build supports (max version " +
        std::to_string(kOnlineSnapshotVersion) +
        "); load it with the corrob build that wrote it, or restart "
        "the stream without --resume");
  }
  if (version < kOnlineSnapshotMinVersion) {
    return Status::FailedPrecondition(
        "snapshot version " + std::to_string(version) +
        " is older than this build supports (supported " +
        std::to_string(kOnlineSnapshotMinVersion) + ".." +
        std::to_string(kOnlineSnapshotVersion) + ")");
  }
  const uint64_t payload_size = LoadU64(bytes.data() + kMagicSize + 4);
  // Compared by subtraction so a huge size field cannot wrap the sum.
  if (bytes.size() - kHeaderSize < 4 ||
      payload_size != bytes.size() - kHeaderSize - 4) {
    return Status::ParseError(
        "snapshot truncated or oversized: header claims " +
        std::to_string(payload_size) + " payload bytes, file has " +
        std::to_string(bytes.size()) + " total");
  }
  const std::string_view payload = bytes.substr(kHeaderSize, payload_size);
  const uint32_t stored_crc = LoadU32(payload.data() + payload.size());
  const uint32_t actual_crc = ComputeCrc32(payload);
  if (stored_crc != actual_crc) {
    return Status::ParseError("snapshot checksum mismatch: stored " +
                              std::to_string(stored_crc) + ", computed " +
                              std::to_string(actual_crc));
  }

  ByteReader reader(payload, "snapshot payload");
  OnlineCorroboratorState state;
  state.options.initial_trust = reader.F64();
  state.options.trust_prior_weight = reader.F64();
  state.options.tie_margin = reader.F64();
  state.facts_observed = static_cast<int64_t>(reader.U64());
  // Each source needs at least its name length and two counters.
  const uint32_t num_sources = reader.Count(4 + 8 + 8);
  state.source_names.reserve(num_sources);
  state.correct.reserve(num_sources);
  state.total.reserve(num_sources);
  for (uint32_t s = 0; s < num_sources; ++s) {
    state.source_names.emplace_back(reader.Str());
    state.correct.push_back(reader.F64());
    state.total.push_back(reader.F64());
  }
  if (version >= 2) {
    state.decisions_true = static_cast<int64_t>(reader.U64());
    state.decisions_false = static_cast<int64_t>(reader.U64());
    state.deferrals = static_cast<int64_t>(reader.U64());
  }
  CORROB_RETURN_NOT_OK(reader.Finish());
  return OnlineCorroborator::FromState(std::move(state));
}

Status SaveOnlineSnapshot(const std::string& path,
                          const OnlineCorroborator& online,
                          const RetryPolicy& policy) {
  CORROB_TRACE_SPAN("OnlineCheckpoint::Save");
  CORROB_FAILPOINT("online_checkpoint.save");
  std::string snapshot = SerializeOnlineSnapshot(online);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("corrob.checkpoint.saves")->Add(1);
  metrics.GetHistogram("corrob.checkpoint.snapshot_bytes")
      ->Record(static_cast<int64_t>(snapshot.size()));
  return Retry(policy, [&] { return WriteFileAtomic(path, snapshot); });
}

Result<OnlineCorroborator> LoadOnlineSnapshot(const std::string& path) {
  CORROB_TRACE_SPAN("OnlineCheckpoint::Load");
  CORROB_FAILPOINT("online_checkpoint.load");
  obs::MetricsRegistry::Global()
      .GetCounter("corrob.checkpoint.loads")
      ->Add(1);
  CORROB_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  auto parsed = ParseOnlineSnapshot(bytes);
  if (!parsed.ok()) {
    return Status(parsed.status().code(),
                  parsed.status().message() + " (in " + path + ")");
  }
  return parsed;
}

std::string DeriveInterruptCheckpointPath(std::string_view input_path,
                                          std::string_view output_path) {
  std::string_view base =
      !output_path.empty() ? output_path
                           : (!input_path.empty()
                                  ? input_path
                                  : std::string_view("stream"));
  // Hash both paths (with a separator no path can contain) so streams
  // that share an output stem but read different inputs — or vice
  // versa — still land on distinct checkpoint files.
  Crc32 crc;
  crc.Update(input_path);
  crc.Update(std::string_view("\n", 1));
  crc.Update(output_path);
  // ".interrupt-" (11) + 8 hex digits + ".snap" (5) + NUL = 25 bytes;
  // a 24-byte buffer silently dropped the trailing 'p'.
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".interrupt-%08x.snap",
                crc.Digest());
  return std::string(base) + suffix;
}

}  // namespace corrob
