#include "layers.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>

#include "common/crc32.h"
#include "core/delta_apply.h"
#include "core/fact_group.h"
#include "core/registry.h"
#include "core/vote_matrix.h"
#include "data/dataset_io.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "server/frame.h"
#include "server/protocol.h"

namespace perfbench {

using corrob::Result;
using corrob::Status;

namespace {

int64_t NowNanos() { return corrob::obs::MonotonicClock::Get()->NowNanos(); }

// Repetitions per in-process call; medians are reported.
constexpr int kSlowReps = 3;    // whole-dataset parses and runs
constexpr int kMediumReps = 5;  // O(votes) builds
constexpr int kFastReps = 9;    // codecs over one response frame
constexpr int kWalAppends = 200;

/// Keeps a computed value observable so the call timed is not elided.
volatile int64_t g_sink = 0;

double MbPerS(double bytes, double ms) {
  return ms > 0.0 ? bytes / 1e6 / (ms / 1000.0) : 0.0;
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lower = static_cast<size_t>(std::floor(position));
  const size_t upper = std::min(lower + 1, values.size() - 1);
  return values[lower] +
         (values[upper] - values[lower]) * (position - static_cast<double>(lower));
}

int SpanLog::Begin(std::string name, int parent) {
  spans_.push_back(Span{std::move(name), NowNanos(), -1, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNanos();
}

std::vector<double> SpanLog::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_ns >= 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

Status SpanLog::WriteChromeTrace(const std::string& path) const {
  using corrob::obs::JsonValue;
  JsonValue events = JsonValue::Array();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    JsonValue event = JsonValue::Object();
    event.Set("name", JsonValue::Str(span.name));
    event.Set("ph", JsonValue::Str("X"));
    event.Set("ts", JsonValue::Double(static_cast<double>(span.start_ns) / 1e3));
    event.Set("dur", JsonValue::Double(
                         static_cast<double>(span.end_ns - span.start_ns) / 1e3));
    event.Set("pid", JsonValue::Int(1));
    event.Set("tid", JsonValue::Int(1));
    JsonValue args = JsonValue::Object();
    args.Set("span", JsonValue::Int(static_cast<int64_t>(i)));
    args.Set("parent", JsonValue::Int(span.parent));
    event.Set("args", std::move(args));
    events.Append(std::move(event));
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("traceEvents", std::move(events));
  std::ofstream out(path);
  out << doc.Dump() << "\n";
  if (!out) return Status::IoError("cannot write " + path);
  return Status::OK();
}

Result<std::vector<Metric>> MeasureLayers(const LayerInputs& inputs,
                                          SpanLog* spans) {
  using corrob::server::Frame;
  const corrob::Dataset& dataset = *inputs.dataset;
  const int root = spans->Begin("layers");

  // data: CSV ingestion.
  int64_t csv_bytes = 0;
  for (int rep = 0; rep < kSlowReps; ++rep) {
    const int span = spans->Begin("data.csv_load", root);
    Result<corrob::LabeledDataset> loaded = corrob::LoadDatasetCsv(inputs.csv_path);
    spans->End(span);
    if (!loaded.ok()) return loaded.status();
    g_sink = loaded.ValueOrDie().dataset.num_votes();
  }
  {
    std::ifstream csv(inputs.csv_path, std::ios::binary | std::ios::ate);
    csv_bytes = static_cast<int64_t>(csv.tellg());
  }

  // core: the corroborator the workload serves, and its building blocks.
  CORROB_ASSIGN_OR_RETURN(std::unique_ptr<corrob::Corroborator> corroborator,
                          corrob::MakeCorroborator(inputs.algorithm));
  int iterations = 0;
  for (int rep = 0; rep < kSlowReps; ++rep) {
    const int span = spans->Begin("core.run", root);
    Result<corrob::CorroborationResult> run = corroborator->Run(dataset);
    spans->End(span);
    if (!run.ok()) return run.status();
    iterations = run.ValueOrDie().iterations;
  }
  for (int rep = 0; rep < kMediumReps; ++rep) {
    const int span = spans->Begin("core.vote_matrix_build", root);
    const corrob::VoteMatrix matrix(dataset);
    spans->End(span);
    g_sink = matrix.num_votes();
  }
  for (int rep = 0; rep < kMediumReps; ++rep) {
    const int span = spans->Begin("core.fact_groups", root);
    const std::vector<corrob::FactGroup> groups = corrob::BuildFactGroups(dataset);
    spans->End(span);
    g_sink = static_cast<int64_t>(groups.size());
  }
  for (int rep = 0; rep < kMediumReps; ++rep) {
    const int span = spans->Begin("core.delta_apply", root);
    Result<corrob::Dataset> applied =
        corrob::ApplyDeltasToDataset(dataset, inputs.batch);
    spans->End(span);
    if (!applied.ok()) return applied.status();
    g_sink = applied.ValueOrDie().num_votes();
  }

  // server: frame and protocol codecs over a response the daemon sent;
  // common: the CRC-32 both ends run over every frame.
  Frame frame;
  for (int rep = 0; rep < kFastReps; ++rep) {
    const int span = spans->Begin("frame.decode", root);
    Result<Frame> decoded = corrob::server::DecodeFrame(inputs.response_frame);
    spans->End(span);
    if (!decoded.ok()) return decoded.status();
    frame = std::move(decoded).ValueOrDie();
  }
  for (int rep = 0; rep < kFastReps; ++rep) {
    const int span = spans->Begin("frame.encode", root);
    const std::string wire = corrob::server::EncodeFrame(frame);
    spans->End(span);
    g_sink = static_cast<int64_t>(wire.size());
  }
  for (int rep = 0; rep < kFastReps; ++rep) {
    const int span = spans->Begin("crc32", root);
    g_sink = corrob::ComputeCrc32(inputs.response_frame);
    spans->End(span);
  }
  corrob::server::CorroborateResponse response;
  for (int rep = 0; rep < kFastReps; ++rep) {
    const int span = spans->Begin("protocol.response_decode", root);
    Result<corrob::server::CorroborateResponse> decoded =
        corrob::server::DecodeCorroborateResponse(frame.payload);
    spans->End(span);
    if (!decoded.ok()) return decoded.status();
    response = std::move(decoded).ValueOrDie();
  }
  for (int rep = 0; rep < kFastReps; ++rep) {
    const int span = spans->Begin("protocol.response_encode", root);
    const std::string payload = corrob::server::EncodeCorroborateResponse(response);
    spans->End(span);
    g_sink = static_cast<int64_t>(payload.size());
  }

  // data: WAL batch appends, with the daemon's fsync policy (never).
  {
    corrob::WalOptions options;
    options.fsync_policy = corrob::WalFsyncPolicy::kNever;
    CORROB_ASSIGN_OR_RETURN(corrob::WalWriter writer,
                            corrob::WalWriter::Open(inputs.wal_dir, options));
    for (int rep = 0; rep < kWalAppends; ++rep) {
      const int span = spans->Begin("data.wal.append_batch", root);
      const Status appended = writer.AppendBatch(inputs.batch);
      spans->End(span);
      CORROB_RETURN_NOT_OK(appended);
    }
  }
  spans->End(root);

  const auto median_ms = [&](const std::string& name) {
    return Median(spans->DurationsMs(name));
  };
  const double csv_ms = median_ms("data.csv_load");
  const double crc_ms = median_ms("crc32");
  return std::vector<Metric>{
      {"data.csv_load_ms", csv_ms, "ms"},
      {"data.csv_mb_per_s", MbPerS(static_cast<double>(csv_bytes), csv_ms), "MB/s"},
      {"core.run_ms", median_ms("core.run"), "ms"},
      {"core.vote_matrix_build_ms", median_ms("core.vote_matrix_build"), "ms"},
      {"core.fact_groups_ms", median_ms("core.fact_groups"), "ms"},
      {"core.iterations", static_cast<double>(iterations), "count"},
      {"core.delta_apply_ms", median_ms("core.delta_apply"), "ms"},
      {"frame.encode_ms", median_ms("frame.encode"), "ms"},
      {"frame.decode_ms", median_ms("frame.decode"), "ms"},
      {"crc32_mb_per_s",
       MbPerS(static_cast<double>(inputs.response_frame.size()), crc_ms), "MB/s"},
      {"protocol.response_encode_ms", median_ms("protocol.response_encode"), "ms"},
      {"protocol.response_decode_ms", median_ms("protocol.response_decode"), "ms"},
      {"protocol.response_bytes", static_cast<double>(frame.payload.size()), "B"},
      {"data.wal.append_batch_us", median_ms("data.wal.append_batch") * 1000.0, "us"},
  };
}

}  // namespace perfbench
