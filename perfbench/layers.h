#ifndef CORROB_PERFBENCH_LAYERS_H_
#define CORROB_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "data/wal.h"

// The traced half of the benchmark: spans around the driver's own
// calls into each layer's public functions (data, core, server frame
// and protocol codecs, common crc32), kept in memory and written out
// as Chrome trace_event JSON when the run ends.

namespace perfbench {

/// One reported number: name, value as measured, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Timed spans in memory. Each span has a name, start, end and the
/// index of the span that caused it (-1 for a root).
class SpanLog {
 public:
  /// Opens a span; returns its index for End().
  int Begin(std::string name, int parent = -1);
  void End(int span);

  /// Durations in ms of every closed span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Writes the spans as Chrome trace_event JSON.
  [[nodiscard]] corrob::Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    int parent = -1;
  };
  std::vector<Span> spans_;
};

/// What the per-layer measurements run on: the workload's own corpus,
/// its algorithm, one of its delta batches and one response frame the
/// daemon actually sent.
struct LayerInputs {
  const corrob::Dataset* dataset = nullptr;
  std::string csv_path;
  std::string algorithm;
  std::vector<corrob::WalRecord> batch;
  std::string response_frame;
  /// Scratch directory for a private WAL.
  std::string wal_dir;
};

/// Runs every in-process layer call under a span and returns the
/// data.*, core.*, frame.*, protocol.*, crc32 and data.wal.append
/// metrics (medians over repetitions).
[[nodiscard]] corrob::Result<std::vector<Metric>> MeasureLayers(
    const LayerInputs& inputs, SpanLog* spans);

}  // namespace perfbench

#endif  // CORROB_PERFBENCH_LAYERS_H_
