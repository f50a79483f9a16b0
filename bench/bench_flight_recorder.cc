// Overhead of the flight recorder (obs/flight_recorder.h) on the
// serving hot path, recorded as BENCH_flight_recorder.json. The
// kernel is the response work of a cache miss — encode a
// CorroborateResponse payload, wrap it in a checksummed frame, attach
// the client's request id — bracketed by recorder calls
// exactly as src/server/server.cc places them: RequestStart is only
// assembled behind an armed() check, spans and End no-op on the zero
// handle. Three arms over the same scripted request stream:
//   baseline   the serving work with no recorder in the build at all
//   disarmed   a capacity-0 recorder: the armed() branch fails, so
//              every request pays one predicted branch
//   armed      the corrobd default (capacity 1024, 8 shards), paying
//              metadata assembly plus active-table and ring updates
// The acceptance bar for this subsystem is <= 2% median overhead on
// the disarmed path; the armed arm documents what live introspection
// costs a deployment that turns it on.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/flight_recorder.h"
#include "server/frame.h"
#include "server/protocol.h"

namespace {

const char* const kTenants[] = {"alpha", "beta", "gamma", "delta"};

/// One pass over the request stream. `recorder` is null for the
/// baseline arm; the returned sink defeats dead-code elimination.
int64_t RunStream(corrob::obs::FlightRecorder* recorder, int64_t requests,
                  int num_facts) {
  corrob::server::CorroborateResponse response;
  response.algorithm = "IncEstHeu";
  response.termination = 1;
  response.iterations = 7;
  response.fact_probability.assign(static_cast<size_t>(num_facts), 0.5);
  response.source_trust.assign(10, 0.9);

  int64_t sink = 0;
  for (int64_t i = 0; i < requests; ++i) {
    const std::string request_id = "bench-" + std::to_string(i);

    // Recorder entry, mirroring CorrobdServer::ExecuteOne: metadata
    // is only assembled when a record will actually be kept.
    uint64_t handle = 0;
    if (recorder != nullptr && recorder->armed()) {
      corrob::obs::RequestStart start;
      start.client_request_id = request_id;
      start.tenant = kTenants[i % 4];
      start.dataset = "flights";
      start.method = "IncEstHeu";
      start.priority = "batch";
      start.deadline_nanos = 1'000'000;
      handle = recorder->Begin(std::move(start));
    }
    if (recorder != nullptr) recorder->AddSpan(handle, "admitted");

    // The response work of a request that misses the cache: payload
    // encode, id splice, checksummed frame encode. A cache hit now
    // skips all three (server/shared_response.h).
    if (recorder != nullptr) recorder->AddSpan(handle, "run_start");
    std::string payload =
        corrob::server::EncodeCorroborateResponse(response);
    corrob::server::AttachRequestId(&payload, request_id);
    const std::string wire = corrob::server::EncodeFrame(
        {corrob::server::FrameType::kResultResponse, payload});
    sink += static_cast<int64_t>(wire.size()) +
            static_cast<unsigned char>(wire[wire.size() - 1]);
    if (recorder != nullptr) recorder->AddSpan(handle, "run_end");

    if (recorder != nullptr && handle != 0) {
      corrob::obs::RequestFinish finish;
      finish.role = i % 3 == 0 ? corrob::obs::RequestRole::kCacheHit
                               : corrob::obs::RequestRole::kCold;
      finish.termination = i % 3 == 0 ? "cached" : "converged";
      finish.service_nanos = 1'000;
      finish.response_bytes = static_cast<int64_t>(payload.size());
      sink += recorder->End(handle, finish).total_nanos;
    }
  }
  return sink;
}

}  // namespace

int main(int argc, char** argv) {
  corrob::FlagParser flags = corrob::bench::ParseFlags(argc, argv);
  const int64_t requests = flags.GetInt("requests", 200000);
  const int num_facts = static_cast<int>(flags.GetInt("facts", 100));
  const int repetitions = static_cast<int>(flags.GetInt("reps", 5));

  corrob::bench::PrintHeader(
      "Flight-recorder overhead",
      "Median wall clock of the per-request serving kernel (response "
      "encode + id splice + frame encode) with no recorder (baseline), "
      "a disarmed recorder (capacity 0; one failed branch per request) "
      "and the corrobd default (capacity 1024, 8 shards). The disarmed "
      "delta is the price every request pays for the recorder existing; "
      "the bar is <= 2%.");

  corrob::bench::BenchReport report("flight_recorder", flags);
  report.SetConfig("requests", requests);
  report.SetConfig("facts", static_cast<int64_t>(num_facts));
  report.SetConfig("reps", static_cast<int64_t>(repetitions));

  corrob::obs::FlightRecorder::Options disarmed_options;
  disarmed_options.capacity = 0;
  corrob::obs::FlightRecorder disarmed(disarmed_options);

  corrob::obs::FlightRecorder::Options armed_options;
  armed_options.capacity = 1024;
  armed_options.shards = 8;
  corrob::obs::FlightRecorder armed(armed_options);

  // Arms are interleaved round-robin within each rep so slow drift
  // (frequency scaling, allocator state) lands on every arm equally
  // instead of whichever happened to run first; one untimed pass
  // absorbs the cold start.
  int64_t sink = 0;
  corrob::obs::FlightRecorder* const arms[] = {nullptr, &disarmed, &armed};
  std::vector<double> seconds[3];
  for (corrob::obs::FlightRecorder* arm : arms) {
    sink += RunStream(arm, requests, num_facts);
  }
  for (int rep = 0; rep < repetitions; ++rep) {
    for (int a = 0; a < 3; ++a) {
      seconds[a].push_back(corrob::bench::TimeSeconds(
          [&] { sink += RunStream(arms[a], requests, num_facts); }));
    }
  }
  auto median = [](std::vector<double>& values) {
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };
  const double baseline = median(seconds[0]);
  const double disarmed_seconds = median(seconds[1]);
  const double armed_seconds = median(seconds[2]);

  corrob::TablePrinter table({"Arm", "Seconds (median)", "Overhead"});
  auto record = [&](const std::string& arm, double seconds) {
    const double overhead_pct =
        baseline > 0.0 ? 100.0 * (seconds / baseline - 1.0) : 0.0;
    corrob::obs::JsonValue row =
        corrob::bench::BenchReport::Row(arm, seconds);
    row.Set("overhead_pct", corrob::obs::JsonValue::Double(overhead_pct));
    report.AddRow(std::move(row));
    table.AddRow({arm, corrob::FormatDouble(seconds, 4),
                  arm == "baseline"
                      ? "-"
                      : corrob::FormatDouble(overhead_pct, 2) + "%"});
  };
  record("baseline", baseline);
  record("disarmed", disarmed_seconds);
  record("armed", armed_seconds);

  std::fputs(table.ToString().c_str(), stdout);
  if (sink == 42) std::printf("(sink)\n");  // keep the loop honest
  report.Write();
  return 0;
}
