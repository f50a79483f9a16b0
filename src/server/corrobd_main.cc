#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/budget.h"
#include "common/failpoint.h"
#include "common/status.h"
#include "server/server.h"

// Entry point of the corrobd daemon. Flag parsing is deliberately
// minimal (no dependency on the corrob CLI); everything interesting
// lives in CorrobdServer. Lifecycle:
//
//   corrobd --socket /tmp/corrobd.sock --dataset flights=data/flights.csv
//
//   SIGTERM/SIGINT  -> drain: stop accepting, finish in-flight
//                      requests, exit 0
//   second signal   -> immediate _exit(130)
//
// docs/SERVING.md documents the flags and the drain contract.

namespace corrob {
namespace server {
namespace {

struct DaemonFlags {
  ServerOptions server;
  std::string failpoints;
};

/// Parses the whole of `text` as a T. Whitespace, a leading '+',
/// trailing junk ("8x") and out-of-range values are all rejected.
template <typename T>
[[nodiscard]] Result<T> ParseNumber(const std::string& flag,
                                    const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end) {
    return Status::InvalidArgument(
        flag + ": '" + text + "' is " +
        (std::is_integral_v<T> ? "not an integer" : "not a number"));
  }
  return value;
}

/// Parses "a,b,c" into exactly kNumPriorities non-negative integers.
[[nodiscard]] Status ParsePerClassInts(const std::string& flag,
                                       const std::string& text,
                                       std::array<int64_t, kNumPriorities>* out) {
  std::array<int64_t, kNumPriorities> values = {};
  size_t begin = 0;
  for (int cls = 0; cls < kNumPriorities; ++cls) {
    const size_t comma = text.find(',', begin);
    const bool last = cls == kNumPriorities - 1;
    if (last != (comma == std::string::npos)) {
      return Status::InvalidArgument(
          flag + " needs exactly " + std::to_string(kNumPriorities) +
          " comma-separated values (interactive,batch,best_effort), got '" +
          text + "'");
    }
    const std::string part = text.substr(
        begin, comma == std::string::npos ? std::string::npos : comma - begin);
    CORROB_ASSIGN_OR_RETURN(values[cls], ParseNumber<int64_t>(flag, part));
    if (values[cls] < 0) {
      return Status::InvalidArgument(flag + " values must be >= 0");
    }
    begin = comma + 1;
  }
  *out = values;
  return Status::OK();
}

/// Parses a per-tenant override "name=qps:burst:slots", e.g.
/// "analytics=5:10:2". Any component may be 0 (unlimited).
[[nodiscard]] Status ParseTenantQuotaSpec(
    const std::string& spec, std::pair<std::string, TenantLimits>* out) {
  const Status malformed = Status::InvalidArgument(
      "--tenant-quota needs name=qps:burst:slots, got '" + spec + "'");
  const size_t equals = spec.find('=');
  if (equals == std::string::npos || equals == 0) return malformed;
  const std::string tenant = spec.substr(0, equals);
  const std::string limits_text = spec.substr(equals + 1);
  const size_t first = limits_text.find(':');
  if (first == std::string::npos) return malformed;
  const size_t second = limits_text.find(':', first + 1);
  if (second == std::string::npos) return malformed;
  const Result<double> qps =
      ParseNumber<double>("qps", limits_text.substr(0, first));
  const Result<double> burst = ParseNumber<double>(
      "burst", limits_text.substr(first + 1, second - first - 1));
  const Result<int> slots =
      ParseNumber<int>("slots", limits_text.substr(second + 1));
  if (!qps.ok() || !burst.ok() || !slots.ok()) return malformed;
  TenantLimits limits;
  limits.qps = qps.ValueOrDie();
  limits.burst = burst.ValueOrDie();
  limits.concurrent_slots = slots.ValueOrDie();
  if (!(limits.qps >= 0) || !(limits.burst >= 0) || std::isinf(limits.qps) ||
      std::isinf(limits.burst) || limits.concurrent_slots < 0) {
    return Status::InvalidArgument(
        "--tenant-quota values must be finite and >= 0");
  }
  *out = {tenant, limits};
  return Status::OK();
}

[[nodiscard]] Status ParseFlags(const std::vector<std::string>& args,
                                DaemonFlags* flags) {
  const auto needs_value = [&](size_t i) -> Result<std::string> {
    if (i + 1 >= args.size()) {
      return Status::InvalidArgument("flag " + args[i] + " needs a value");
    }
    return args[i + 1];
  };
  // The value after flag i, parsed whole into `*out`. It must be at
  // least `min` and finite (from_chars accepts "nan" and "inf").
  const auto number = [&]<typename T>(size_t i, T* out, int64_t min) {
    CORROB_ASSIGN_OR_RETURN(std::string value, needs_value(i));
    CORROB_ASSIGN_OR_RETURN(*out, ParseNumber<T>(args[i], value));
    if (!(*out >= static_cast<T>(min)) || std::isinf(*out)) {
      return Status::InvalidArgument(args[i] + ": '" + value +
                                     "' is not a finite number >= " +
                                     std::to_string(min));
    }
    return Status::OK();
  };
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--socket") {
      CORROB_ASSIGN_OR_RETURN(flags->server.socket_path, needs_value(i));
      ++i;
    } else if (arg == "--dataset") {
      CORROB_ASSIGN_OR_RETURN(std::string spec, needs_value(i));
      flags->server.dataset_specs.push_back(spec);
      ++i;
    } else if (arg == "--max-concurrency") {
      CORROB_RETURN_NOT_OK(
          number(i, &flags->server.admission.max_concurrency, 1));
      ++i;
    } else if (arg == "--queue-capacity") {
      CORROB_ASSIGN_OR_RETURN(std::string value, needs_value(i));
      std::array<int64_t, kNumPriorities> capacities = {};
      CORROB_RETURN_NOT_OK(
          ParsePerClassInts("--queue-capacity", value, &capacities));
      for (int cls = 0; cls < kNumPriorities; ++cls) {
        flags->server.admission.queue_capacity[cls] =
            static_cast<int>(capacities[cls]);
      }
      ++i;
    } else if (arg == "--default-timeout-ms") {
      CORROB_ASSIGN_OR_RETURN(std::string value, needs_value(i));
      CORROB_RETURN_NOT_OK(ParsePerClassInts(
          "--default-timeout-ms", value,
          &flags->server.admission.default_timeout_ms));
      ++i;
    } else if (arg == "--default-max-rounds") {
      CORROB_ASSIGN_OR_RETURN(std::string value, needs_value(i));
      CORROB_RETURN_NOT_OK(ParsePerClassInts(
          "--default-max-rounds", value,
          &flags->server.admission.default_max_rounds));
      ++i;
    } else if (arg == "--threads") {
      CORROB_RETURN_NOT_OK(number(i, &flags->server.run_threads, 1));
      ++i;
    } else if (arg == "--drain-timeout-ms") {
      CORROB_RETURN_NOT_OK(number(i, &flags->server.drain_timeout_ms, 0));
      ++i;
    } else if (arg == "--cache-entries") {
      CORROB_RETURN_NOT_OK(number(i, &flags->server.cache.capacity_entries, 0));
      ++i;
    } else if (arg == "--cache-shards") {
      CORROB_RETURN_NOT_OK(number(i, &flags->server.cache.shards, 1));
      ++i;
    } else if (arg == "--tenant-qps") {
      CORROB_RETURN_NOT_OK(
          number(i, &flags->server.quota.default_limits.qps, 0));
      ++i;
    } else if (arg == "--tenant-burst") {
      CORROB_RETURN_NOT_OK(
          number(i, &flags->server.quota.default_limits.burst, 0));
      ++i;
    } else if (arg == "--tenant-slots") {
      CORROB_RETURN_NOT_OK(
          number(i, &flags->server.quota.default_limits.concurrent_slots, 0));
      ++i;
    } else if (arg == "--tenant-quota") {
      CORROB_ASSIGN_OR_RETURN(std::string spec, needs_value(i));
      std::pair<std::string, TenantLimits> parsed;
      CORROB_RETURN_NOT_OK(ParseTenantQuotaSpec(spec, &parsed));
      flags->server.tenant_overrides.push_back(std::move(parsed));
      ++i;
    } else if (arg == "--failpoint") {
      CORROB_ASSIGN_OR_RETURN(std::string spec, needs_value(i));
      if (!flags->failpoints.empty()) flags->failpoints += ",";
      flags->failpoints += spec;
      ++i;
    } else if (arg == "--flight-recorder-entries") {
      CORROB_RETURN_NOT_OK(
          number(i, &flags->server.flight_recorder_entries, 0));
      ++i;
    } else if (arg == "--slow-request-ms") {
      CORROB_RETURN_NOT_OK(number(i, &flags->server.slow_request_ms, 0));
      ++i;
    } else if (arg == "--watchdog-interval-ms") {
      CORROB_RETURN_NOT_OK(number(i, &flags->server.watchdog_interval_ms, 0));
      ++i;
    } else if (arg == "--watchdog-multiplier") {
      CORROB_RETURN_NOT_OK(
          number(i, &flags->server.watchdog_deadline_multiplier, 0));
      if (flags->server.watchdog_deadline_multiplier == 0) {
        return Status::InvalidArgument("--watchdog-multiplier must be > 0");
      }
      ++i;
    } else if (arg == "--wal") {
      CORROB_ASSIGN_OR_RETURN(flags->server.wal_dir, needs_value(i));
      ++i;
    } else if (arg == "--wal-fsync") {
      CORROB_ASSIGN_OR_RETURN(std::string value, needs_value(i));
      CORROB_ASSIGN_OR_RETURN(flags->server.wal_fsync,
                              ParseWalFsyncPolicy(value));
      ++i;
    } else if (arg == "--wal-fsync-interval") {
      CORROB_RETURN_NOT_OK(
          number(i, &flags->server.wal_fsync_interval_records, 1));
      ++i;
    } else if (arg == "--wal-segment-bytes") {
      CORROB_RETURN_NOT_OK(number(i, &flags->server.wal_segment_bytes, 1));
      ++i;
    } else {
      return Status::InvalidArgument(
          "unknown flag '" + arg +
          "' (flags: --socket --dataset --max-concurrency "
          "--queue-capacity --default-timeout-ms --default-max-rounds "
          "--threads --drain-timeout-ms --cache-entries --cache-shards "
          "--tenant-qps --tenant-burst --tenant-slots --tenant-quota "
          "--failpoint --flight-recorder-entries --slow-request-ms "
          "--watchdog-interval-ms --watchdog-multiplier "
          "--wal --wal-fsync --wal-fsync-interval --wal-segment-bytes)");
    }
  }
  return Status::OK();
}

int RunDaemon(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  DaemonFlags flags;
  if (const Status parsed = ParseFlags(args, &flags); !parsed.ok()) {
    err << "corrobd: " << parsed.ToString() << "\n";
    return 2;
  }
  if (!flags.failpoints.empty()) {
    if (const Status armed = Failpoints::ArmFromSpecList(flags.failpoints);
        !armed.ok()) {
      err << "corrobd: " << armed.ToString() << "\n";
      return 2;
    }
  }

  CorrobdServer daemon(flags.server);
  if (const Status started = daemon.Start(); !started.ok()) {
    err << "corrobd: " << started.ToString() << "\n";
    return 1;
  }
  out << "corrobd: serving " << daemon.dataset_names().size()
      << " dataset(s) on " << flags.server.socket_path << "\n";
  out.flush();

  // First SIGTERM/SIGINT cancels the drain token (graceful drain,
  // exit 0); a second hard-exits 130 for a daemon too wedged to
  // finish draining.
  CancellationToken drain_token;
  ScopedShutdownHandlers signals(
      ScopedShutdownHandlers::Options{.token = &drain_token});

  if (const Status served = daemon.Serve(&drain_token); !served.ok()) {
    err << "corrobd: " << served.ToString() << "\n";
    return 1;
  }
  out << "corrobd: drained cleanly, " << daemon.responses_sent()
      << " response(s) served\n";
  return 0;
}

}  // namespace
}  // namespace server
}  // namespace corrob

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  return corrob::server::RunDaemon(
      args, std::cout, std::cerr);  // lint: io-ok: binary entry point
}
