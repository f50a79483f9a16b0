#ifndef CORROB_PERFBENCH_DAEMON_H_
#define CORROB_PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

// One corrobd child process owned by the benchmark driver: spawned
// with its output in a log file, bound to the driver's lifetime
// (PR_SET_PDEATHSIG), timed from fork to its first answered Ping, and
// always reaped — by Stop() on the normal path, by the destructor's
// SIGKILL + waitpid on every other one.

namespace perfbench {

/// Daemon-wide resource counters read from /proc/<pid>.
struct ProcSample {
  /// utime + stime of every thread the process has run, live or
  /// exited, in milliseconds (clock-tick resolution).
  double cpu_ms = 0.0;
  /// VmHWM: the resident-set high-water mark, in MiB.
  double peak_rss_mb = 0.0;
};

class Daemon {
 public:
  /// Forks and execs `binary` with `args`; stdout and stderr go to
  /// `log_path`.
  [[nodiscard]] static corrob::Result<std::unique_ptr<Daemon>> Spawn(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_path);

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  Daemon(Daemon&&) = delete;
  Daemon& operator=(Daemon&&) = delete;
  /// Kills and reaps the child if Stop() did not.
  ~Daemon();

  /// Polls `socket_path` (connect + Ping, every 250 µs) until the
  /// daemon answers; returns seconds from fork to the answered Ping.
  [[nodiscard]] corrob::Result<double> WaitReady(
      const std::string& socket_path, double timeout_s);

  /// Reads the process's CPU time and peak RSS.
  [[nodiscard]] corrob::Result<ProcSample> Sample() const;

  /// SIGTERM (the drain path), then waits for a clean exit 0.
  [[nodiscard]] corrob::Status Stop();

 private:
  Daemon(pid_t pid, int64_t spawned_nanos)
      : pid_(pid), spawned_nanos_(spawned_nanos) {}

  /// Waits up to `timeout_s` for the child to exit; true once reaped.
  bool Reap(double timeout_s, int* status);

  pid_t pid_ = -1;
  int64_t spawned_nanos_ = 0;
};

}  // namespace perfbench

#endif  // CORROB_PERFBENCH_DAEMON_H_
