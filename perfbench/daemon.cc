#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/budget.h"
#include "obs/clock.h"
#include "server/client.h"

namespace perfbench {

using corrob::Result;
using corrob::Status;

namespace {

int64_t NowNanos() { return corrob::obs::MonotonicClock::Get()->NowNanos(); }

}  // namespace

Result<std::unique_ptr<Daemon>> Daemon::Spawn(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& log_path) {
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) return Status::IoError("cannot open " + log_path);
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const int64_t spawned = NowNanos();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return Status::IoError("fork failed");
  }
  if (pid == 0) {
    // Child: die with the driver, log to the file, become corrobd.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  return std::unique_ptr<Daemon>(new Daemon(pid, spawned));
}

Daemon::~Daemon() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
}

bool Daemon::Reap(double timeout_s, int* status) {
  const int64_t give_up = NowNanos() + static_cast<int64_t>(timeout_s * 1e9);
  for (;;) {
    const pid_t done = ::waitpid(pid_, status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      return true;
    }
    if (NowNanos() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Result<double> Daemon::WaitReady(const std::string& socket_path,
                                 double timeout_s) {
  const int64_t give_up = NowNanos() + static_cast<int64_t>(timeout_s * 1e9);
  while (NowNanos() < give_up) {
    Result<corrob::server::CorrobClient> client =
        corrob::server::CorrobClient::Connect(socket_path);
    if (client.ok()) {
      const corrob::StopSignal stop(
          nullptr,
          corrob::Deadline::AfterMs(corrob::obs::MonotonicClock::Get(), 5000));
      Result<std::string> pong = client.ValueOrDie().Ping("ready", stop);
      if (!pong.ok()) return pong.status();
      return static_cast<double>(NowNanos() - spawned_nanos_) / 1e9;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return Status::Internal("corrobd exited during startup (status " +
                              std::to_string(status) + ")");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(250));
  }
  return Status::Internal("corrobd not ready after " +
                          std::to_string(timeout_s) + " s");
}

Result<ProcSample> Daemon::Sample() const {
  const std::string proc = "/proc/" + std::to_string(pid_);
  std::ifstream stat_file(proc + "/stat");
  std::string stat((std::istreambuf_iterator<char>(stat_file)),
                   std::istreambuf_iterator<char>());
  const size_t comm_end = stat.rfind(')');
  if (comm_end == std::string::npos) {
    return Status::IoError("cannot parse " + proc + "/stat");
  }
  // Fields after "pid (comm)" start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::istringstream fields(stat.substr(comm_end + 1));
  std::string field;
  double ticks = 0.0;
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index >= 14) ticks += std::stod(field);
  }
  ProcSample sample;
  sample.cpu_ms = ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));

  std::ifstream status_file(proc + "/status");
  std::string line;
  while (std::getline(status_file, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      sample.peak_rss_mb = std::stod(line.substr(6)) / 1024.0;
    }
  }
  if (sample.peak_rss_mb <= 0.0) {
    return Status::IoError("no VmHWM in " + proc + "/status");
  }
  return sample;
}

Status Daemon::Stop() {
  if (pid_ <= 0) return Status::Internal("corrobd already reaped");
  ::kill(pid_, SIGTERM);
  int status = 0;
  if (!Reap(30.0, &status)) {
    ::kill(pid_, SIGKILL);
    Reap(5.0, &status);
    return Status::Internal("corrobd did not drain within 30 s");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("corrobd exited with status " +
                            std::to_string(status));
  }
  return Status::OK();
}

}  // namespace perfbench
