#pragma once
// A server under test, run as a child process: spawn, readiness, peak
// memory and graceful stop. The destructor always stops and reaps it.

#include <sys/types.h>

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  /// Spawns `argv` (argv[0] is the program path) with stdout and stderr
  /// appended to `log_path`.
  ServerProcess(const std::vector<std::string>& argv,
                const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Blocks until GET /healthz answers 200 and returns the seconds from
  /// spawn to that answer. The port is read from `port_file`, which the
  /// server writes once bound. Throws if the server exits or `timeout_s`
  /// passes first.
  double wait_ready(const std::string& port_file, double timeout_s);

  [[nodiscard]] int port() const { return port_; }

  /// VmHWM of the process [MB], read from /proc.
  [[nodiscard]] double peak_rss_mb() const;

  /// SIGTERM, then wait for the graceful drain (SIGKILL after
  /// `grace_s`). Returns the exit code, or -1 if it had to be killed or
  /// did not exit normally. Idempotent.
  int stop(double grace_s = 60.0);

 private:
  pid_t pid_ = -1;
  std::chrono::steady_clock::time_point spawned_;
  int port_ = 0;
  int exit_code_ = -1;
};

}  // namespace perfbench
