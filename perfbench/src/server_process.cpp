#include "server_process.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <stdexcept>
#include <thread>

#include "serve/http_client.hpp"

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

}  // namespace

ServerProcess::ServerProcess(const std::vector<std::string>& argv,
                             const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  spawned_ = Clock::now();
  const int rc =
      posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + argv[0]);
  }
}

ServerProcess::~ServerProcess() { stop(); }

double ServerProcess::wait_ready(const std::string& port_file,
                                 double timeout_s) {
  while (seconds_since(spawned_) < timeout_s) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("server exited before it was ready");
    }
    if (port_ == 0) {
      std::ifstream in(port_file);
      int port = 0;
      if (in >> port && port > 0) port_ = port;
    }
    if (port_ != 0) {
      try {
        yoloc::HttpClient client("127.0.0.1", port_,
                                 std::chrono::milliseconds(1000));
        if (client.get("/healthz").status == 200) {
          return seconds_since(spawned_);
        }
      } catch (const std::exception&) {
        // Not accepting yet.
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  throw std::runtime_error("server not ready within timeout");
}

double ServerProcess::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

int ServerProcess::stop(double grace_s) {
  if (pid_ < 0) return exit_code_;
  kill(pid_, SIGTERM);
  const auto start = Clock::now();
  int status = 0;
  while (true) {
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0) {
      pid_ = -1;
      return exit_code_;
    }
    if (seconds_since(start) > grace_s) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      pid_ = -1;
      exit_code_ = -1;
      return exit_code_;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return exit_code_;
}

}  // namespace perfbench
