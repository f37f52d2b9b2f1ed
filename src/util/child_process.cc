#include "util/child_process.h"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>

#include "util/string_util.h"

namespace lfi {
namespace {

// Bytes read from a child's pipe per wake-up.
constexpr size_t kReadChunk = 4096;

int Reap(pid_t pid) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

}  // namespace

std::string ChildEnd::Describe() const {
  switch (how) {
    case How::kExited:
      return StrFormat("exited with status %d", status);
    case How::kSignaled:
      return StrFormat("killed by signal %d", status);
    case How::kTimedOut:
      return StrFormat("timed out after %llu ms", static_cast<unsigned long long>(timeout_ms));
  }
  return "?";
}

bool ChildProcesses::Start(size_t id, uint64_t timeout_ms, const Body& body, std::string* error) {
  int fds[2];
  if (pipe(fds) != 0) {
    *error = StrFormat("pipe: %s", std::strerror(errno));
    return false;
  }
  pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    dup2(STDERR_FILENO, STDOUT_FILENO);
    int status = 1;
    try {
      status = body(fds[1]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "child process threw: %s\n", e.what());
    } catch (...) {
      std::fprintf(stderr, "child process threw\n");
    }
    std::_Exit(status);
  }
  close(fds[1]);
  if (pid < 0) {
    *error = StrFormat("fork: %s", std::strerror(errno));
    close(fds[0]);
    return false;
  }
  Clock::time_point deadline = timeout_ms == 0
                                   ? Clock::time_point::max()
                                   : Clock::now() + std::chrono::milliseconds(timeout_ms);
  children_.push_back({id, pid, fds[0], timeout_ms, deadline, {}});
  return true;
}

std::vector<std::pair<size_t, ChildEnd>> ChildProcesses::Wait(Clock::time_point wake) {
  std::vector<std::pair<size_t, ChildEnd>> ended;
  std::vector<pollfd> polled;
  for (const Child& child : children_) {
    polled.push_back({child.fd, POLLIN, 0});
    wake = std::min(wake, child.deadline);
  }
  if (wake == Clock::time_point::max() && children_.empty()) {
    return ended;
  }
  int timeout_ms = -1;
  if (wake != Clock::time_point::max()) {
    auto left = std::chrono::ceil<std::chrono::milliseconds>(wake - Clock::now());
    timeout_ms = static_cast<int>(std::max<int64_t>(0, left.count()));
  }
  // Every pipe is drained as bytes arrive, so output larger than the pipe
  // buffer never blocks its child.
  if (poll(polled.data(), polled.size(), timeout_ms) < 0 && errno != EINTR) {
    throw std::runtime_error(StrFormat("child processes: poll: %s", std::strerror(errno)));
  }
  Clock::time_point now = Clock::now();
  std::vector<Child> still_running;
  for (size_t i = 0; i < children_.size(); ++i) {
    Child& child = children_[i];
    bool eof = false;
    if (polled[i].revents != 0) {
      const size_t have = child.output.size();
      child.output.resize(have + kReadChunk);
      ssize_t n = read(child.fd, child.output.data() + have, kReadChunk);
      child.output.resize(have + static_cast<size_t>(std::max<ssize_t>(n, 0)));
      eof = n == 0 || (n < 0 && errno != EINTR);
    }
    ChildEnd end;
    if (eof) {
      close(child.fd);
      int status = Reap(child.pid);
      if (WIFSIGNALED(status)) {
        end.how = ChildEnd::How::kSignaled;
        end.status = WTERMSIG(status);
      } else {
        end.status = WEXITSTATUS(status);
      }
    } else if (now >= child.deadline) {
      kill(child.pid, SIGKILL);
      close(child.fd);
      Reap(child.pid);
      end.how = ChildEnd::How::kTimedOut;
      end.status = SIGKILL;
      end.timeout_ms = child.timeout_ms;
    } else {
      still_running.push_back(std::move(child));
      continue;
    }
    end.output = std::move(child.output);
    ended.emplace_back(child.id, std::move(end));
  }
  children_ = std::move(still_running);
  return ended;
}

void ChildProcesses::KillAll() {
  for (Child& child : children_) {
    kill(child.pid, SIGKILL);
    close(child.fd);
    Reap(child.pid);
  }
  children_.clear();
}

}  // namespace lfi
