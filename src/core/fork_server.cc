#include "core/fork_server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <variant>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#define LFI_HAVE_FORK 1
#endif

#include "core/extent_journal.h"
#include "util/failpoint.h"
#include "util/string_util.h"
#include "util/work_queue.h"

namespace lfi {
namespace {

// Sets the failpoint scope of job `index` (ForkServerOptions::scope_prefix).
void ScopeFailpoints(const ForkServerOptions& options, size_t index) {
  if (!options.scope_prefix.empty()) {
    Failpoints::Instance().SetScope(options.scope_prefix + std::to_string(index));
  }
}

}  // namespace

#ifdef LFI_HAVE_FORK

namespace {

using Clock = std::chrono::steady_clock;

// Bytes read from a child's pipe per wake-up.
constexpr size_t kReadChunk = 4096;

// A job whose child did not deliver a result: one bug whose site names the
// exit, so the record reads as what happened to the process.
ForkedResult FailedChild(const std::string& label, const ForkServerOptions& options,
                         std::string failure) {
  ForkedResult failed;
  failed.result.bugs.push_back({options.system.empty() ? "campaign" : options.system,
                                "child failure", "child process " + failure, label});
  failed.result.fingerprint = "child!" + label;
  failed.failure = std::move(failure);
  return failed;
}

bool WriteAll(int fd, const std::string& bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

// The child's whole life: run job `index` on the inherited zygote (or on a
// target it builds itself when there is none), send the encoded result down
// `fd`, and leave without running a destructor or flushing an inherited
// stdio buffer. Its stdout joins stderr so the parent's stdout (possibly
// --json) stays clean.
[[noreturn]] void ServeChild(WarmTarget* zygote, const WarmPool::Factory& factory,
                             const CampaignJob& job, size_t index,
                             const ForkServerOptions& options, int fd) {
  dup2(STDERR_FILENO, STDOUT_FILENO);
  ScopeFailpoints(options, index);
  int status = 1;
  try {
    FailpointFired("engine.job.run");  // as CampaignEngine evaluates it per job
    std::unique_ptr<WarmTarget> fresh;
    if (zygote == nullptr) {
      fresh = factory();
      zygote = fresh.get();
    }
    status = WriteAll(fd, EncodeJobResult(zygote->Run(job))) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fork server: job %zu ('%s') threw: %s\n", index, job.label.c_str(),
                 e.what());
  } catch (...) {
    std::fprintf(stderr, "fork server: job %zu ('%s') threw\n", index, job.label.c_str());
  }
  std::_Exit(status);
}

// A job in flight. The parent keeps only its label; the child has the job.
struct Child {
  size_t index;
  std::string label;
  pid_t pid;
  int fd;  // read end of the result pipe
  std::string bytes;
  Clock::time_point deadline;
};

// Forks job `index`'s child. A child that cannot start fails only its job.
std::variant<Child, ForkedResult> Spawn(WarmTarget* zygote, const WarmPool::Factory& factory,
                                        size_t index, const CampaignJob& job,
                                        const ForkServerOptions& options) {
  int fds[2];
  if (pipe(fds) != 0) {
    return FailedChild(job.label, options,
                       StrFormat("not started: pipe: %s", std::strerror(errno)));
  }
  pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    ServeChild(zygote, factory, job, index, options, fds[1]);
  }
  close(fds[1]);
  if (pid < 0) {
    close(fds[0]);
    return FailedChild(job.label, options,
                       StrFormat("not started: fork: %s", std::strerror(errno)));
  }
  Clock::time_point deadline =
      options.job_timeout_ms == 0
          ? Clock::time_point::max()
          : Clock::now() + std::chrono::milliseconds(options.job_timeout_ms);
  return Child{index, job.label, pid, fds[0], {}, deadline};
}

// Reaps a child whose pipe reached EOF and turns what it left behind into
// its job's result.
ForkedResult Reap(Child& child, const ForkServerOptions& options) {
  close(child.fd);
  int status = 0;
  while (waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFSIGNALED(status)) {
    return FailedChild(child.label, options,
                       StrFormat("killed by signal %d", WTERMSIG(status)));
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
    return FailedChild(child.label, options,
                       StrFormat("exited with status %d", WEXITSTATUS(status)));
  }
  std::string error;
  std::optional<JobResult> result = DecodeJobResult(child.bytes, &error);
  if (!result) {
    return FailedChild(child.label, options, "sent an undecodable result (" + error + ")");
  }
  return {std::move(*result), ""};
}

// Kills a child past its deadline; its job reports the engine's hang.
ForkedResult KillHung(Child& child, const ForkServerOptions& options) {
  kill(child.pid, SIGKILL);
  close(child.fd);
  while (waitpid(child.pid, nullptr, 0) < 0 && errno == EINTR) {
  }
  return {HangResult(child.label, options.system),
          StrFormat("timed out after %llu ms",
                    static_cast<unsigned long long>(options.job_timeout_ms))};
}

}  // namespace

WarmPool::Stats RunForkServer(const WarmPool::Factory& factory, WarmPool::Policy policy,
                              size_t count, const ForkJobMaker& make_job,
                              const ForkResultSink& deliver, const ForkServerOptions& options) {
  WarmPool::Stats stats;
  stats.runs = count;
  if (count == 0) {
    return stats;
  }
  std::unique_ptr<WarmTarget> zygote;
  if (policy == WarmPool::Policy::kReuse) {
    zygote = factory();
    stats.builds = 1;
  } else {
    stats.builds = count;
  }

  // Finished jobs wait here until every earlier one has been delivered.
  std::map<size_t, ForkedResult> finished;
  size_t delivered = 0;
  auto finish = [&](size_t index, ForkedResult result) {
    finished.emplace(index, std::move(result));
    for (auto it = finished.begin(); it != finished.end() && it->first == delivered;
         it = finished.erase(it), ++delivered) {
      deliver(delivered, std::move(it->second));
    }
  };

  const size_t width =
      std::min<size_t>(std::max(1, WorkerPool::ResolveWorkers(options.workers)), count);
  std::vector<Child> running;
  struct KillOnUnwind {  // a throw out of the loop leaves no child behind
    std::vector<Child>& running;
    ~KillOnUnwind() {
      for (Child& child : running) {
        kill(child.pid, SIGKILL);
        close(child.fd);
        waitpid(child.pid, nullptr, 0);
      }
    }
  } kill_on_unwind{running};
  size_t next = 0;
  while (delivered < count) {
    for (; next < count && running.size() < width; ++next) {
      std::variant<Child, ForkedResult> spawned =
          Spawn(zygote.get(), factory, next, make_job(next), options);
      if (Child* child = std::get_if<Child>(&spawned)) {
        running.push_back(std::move(*child));
      } else {
        finish(next, std::get<ForkedResult>(std::move(spawned)));
      }
    }
    if (running.empty()) {
      continue;
    }

    // Drain every pipe as bytes arrive, so a result larger than the pipe
    // buffer never blocks its child, and sleep until the next deadline.
    Clock::time_point wake = Clock::time_point::max();
    std::vector<pollfd> polled;
    for (const Child& child : running) {
      polled.push_back({child.fd, POLLIN, 0});
      wake = std::min(wake, child.deadline);
    }
    int timeout_ms = -1;
    if (wake != Clock::time_point::max()) {
      auto left = std::chrono::ceil<std::chrono::milliseconds>(wake - Clock::now());
      timeout_ms = static_cast<int>(std::max<int64_t>(0, left.count()));
    }
    if (poll(polled.data(), polled.size(), timeout_ms) < 0 && errno != EINTR) {
      throw std::runtime_error(StrFormat("fork server: poll: %s", std::strerror(errno)));
    }
    Clock::time_point now = Clock::now();
    std::vector<Child> still_running;
    for (size_t i = 0; i < running.size(); ++i) {
      Child& child = running[i];
      bool eof = false;
      if (polled[i].revents != 0) {
        const size_t have = child.bytes.size();
        child.bytes.resize(have + kReadChunk);
        ssize_t n = read(child.fd, child.bytes.data() + have, kReadChunk);
        child.bytes.resize(have + static_cast<size_t>(std::max<ssize_t>(n, 0)));
        eof = n == 0 || (n < 0 && errno != EINTR);
      }
      if (eof) {
        finish(child.index, Reap(child, options));
      } else if (now >= child.deadline) {
        finish(child.index, KillHung(child, options));
      } else {
        still_running.push_back(std::move(child));
      }
    }
    running = std::move(still_running);
  }
  return stats;
}

#else  // !LFI_HAVE_FORK

WarmPool::Stats RunForkServer(const WarmPool::Factory& factory, WarmPool::Policy /*policy*/,
                              size_t count, const ForkJobMaker& make_job,
                              const ForkResultSink& deliver, const ForkServerOptions& options) {
  std::string saved_scope = Failpoints::Instance().scope();
  for (size_t index = 0; index < count; ++index) {
    CampaignJob job = make_job(index);
    ScopeFailpoints(options, index);
    FailpointFired("engine.job.run");
    ForkedResult result{factory()->Run(job), ""};
    Failpoints::Instance().SetScope(saved_scope);
    deliver(index, std::move(result));
  }
  WarmPool::Stats stats;
  stats.builds = stats.runs = count;
  return stats;
}

#endif  // LFI_HAVE_FORK

}  // namespace lfi
