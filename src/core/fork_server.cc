#include "core/fork_server.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/extent_journal.h"
#include "util/child_process.h"
#include "util/failpoint.h"
#include "util/work_queue.h"

#ifdef LFI_HAVE_FORK
#include <unistd.h>

#include <cerrno>
#endif

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
// target it builds itself when there is none) and send the encoded result
// down `fd`.
int ServeChild(WarmTarget* zygote, const WarmPool::Factory& factory, const CampaignJob& job,
               size_t index, const ForkServerOptions& options, int fd) {
  ScopeFailpoints(options, index);
  FailpointFired("engine.job.run");  // as CampaignEngine evaluates it per job
  std::unique_ptr<WarmTarget> fresh;
  if (zygote == nullptr) {
    fresh = factory();
    zygote = fresh.get();
  }
  return WriteAll(fd, EncodeJobResult(zygote->Run(job))) ? 0 : 1;
}

// Turns how job `label`'s child ended, and what it sent, into its result.
ForkedResult Outcome(const std::string& label, const ForkServerOptions& options,
                     const ChildEnd& end) {
  if (end.how == ChildEnd::How::kTimedOut) {
    return {HangResult(label, options.system), end.Describe()};
  }
  if (!end.clean()) {
    return FailedChild(label, options, end.Describe());
  }
  std::string error;
  std::optional<JobResult> result = DecodeJobResult(end.output, &error);
  if (!result) {
    return FailedChild(label, options, "sent an undecodable result (" + error + ")");
  }
  return {std::move(*result), ""};
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
  ChildProcesses children;  // a throw out of the loop leaves no child behind
  std::map<size_t, std::string> labels;  // of the jobs in flight
  size_t next = 0;
  while (delivered < count) {
    for (; next < count && children.running() < width; ++next) {
      CampaignJob job = make_job(next);
      std::string error;
      if (children.Start(
              next, options.job_timeout_ms,
              [&](int fd) { return ServeChild(zygote.get(), factory, job, next, options, fd); },
              &error)) {
        labels.emplace(next, job.label);
      } else {
        finish(next, FailedChild(job.label, options, "not started: " + error));
      }
    }
    for (const auto& [index, end] : children.Wait()) {
      auto label = labels.extract(index);
      finish(index, Outcome(label.mapped(), options, end));
    }
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
