#include "core/fork_server.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/extent_journal.h"
#include "util/binary_io.h"
#include "util/child_process.h"
#include "util/failpoint.h"
#include "util/work_queue.h"

namespace lfi {
namespace {

// A job whose worker did not deliver a result: one bug whose site names the
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

// Turns how job `label`'s worker ended, before it sent the job's result,
// into the job's result.
ForkedResult Outcome(const std::string& label, const ForkServerOptions& options,
                     const ChildEnd& end) {
  if (end.how == ChildEnd::How::kTimedOut) {
    return {HangResult(label, options.system), end.Describe()};
  }
  return FailedChild(label, options, end.Describe());
}

// A worker's reply: whether it reset its instance, then the job's result.
std::string EncodeReply(bool reset, const JobResult& result) {
  ByteWriter reply;
  reply.PutU8(reset ? 1 : 0);
  reply.PutBytes(EncodeJobResult(result));
  return reply.TakeBuffer();
}

std::optional<JobResult> DecodeReply(std::string_view reply, bool* reset, std::string* error) {
  if (reply.empty() || static_cast<uint8_t>(reply[0]) > 1) {
    *error = "bad reset flag";
    return std::nullopt;
  }
  *reset = reply[0] == 1;
  return DecodeJobResult(reply.substr(1), error);
}

std::string EncodeRequest(size_t index) {
  ByteWriter request;
  request.PutU64(index);
  return request.TakeBuffer();
}

// A worker's answer to one job index: the job run on the inherited zygote
// (or on a target built for the job when there is none), which it then
// Reset()s. A failed Reset() is in the reply; the parent retires the
// worker, whose instance is tainted.
std::optional<std::string> ServeJob(WarmTarget* zygote, const WarmPool::Factory& factory,
                                    const ForkJobMaker& make_job,
                                    const ForkServerOptions& options, std::string_view request,
                                    int* exit_status) {
  ByteReader reader(request);
  const size_t index = reader.GetU64();
  if (!reader.ok() || !reader.AtEnd()) {
    *exit_status = 1;
    return std::nullopt;
  }
  if (!options.scope_prefix.empty()) {
    Failpoints::Instance().SetScope(options.scope_prefix + std::to_string(index));
  }
  FailpointFired("engine.job.run");  // as CampaignEngine evaluates it per job
  const CampaignJob job = make_job(index);
  std::unique_ptr<WarmTarget> fresh = zygote == nullptr ? factory() : nullptr;
  JobResult result = (zygote != nullptr ? zygote : fresh.get())->Run(job);
  const bool reset = zygote != nullptr && zygote->Reset();
  return EncodeReply(reset, result);
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
  auto fail = [&](size_t index, std::string failure) {
    finish(index, FailedChild(make_job(index).label, options, std::move(failure)));
  };

  // Worker K lives in slot K. A slot whose worker is gone gets a new one,
  // forked from the pristine zygote, when it next takes a job.
  const size_t width =
      std::min<size_t>(std::max(1, WorkerPool::ResolveWorkers(options.workers)), count);
  ChildProcesses workers;  // a throw out of the loop leaves no worker behind
  std::vector<std::optional<size_t>> in_flight(width);  // each slot's job
  const ChildProcesses::Body serve = [&](int fd) {
    return ServeRequests(fd, [&](std::string_view request, int* exit_status) {
      return ServeJob(zygote.get(), factory, make_job, options, request, exit_status);
    });
  };

  size_t next = 0;
  while (delivered < count) {
    for (size_t slot = 0; slot < width && next < count; ++slot) {
      if (in_flight[slot]) {
        continue;
      }
      // A slot with no worker yet, or one that died while idle, forks a new
      // one: the job never started, so that is no failure. A fork that
      // fails fails the job.
      std::string error;
      if (workers.Dispatch(slot, EncodeRequest(next), /*reuse=*/true, options.job_timeout_ms,
                           serve, &error) == ChildProcesses::Dispatched::kNotStarted) {
        fail(next++, "not started: " + error);
        continue;
      }
      in_flight[slot] = next++;
    }
    std::vector<ChildFrame> frames;
    std::vector<std::pair<size_t, ChildEnd>> ended =
        workers.Wait(ChildProcesses::Clock::time_point::max(), &frames);
    for (const ChildFrame& frame : frames) {
      std::optional<size_t> index = std::exchange(in_flight[frame.id], std::nullopt);
      bool reset = false;
      std::string error;
      std::optional<JobResult> result =
          index ? DecodeReply(frame.payload, &reset, &error) : std::nullopt;
      if (!result) {
        // A reply that does not decode, or answers no job: the worker is
        // not trusted with another.
        workers.Kill(frame.id);
        if (index) {
          fail(*index, "sent an undecodable result (" + error + ")");
        }
        continue;
      }
      if (reset) {
        ++stats.resets;
      } else if (zygote != nullptr) {
        ++stats.dropped;  // its instance is tainted; the worker retires
        workers.Kill(frame.id);
      }
      finish(*index, {std::move(*result), ""});
    }
    for (const auto& [slot, end] : ended) {
      if (std::optional<size_t> index = std::exchange(in_flight[slot], std::nullopt)) {
        finish(*index, Outcome(make_job(*index).label, options, end));
      }
    }
  }
  // Every worker is idle: ending its channel ends it.
  workers.CloseInputs();
  while (workers.running() > 0) {
    workers.Wait();
  }
  return stats;
}

}  // namespace lfi
