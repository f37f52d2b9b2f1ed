// Job execution in persistent workers forked from a post-setup zygote.
//
// The paper replays a logged injection on a target in a known starting
// state. Building a whole new target per job gives that at the price of one
// bring-up per job; this layer gives it at the price of one Reset() per
// job, the way AFL's persistent-mode fork server amortizes both execve and
// fork (https://lcamtuf.coredump.cx/afl/technical_details.txt): the parent
// builds one post-setup target -- the zygote -- and forks one worker per
// slot from it (util/child_process.h). The parent then sends each worker
// only a job index. The worker makes the job itself, runs it on the zygote
// it inherited copy-on-write, Reset()s that instance back to its post-setup
// state, and sends a frame carrying the JobResult (EncodeJobResult,
// core/extent_journal.h) and whether the Reset succeeded. Every job thus
// starts from the post-setup state, as a fresh fork of the zygote would --
// the warm == cold contract WarmPool's policies share -- and the parent
// never runs a job, so its zygote stays pristine.
//
// A worker is forked again from that pristine zygote when the one in its
// slot dies, passes the job's deadline, sends a frame that does not decode,
// or reports a failed Reset() (the instance is tainted; it is retired). Only
// the job in flight is affected: a dead worker fails it, one past
// Options::job_timeout_ms (counted from the job's dispatch) is SIGKILLed and
// the job reports the engine's deterministic HangResult. The
// `replay.deadline` failpoint expires the K-th armed job deadline at once,
// as `supervisor.deadline` does an attempt's. A worker that died
// while idle costs nothing: its next job goes to a respawned worker. A fork
// that fails is a failed attempt too: it fails the job it was for, and the
// slot forks afresh for its next job, as the shard supervisor retries a
// failed fork (apps/common/shard_supervisor.h).
//
// Under WarmPool::Policy::kFresh (cold start) the parent builds no zygote;
// a worker calls the factory for every job and never resets: a literal
// fresh target per job, the bring-up the zygote is compared against.
//
// A worker runs util/child_process.h's one worker loop (ServeRequests), as
// shard workers do, so failpoints behave per job as they would in a fresh
// fork: the loop restores the failpoint state the worker was forked with
// before each job, which then evaluates `engine.job.run` under scope
// "<scope_prefix><index>".
//
// The caller must be single-threaded (util/child_process.h). That is why
// this is not a WarmPool policy: engine workers call pools from threads.

#ifndef LFI_CORE_FORK_SERVER_H_
#define LFI_CORE_FORK_SERVER_H_

#include <cstdint>
#include <functional>
#include <string>

#include "core/campaign_engine.h"
#include "core/warm_pool.h"

namespace lfi {

struct ForkServerOptions {
  // Workers at once, capped at the job count (WorkerPool::ResolveWorkers:
  // <= 0 = one per hardware thread).
  int workers = 1;
  // Wall-clock budget per job, from its dispatch; 0 = none.
  uint64_t job_timeout_ms = 0;
  // Attributed to the bugs of failed jobs ("" = "campaign").
  std::string system;
  // Job K evaluates failpoints under scope "<scope_prefix><K>"; "" keeps
  // the parent's scope.
  std::string scope_prefix;
};

// One job's outcome.
struct ForkedResult {
  JobResult result;
  // "" when the worker delivered the job's result. Otherwise how the worker
  // failed ("exited with status 9", "killed by signal 9", "timed out after
  // 200 ms", ...); `result` then holds one bug: HangResult for a timeout,
  // else a "child failure" whose site names the exit.
  std::string failure;
};

// Makes job `index`. Called in the workers, and in the parent only to
// label a job whose worker failed, so it must be a pure function of the
// state that exists when the workers are forked.
using ForkJobMaker = std::function<CampaignJob(size_t index)>;
// Receives job `index`'s outcome; called in job order at any width.
using ForkResultSink = std::function<void(size_t index, ForkedResult result)>;

// Runs jobs 0..count-1 on min(workers, count) persistent workers forked
// from one zygote built by `factory` (see the file comment). The returned
// counters read runs one per job; builds 1 (0 without jobs), or one per
// job under kFresh; resets the successful in-worker Reset()s; dropped the
// workers retired after a failed Reset().
WarmPool::Stats RunForkServer(const WarmPool::Factory& factory, WarmPool::Policy policy,
                              size_t count, const ForkJobMaker& make_job,
                              const ForkResultSink& deliver, const ForkServerOptions& options);

}  // namespace lfi

#endif  // LFI_CORE_FORK_SERVER_H_
