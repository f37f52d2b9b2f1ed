// Fresh-process job execution from a post-setup zygote.
//
// The paper replays a logged injection in a fresh process. Building a whole
// new target per job gives that at the price of one bring-up per job; this
// layer gives it at the price of one fork() per job, the way AFL's fork
// server amortizes execve (https://lcamtuf.coredump.cx/afl/
// technical_details.txt): the parent builds one post-setup target -- the
// zygote -- and forks one child per job (util/child_process.h). The child
// runs its job on the zygote it inherited copy-on-write and sends the
// JobResult back over its pipe (EncodeJobResult, core/extent_journal.h).
// The parent never runs a job, so the zygote stays pristine and nothing is
// ever Reset().
//
// Under WarmPool::Policy::kFresh (cold start) the parent builds no zygote
// and every child calls the factory itself after the fork: a literal fresh
// process per job, the bring-up the zygote is compared against.
//
// A child is a process, so it is also a crash boundary. A child that dies
// from a signal, exits non-zero or sends bytes that do not decode fails only
// its own job; one that outlives Options::job_timeout_ms is SIGKILLed and
// its job reports the engine's deterministic HangResult. The other jobs
// still run.
//
// The caller must be single-threaded (util/child_process.h). That is why
// this is not a WarmPool policy: engine workers call pools from threads.
//
// Without fork() (non-POSIX builds) every job runs in process on a freshly
// built instance, with no isolation and no timeout.

#ifndef LFI_CORE_FORK_SERVER_H_
#define LFI_CORE_FORK_SERVER_H_

#include <cstdint>
#include <functional>
#include <string>

#include "core/campaign_engine.h"
#include "core/warm_pool.h"

namespace lfi {

struct ForkServerOptions {
  // Children in flight at once (WorkerPool::ResolveWorkers: <= 0 = one per
  // hardware thread).
  int workers = 1;
  // Wall-clock budget per child; 0 = none.
  uint64_t job_timeout_ms = 0;
  // Attributed to the bugs of failed children ("" = "campaign").
  std::string system;
  // Child K evaluates failpoints under scope "<scope_prefix><K>"; "" keeps
  // the parent's scope.
  std::string scope_prefix;
};

// One job's outcome.
struct ForkedResult {
  JobResult result;
  // "" when the child delivered its result. Otherwise how the child failed
  // ("exited with status 9", "killed by signal 9", "timed out after 200 ms",
  // ...); `result` then holds one bug: HangResult for a timeout, else a
  // "child failure" whose site names the exit.
  std::string failure;
};

// Makes job `index` just before its child is forked, so the parent holds
// only the jobs in flight.
using ForkJobMaker = std::function<CampaignJob(size_t index)>;
// Receives job `index`'s outcome; called in job order at any width.
using ForkResultSink = std::function<void(size_t index, ForkedResult result)>;

// Runs jobs 0..count-1, each in its own child forked from one zygote built
// by `factory` (see the file comment). The returned counters read builds 1
// (0 without jobs), or one per job under kFresh; runs one per job; resets
// and dropped 0.
WarmPool::Stats RunForkServer(const WarmPool::Factory& factory, WarmPool::Policy policy,
                              size_t count, const ForkJobMaker& make_job,
                              const ForkResultSink& deliver, const ForkServerOptions& options);

}  // namespace lfi

#endif  // LFI_CORE_FORK_SERVER_H_
