// Fault-tolerant shard supervision on persistent workers.
//
// The orchestration loop in CampaignDriver (the epoch protocol, open-loop
// specs included) hands each epoch's per-shard child specs to this
// supervisor, with the work it dealt each shard. Every shard has one
// worker: a fork of the orchestrator (util/child_process.h) that stays alive
// across Run() calls, so a clean campaign forks each worker once. A Run()
// sends each worker one request frame -- the fields of the attempt's spec
// that change between attempts (epoch, journal, resume, failpoints) plus
// the caller's work payload -- and the worker, in the one worker loop of
// util/child_process.h that replay's workers run too, restores the
// failpoint state it was forked with, runs `runner(spec, work)` and
// answers with a status frame. The supervisor owns each attempt's
// lifecycle:
//
//   request -> running -> replied                           (done)
//                      -> nonzero exit / killed by signal   -> backoff -> fresh fork
//                      -> bad reply                         -> kill -> backoff -> fresh fork
//                      -> exit kChildRefusedExitStatus      (failed, never retried)
//                      -> deadline exceeded -> SIGKILL      -> backoff -> fresh fork
//   fork fails                                              -> backoff -> fresh fork
//
// A fork that fails is a failed attempt, in the first wave as in a
// respawn, as replay's fork server treats it (core/fork_server.h); the
// `supervisor.fork` failpoint fails one. The `supervisor.deadline`
// failpoint expires an attempt's deadline as it is armed (the K-th arming
// with `@K`; only with Options::child_timeout_ms set), so a test of the
// deadline policy waits out no clock. No attempt ever runs in the
// supervising process, so the orchestrator's zygote stays pristine.
// Respawns are capped exponential backoff up to Options::max_retries, each
// on a freshly forked worker; a respawned attempt re-checks its journal on
// disk and resumes it, so the crashed attempt's sealed prefix is salvaged
// and only unfinished work re-executes -- every record is seeded and dealt
// deterministically, which is why the final merged journal stays
// byte-identical to an unfailed run under any failure schedule. Failpoint
// schedules (CampaignSpec::failpoints) are stripped from respawned attempts:
// a retry models a fresh replacement host, not a machine that crashes the
// same way forever. A worker serves a later Run()'s first attempt only when
// that spec differs from the one it was forked with in the request's
// fields alone; otherwise, or when it died while idle, a new one is forked.
// Destroying the supervisor SIGKILLs and reaps its idle workers.
//
// The caller must be single-threaded (util/child_process.h).

#ifndef LFI_APPS_COMMON_SHARD_SUPERVISOR_H_
#define LFI_APPS_COMMON_SHARD_SUPERVISOR_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "apps/common/campaign_spec.h"
#include "util/child_process.h"

namespace lfi {

// How a supervised child attempt ended.
enum class ChildExit {
  kClean,        // the worker replied: the attempt succeeded
  kNonZero,      // the worker exited before replying
  kSignaled,     // killed by a signal (a crash), or SIGKILLed for a bad reply
  kTimedOut,     // exceeded its deadline; the supervisor SIGKILLed it
  kSpawnFailed,  // fork itself failed
  kRefused,      // refused its spec deterministically; never retried
};

// Exit status of a child process that refused its spec: the spec failed
// validation, or a journal on disk records a different campaign. Running
// the same spec again gets the same refusal, so the supervisor fails that
// child at its first attempt instead of backing off and respawning.
inline constexpr int kChildRefusedExitStatus = 78;  // sysexits' EX_CONFIG

// What a runner throws to report such a refusal (the worker process then
// exits with kChildRefusedExitStatus).
class ChildRefusal : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

const char* ChildExitName(ChildExit exit);

class ShardSupervisor {
 public:
  struct Options {
    // Wall-clock deadline per child attempt; 0 = none. An attempt past its
    // deadline is SIGKILLed and classified kTimedOut.
    uint64_t child_timeout_ms = 0;
    // Respawns per child after a failed attempt (0 = fail on the first).
    size_t max_retries = 2;
    // First respawn delay; doubles per respawn, capped at 10s.
    uint64_t backoff_ms = 50;
  };

  // Per-child accounting, for reporting and tests.
  struct Report {
    size_t shard = 0;
    size_t attempts = 0;  // attempts in this Run, including the first
    ChildExit last_exit = ChildExit::kClean;
    int status = 0;  // exit code (kNonZero) or signal number (kSignaled/kTimedOut)
    // Workers forked for this child in this Run, respawns included, failed
    // forks not; 0 when its attempt ran on the worker an earlier Run left
    // idle.
    size_t forks = 0;
  };

  // Runs one child attempt in the child's worker. `work` is the payload
  // Run() was given for the child ("" when none). Must be self-contained
  // given its inputs (CampaignDriver's is the one used). Returns false on a
  // failure worth retrying; throws ChildRefusal on one that is not.
  using WorkRunner = std::function<bool(const CampaignSpec&, std::string_view work, std::string*)>;
  // A runner that takes no work payload.
  using ChildRunner = std::function<bool(const CampaignSpec&, std::string*)>;

  // Called in this process while the children run: `dispatched` once every
  // child's first attempt was dispatched (or failed to fork), `finished(i)`
  // as child i's attempt succeeds, in completion order. Either returning
  // false (with *error) kills the workers and fails the Run with that
  // error.
  struct Events {
    std::function<bool(std::string*)> dispatched;
    std::function<bool(size_t child, std::string*)> finished;
  };

  ShardSupervisor(Options options, WorkRunner runner)
      : options_(std::move(options)), runner_(std::move(runner)) {}
  ShardSupervisor(Options options, ChildRunner runner);

  // Supervises one attempt per spec to completion, child i on worker i.
  // False + *error when a child exhausted its retries (other children still
  // run to completion first, so their sealed journals survive for resume)
  // or an event said so. `work`, when not empty, holds one payload per
  // child. `reports`, when given, receives one entry per child.
  bool Run(const std::vector<CampaignSpec>& children, const std::vector<std::string>& work,
           const Events& events, std::string* error, std::vector<Report>* reports = nullptr);
  bool Run(const std::vector<CampaignSpec>& children, std::string* error,
           std::vector<Report>* reports = nullptr) {
    return Run(children, {}, {}, error, reports);
  }

  // Times the last Run() returned from ChildProcesses::Wait. Wait sleeps
  // until a worker replies or ends, a deadline passes or a respawn is due,
  // so a clean Run of N children wakes at most N times.
  size_t wakeups() const { return wakeups_; }

 private:
  Options options_;
  WorkRunner runner_;
  // Worker i runs child i.
  ChildProcesses workers_{"supervisor.fork", "supervisor.deadline"};
  // Per worker slot: the spec its live worker was forked with.
  std::vector<std::optional<CampaignSpec>> forked_with_;
  size_t wakeups_ = 0;
};

}  // namespace lfi

#endif  // LFI_APPS_COMMON_SHARD_SUPERVISOR_H_
