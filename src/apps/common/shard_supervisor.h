// Fault-tolerant shard child supervision.
//
// The orchestration paths in CampaignDriver (plain shard/merge and the epoch
// protocol) hand their per-shard child specs to this supervisor. Every child
// is a fork of the orchestrator (util/child_process.h) that runs
// `runner(spec)`; the supervisor owns its lifecycle:
//
//   spawn -> running -> exited 0                            (done)
//                    -> nonzero exit / killed by signal     -> backoff -> respawn
//                    -> exit kChildRefusedExitStatus        (failed, never retried)
//                    -> deadline exceeded -> SIGKILL        -> backoff -> respawn
//   spawn fails      -> kill + reap started children, run every child
//                       sequentially in-process (degraded, never fatal)
//
// Respawns are capped exponential backoff up to Options::max_retries; a
// respawned child re-checks its journal on disk and resumes it, so the
// crashed attempt's sealed prefix is salvaged and only unfinished work
// re-executes -- every record is seeded and dealt deterministically, which is
// why the final merged journal stays byte-identical to an unfailed run under
// any failure schedule. Failpoint schedules (CampaignSpec::failpoints) are
// stripped from respawned children: a retry models a fresh replacement host,
// not a machine that crashes the same way forever.
//
// The caller must be single-threaded (util/child_process.h). Non-POSIX
// builds fall back to one thread per child, unsupervised (no deadlines, no
// retries).

#ifndef LFI_APPS_COMMON_SHARD_SUPERVISOR_H_
#define LFI_APPS_COMMON_SHARD_SUPERVISOR_H_

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/common/campaign_spec.h"

namespace lfi {

// How a supervised child attempt ended.
enum class ChildExit {
  kClean,        // exit(0)
  kNonZero,      // exited with a nonzero status
  kSignaled,     // killed by a signal (a crash)
  kTimedOut,     // exceeded its deadline; the supervisor SIGKILLed it
  kSpawnFailed,  // fork itself failed
  kRefused,      // refused its spec deterministically; never retried
};

// Exit status of a child process that refused its spec: the spec failed
// validation, or a journal on disk records a different campaign. Running
// the same spec again gets the same refusal, so the supervisor fails that
// child at its first attempt instead of backing off and respawning.
inline constexpr int kChildRefusedExitStatus = 78;  // sysexits' EX_CONFIG

// What a ChildRunner throws to report such a refusal (the child process
// then exits with kChildRefusedExitStatus).
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
    size_t attempts = 0;  // spawns, including the first
    ChildExit last_exit = ChildExit::kClean;
    int status = 0;  // exit code (kNonZero) or signal number (kSignaled/kTimedOut)
    bool ran_in_process = false;  // spawn-failure fallback executed this child
  };

  // Runs one child campaign in the calling process: the body of a forked
  // child, and the spawn-failure fallback. Must be self-contained given the
  // spec (CampaignDriver::Run is the one used). Returns false on a failure
  // worth retrying; throws ChildRefusal on one that is not.
  using ChildRunner = std::function<bool(const CampaignSpec&, std::string*)>;

  ShardSupervisor(Options options, ChildRunner runner)
      : options_(std::move(options)), runner_(std::move(runner)) {}

  // Supervises one child per spec to completion. False + *error when a child
  // exhausted its retries (other children still run to completion first, so
  // their sealed journals survive for resume) or the in-process fallback
  // failed. `reports`, when given, receives one entry per child.
  bool Run(const std::vector<CampaignSpec>& children, std::string* error,
           std::vector<Report>* reports = nullptr);

 private:
  bool RunFallback(const std::vector<CampaignSpec>& children, std::string* error,
                   std::vector<Report>* reports);

  Options options_;
  ChildRunner runner_;
};

}  // namespace lfi

#endif  // LFI_APPS_COMMON_SHARD_SUPERVISOR_H_
