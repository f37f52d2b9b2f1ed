// Per-system job execution: the target factories a campaign's WarmPool is
// built from.
//
// Every workload the campaign driver dispatches exists in exactly one copy --
// a *runner core* operating on an already-constructed target (git's test
// suite, pbft's request workload, ...), private to warm_targets.cc. A factory
// constructs the target, runs its injection-disarmed setup, snapshots it
// (core/warm_pool.h), and serves jobs through the core. The pool's policy
// decides whether an instance is reset and reused after a job or destroyed
// and the next job gets a fresh one; the core, and the post-setup state it
// starts from, are the same either way, so bugs, coverage, fingerprints, and
// journal bytes cannot diverge between the two.
//
// Snapshot points (== the state a job's workload starts from):
//   git, mysql, bind:  after application construction. Everything else --
//       the mysql errmsg write + Startup(), git's test suite, bind's zone
//       loading -- happens inside the faulted workload, so it must re-run
//       per job.
//   pbft, bfs:  after cluster construction *and* Start() (socket bring-up,
//       key derivation), before any interposer is installed.

#ifndef LFI_APPS_COMMON_WARM_TARGETS_H_
#define LFI_APPS_COMMON_WARM_TARGETS_H_

#include <string>

#include "apps/common/campaign_spec.h"
#include "core/warm_pool.h"

namespace lfi {

// --- target factories ----------------------------------------------------------
// One factory per system and workload size, handed to WarmPool. A job
// flagged CampaignJob::second_phase runs the system's Table 1 second phase
// on the same post-setup instance: bind's dst_lib_init malloc sweep, pbft's
// distributed random sendto/recvfrom faults across every replica, bfs's
// seed-derived partial-send/recv probabilities on the vnet fabric (so the
// connection mux's recovery paths run). Reset() rolls back whatever either
// workload left, so one pool serves both.

WarmPool::Factory GitWarmFactory();
WarmPool::Factory MysqlWarmFactory();
WarmPool::Factory BindWarmFactory();
// `requests`/`max_ticks` size the workload (8/2000 for the Table 1 campaign,
// 20/3000 for exploration -- enough to cross the checkpoint interval).
WarmPool::Factory PbftWarmFactory(int requests, int max_ticks);
// `rounds`/`max_ticks` size the multi-client workload (2/600 for the Table 1
// campaign, 3/900 for exploration's longer scripts). Runs the consistency
// oracle's remount audit after every non-crashed injected run.
WarmPool::Factory BfsWarmFactory(int rounds, int max_ticks);

// The factory of `system`'s workload in `mode`: the one pool a campaign's
// jobs run on (pbft and bfs run a longer workload under kExplore than under
// kTable1), and the zygote replay forks its workers from. Null for an
// unknown system.
WarmPool::Factory WorkloadFactory(const std::string& system, CampaignMode mode);

}  // namespace lfi

#endif  // LFI_APPS_COMMON_WARM_TARGETS_H_
