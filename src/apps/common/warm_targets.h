// Per-system job execution: target factories and the ExecutionLayer that
// serves a campaign's jobs through WarmPools built from them.
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

#include <memory>
#include <string>

#include "apps/common/campaign_spec.h"
#include "core/campaign_engine.h"
#include "core/warm_pool.h"

namespace lfi {

// --- target factories ----------------------------------------------------------
// One factory per (system, workload kind), handed to WarmPool.

WarmPool::Factory GitWarmFactory();
WarmPool::Factory MysqlWarmFactory();
WarmPool::Factory BindWarmFactory();
// The dst_lib_init malloc sweep (bind's Table 1 second phase).
WarmPool::Factory BindDstWarmFactory();
// `requests`/`max_ticks` size the workload (8/2000 for the Table 1 campaign,
// 20/3000 for exploration -- enough to cross the checkpoint interval).
WarmPool::Factory PbftWarmFactory(int requests, int max_ticks);
// Distributed random sendto/recvfrom faults across every replica (pbft's
// Table 1 second phase).
WarmPool::Factory PbftDistributedWarmFactory();
// `rounds`/`max_ticks` size the multi-client workload (2/600 for the Table 1
// campaign, 3/900 for exploration's longer scripts). Runs the consistency
// oracle's remount audit after every non-crashed injected run.
WarmPool::Factory BfsWarmFactory(int rounds, int max_ticks);
// Partial-transfer faults on the vnet fabric (bfs's Table 1 second phase):
// arms seed-derived partial-send/recv probabilities instead of a
// library-fault scenario, so the connection mux's recovery paths run.
WarmPool::Factory BfsMuxWarmFactory();

// The factory of `system`'s campaign-wide workload in `mode` (the
// ExecutionLayer's main pool, and the zygote replay forks its workers from);
// empty for an unknown system.
WarmPool::Factory WorkloadFactory(const std::string& system, CampaignMode mode);

// --- the execution layer -----------------------------------------------------
// Owns a campaign's pools and hands out the one ResultRunner the engine
// plugs in. Lifetime: one single-process campaign, or a whole orchestrated
// one -- the orchestrator's layer is the zygote every shard worker forks
// from. The orchestrator runs no job on it, so it stays pristine, and the
// workers run their jobs on the post-setup instances they inherit instead
// of building their own. `mode` picks the
// workload size: pbft and bfs run a longer workload under kExplore than
// under kTable1.
// `cold_start` (spec attribute cold-start) builds the same pools under
// WarmPool::Policy::kFresh, so `lfi_tool --cold-start` byte-compares against
// the default.
class ExecutionLayer {
 public:
  ExecutionLayer(const std::string& system, CampaignMode mode, bool cold_start);

  // The campaign's one runner: a job runs on the pool of `system`'s
  // workload in `mode`, or, when it is a second_phase job (bind's dst
  // sweep, pbft's distributed fuzz, bfs's partial transfers), on the pool
  // of that second-phase workload. Empty for an unknown system.
  CampaignEngine::ResultRunner runner() const;

  // Prewarms the main pool with `count` instances (WarmPool::Prewarm); a
  // no-op under cold_start.
  void Prewarm(size_t count);

  // Main-pool counters: how much bring-up the pool amortized (builds == runs
  // under cold_start).
  WarmPool::Stats pool_stats() const;

 private:
  std::unique_ptr<WarmPool> pool_;
  std::unique_ptr<WarmPool> phase_pool_;
};

}  // namespace lfi

#endif  // LFI_APPS_COMMON_WARM_TARGETS_H_
