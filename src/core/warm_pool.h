// Warm-instance job execution: snapshot/reset target pools.
//
// A campaign job's wall-clock is dominated by target bring-up: every cold run
// builds a fresh VirtualFs/VirtualNet/application, replays the setup phase,
// and throws it all away after one scenario. This layer amortizes that, the
// way AFL's fork server amortizes execve: a WarmTarget constructs the target
// once with injection disarmed, snapshots the post-setup state (filesystem,
// network fabric, libc-visible process state, application fields, coverage),
// and Reset() rolls everything back bit-exactly between jobs.
//
// The pool is the only way a job reaches a target. Its policy decides what
// happens between jobs: kReuse (the default) resets and re-pools the
// instance; kFresh builds a fresh instance per job and destroys it after the
// run without ever resetting it -- the paper's fresh-process-per-test model,
// and the `--cold-start` ablation.
//
// The correctness bar is strict: bugs, coverage, fingerprints, and campaign
// journal *bytes* must be identical under both policies at any worker or
// shard count. That holds because (a) a fresh instance and a reset one are
// in the same post-setup state when the job starts, and (b) Reset() restores
// every bit of state a job can mutate -- anything it cannot restore (a
// setup-era handle the job released) makes Reset() return false and the pool
// drops the instance instead of reusing a tainted one.
//
// Pool discipline is checkout/checkin: a worker takes an idle instance (or
// builds one when none is idle), runs the job, resets, and returns it. A
// crashed job is fine -- SimCrash unwinds through RunTest, which detaches the
// interposer, and Reset() erases the wreckage. A job whose Reset() fails is
// dropped. A *hung* job (engine watchdog fired, thread abandoned) never
// checks its instance back in, so the next job simply builds anew; if the
// abandoned thread eventually finishes and its Reset() succeeds, re-pooling
// the instance is legitimate -- it is back in bit-exact snapshot state. The
// idle list and counters live in state the runner shares, so a late finisher
// never touches a pool that was destroyed while it hung.

#ifndef LFI_CORE_WARM_POOL_H_
#define LFI_CORE_WARM_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/campaign_engine.h"

namespace lfi {

// One reusable target instance: owns the application plus its virtual
// environment, holds the post-setup snapshot, and knows how to roll back.
class WarmTarget {
 public:
  virtual ~WarmTarget() = default;

  // Runs one job against the instance, which is in post-setup state.
  virtual JobResult Run(const CampaignJob& job) = 0;

  // Rolls the instance back to its post-setup snapshot. Returns false when
  // the state is non-restorable (the job released a setup-era resource); the
  // instance must then be discarded.
  virtual bool Reset() = 0;
};

// A thread-safe pool of target instances sharing one factory. Sized by
// demand: at most one instance per concurrently running job ever exists, so
// an N-worker engine holds at most N.
class WarmPool {
 public:
  using Factory = std::function<std::unique_ptr<WarmTarget>()>;

  enum class Policy {
    kReuse,  // reset after each job and re-pool the instance
    kFresh,  // build per job, destroy after it, never reset (cold start)
  };

  struct Stats {
    uint64_t builds = 0;   // factory invocations (bring-ups)
    uint64_t runs = 0;     // jobs executed
    uint64_t resets = 0;   // successful rollbacks (instance re-pooled)
    uint64_t dropped = 0;  // instances discarded after a failed Reset()
  };

  explicit WarmPool(Factory factory, Policy policy = Policy::kReuse);

  WarmPool(const WarmPool&) = delete;
  WarmPool& operator=(const WarmPool&) = delete;

  // Checkout -> Run -> Reset -> checkin under kReuse; build -> Run ->
  // destroy under kFresh. A kReuse instance is dropped (and the next job
  // pays a build) when Reset() fails or the job escapes with an exception
  // the harness did not absorb.
  JobResult RunJob(const CampaignJob& job) { return state_->RunJob(job); }

  // Adapts the pool to the engine's runner seam. The runner shares the
  // pool's state, so it stays valid after the pool itself is destroyed.
  CampaignEngine::ResultRunner AsRunner() const {
    return [state = state_](const CampaignJob& job) { return state->RunJob(job); };
  }

  Stats stats() const;

 private:
  struct State {
    Factory factory;
    Policy policy;
    std::mutex mu;
    std::vector<std::unique_ptr<WarmTarget>> idle;
    Stats stats;

    JobResult RunJob(const CampaignJob& job);
    std::unique_ptr<WarmTarget> Checkout();
  };

  std::shared_ptr<State> state_;
};

}  // namespace lfi

#endif  // LFI_CORE_WARM_POOL_H_
