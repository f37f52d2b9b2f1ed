// Deterministic failpoints: scripted faults in the orchestrator itself.
//
// The campaign layer injects faults into *targets*; this registry injects
// them into the campaign machinery -- fork, journal append/finalize, the
// merge rename, a child's startup, a target bring-up -- so the supervision
// and recovery paths (apps/common/shard_supervisor.h) can be chaos-tested
// deterministically.
// Production code evaluates `FailpointFired("name")` at each fallible
// operation; the call is a cheap atomic check when nothing is armed.
//
// Arming is a comma-separated spec string, CampaignSpec::failpoints (the
// --failpoints flag):
//
//   [scope:]name=action[@hit]
//
//   action   error     FailpointFired returns true; the caller simulates
//                      the operation failing (its normal error path runs).
//            exit[:N]  the process dies on the spot via _Exit(N) (default
//                      9), no destructors -- a crash.
//            hang      the evaluating thread blocks until Clear() releases
//                      it -- a hung child or job.
//   @hit     fire on the K-th matching evaluation (default 1), once.
//   scope:   only fire in a process whose scope (SetScope) equals this;
//            scopeless entries fire in any process. The campaign driver
//            scopes shard children "shard<I>" / "epoch<E>.shard<I>", so one
//            spec string can script "shard 2 dies in epoch 1" and reach
//            every child untouched in its spec; replay scopes the child of
//            its K-th replayed record "replay<K>".
//
// Arm() replaces the whole armed set (the spec string is the complete
// schedule), so re-arming an inherited registry in a forked child is
// idempotent. Hit counters are per-entry and one-shot: retried children,
// which the supervisor respawns with the failpoints stripped, run clean.

#ifndef LFI_UTIL_FAILPOINT_H_
#define LFI_UTIL_FAILPOINT_H_

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

namespace lfi {

class Failpoints {
 public:
  // Process-wide registry; nothing is armed until Arm(). Forked children
  // inherit the parent's armed set.
  static Failpoints& Instance();

  // Replaces the armed set with the entries in `spec` ("" disarms
  // everything, like Clear). False + *error on a malformed spec; the
  // previous set stays armed.
  bool Arm(const std::string& spec, std::string* error = nullptr);

  // Disarms everything and releases threads parked in a hang action.
  void Clear();

  // The process scope matched against entry scope prefixes. "" (the
  // default) matches only scopeless entries.
  void SetScope(std::string scope);
  std::string scope() const;

  // Evaluates the failpoint: false when unarmed, scope-mismatched, or the
  // hit count has not been reached. exit entries _Exit the process here;
  // hang entries block here until Clear(); error entries return true
  // exactly once.
  bool Fire(const char* name);

  bool armed() const { return any_armed_.load(std::memory_order_acquire); }

 private:
  Failpoints() = default;

  enum class Action { kError, kExit, kHang };
  struct Entry {
    std::string scope;  // "" = any process
    std::string name;
    Action action = Action::kError;
    int exit_code = 9;
    size_t fire_at = 1;  // fire on the fire_at-th matching evaluation
    size_t hits = 0;     // matching evaluations so far
    bool spent = false;  // fired already (one-shot)
  };

  static bool ParseSpec(const std::string& spec, std::vector<Entry>* out,
                        std::string* error);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::string scope_;
  std::atomic<bool> any_armed_{false};
  std::atomic<bool> release_hangs_{false};
};

// The evaluation call production code uses. True = the caller must fail the
// operation it guards (the entry's action was `error`).
inline bool FailpointFired(const char* name) {
  Failpoints& fp = Failpoints::Instance();
  return fp.armed() && fp.Fire(name);
}

}  // namespace lfi

#endif  // LFI_UTIL_FAILPOINT_H_
