// The LFI interposition runtime (§4.3, §6).
//
// Implements the Interposer installed on a VirtualLibc. For every
// intercepted call it looks up the function's associations in O(1)
// (independent of scenario size), evaluates the referenced triggers in
// declaration order with short-circuit conjunction semantics, and -- when a
// whole conjunction votes yes on a non-"unused" association -- injects the
// configured return value and errno side effect, recording the event in the
// injection log. Trigger instances are created eagerly but initialized
// lazily, right before their first evaluation, to keep program startup free
// of LFI overhead.
//
// The per-call path is allocation-free: functions arrive as pre-interned
// FunctionIds, associations and call counters live in dense vectors indexed
// by id, and the fired-trigger id string is only materialized when an
// injection is actually recorded. Two ablations quantify the design (§7.4):
// linear_lookup replaces the O(1) association lookup with a scan, and
// string_keyed_reference reinstates the historical string-keyed maps --
// per-call std::string copy, two string-hash probes, heap-allocated ArgVec
// -- as the before/after baseline of bench_interpose_overhead.

#ifndef LFI_CORE_RUNTIME_H_
#define LFI_CORE_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/injection_log.h"
#include "core/scenario.h"
#include "core/trigger.h"
#include "vlib/interposer.h"

namespace lfi {

class Runtime : public Interposer {
 public:
  // Injections one run may make. A target that correctly retries a call a
  // trigger fails every time -- an EINTR retry loop under a call-stack
  // trigger -- never terminates; the injection that reaches the cap ends the
  // run with a SimCrash of kind kHang at the retrying site instead of
  // growing the log without bound. Well above any terminating run (about
  // 19,000 in one runtime under 60% pbft message loss over 6,000 ticks), and
  // a capped record stays small enough to journal and replay in seconds.
  static constexpr uint64_t kMaxInjectionsPerRun = 65536;

  struct Options {
    // Uses a linear scan over all associations instead of the id-indexed
    // vector, to quantify the O(1)-lookup design decision.
    bool linear_lookup = false;
    // Reinstates the pre-interning hot path: a std::string copy of the
    // function name, string-keyed hash maps for association lookup and call
    // counts, and a heap-allocated ArgVec per intercepted call. Injection
    // behaviour is bit-identical; only the per-call cost differs. This is
    // the "before" of the §7.4 overhead comparison.
    bool string_keyed_reference = false;
    // Per-scenario RNG seed. When non-zero, every trigger instance is
    // Reseed()ed with a stream derived from this value and its declaration
    // ordinal, making randomized scenarios bit-reproducible regardless of
    // which campaign worker runs them. Zero leaves triggers on their
    // declared or default seeds.
    uint64_t seed = 0;
  };

  // Process-wide lookup-mode defaults, ORed into the options of every
  // Runtime constructed afterwards. Lets equivalence tests and benches run
  // entire campaigns on the ablation paths without threading options through
  // every harness. Set once before a run, reset after; not meant to be
  // flipped while runtimes are being constructed concurrently.
  static void SetLookupModeDefaults(bool linear_lookup, bool string_keyed_reference);

  // Builds the runtime from a scenario. Unknown trigger classes surface in
  // error(); the runtime then behaves as if those triggers always vote no.
  explicit Runtime(const Scenario& scenario) : Runtime(scenario, Options()) {}
  Runtime(const Scenario& scenario, Options options);
  ~Runtime() override;

  InjectionDecision OnCall(VirtualLibc* libc, FunctionId function,
                           const ArgSpan& args) override;

  const InjectionLog& log() const { return log_; }
  InjectionLog& mutable_log() { return log_; }
  const std::string& error() const { return error_; }

  // Telemetry for the overhead evaluation (§7.4).
  uint64_t interceptions() const { return interceptions_; }
  uint64_t trigger_evaluations() const { return trigger_evaluations_; }
  uint64_t injections() const { return injections_; }
  // Calls of `function` intercepted so far.
  uint64_t call_count(std::string_view function) const;

  // Arms/disarms injection globally. Disarmed, triggers still run (so the
  // overhead benches measure pure trigger cost, §7.4: "we did not actually
  // inject faults, but allowed the triggers to pass the calls through").
  void set_armed(bool armed) { armed_ = armed; }
  bool armed() const { return armed_; }

 private:
  struct TriggerInstance {
    TriggerDecl decl;
    std::unique_ptr<Trigger> trigger;
    size_t ordinal = 0;  // declaration position, keys the Reseed stream
    bool initialized = false;
  };
  struct Assoc {
    FunctionAssoc spec;
    FunctionId function_id = 0;              // interned spec.function
    std::vector<TriggerInstance*> triggers;  // resolved refs, conjunction order
    std::vector<bool> negate;
  };

  bool EvalConjunction(Assoc& assoc, VirtualLibc* libc, const std::string& function,
                       const ArgSpan& args);

  // The disjunction over `indices` shared by every lookup mode.
  InjectionDecision Dispatch(VirtualLibc* libc, const std::string& function,
                             const ArgSpan& args, const std::vector<size_t>& indices,
                             uint64_t call_number);

  Options options_;
  std::string error_;
  std::vector<std::unique_ptr<TriggerInstance>> instances_;
  std::vector<Assoc> assocs_;  // declaration order (disjunction across same name)
  // Assoc indices per FunctionId; the single hot-path lookup (one bounds
  // check + one vector index). Sized to the largest scenario function id.
  std::vector<std::vector<size_t>> by_function_;
  std::vector<uint64_t> call_counts_;  // dense, indexed by FunctionId
  // string_keyed_reference ablation state: the seed's maps, rebuilt only
  // when that mode is active.
  std::unordered_map<std::string, std::vector<size_t>> ref_by_function_;
  std::unordered_map<std::string, uint64_t> ref_call_counts_;
  // Triggers of the current conjunction that voted yes; reused across calls
  // so the common no-injection case never allocates. The fired-id string is
  // built from this only when an injection is recorded.
  std::vector<const TriggerInstance*> fired_scratch_;
  InjectionLog log_;
  bool armed_ = true;
  uint64_t interceptions_ = 0;
  uint64_t trigger_evaluations_ = 0;
  uint64_t injections_ = 0;
  uint64_t sequence_ = 0;
};

}  // namespace lfi

#endif  // LFI_CORE_RUNTIME_H_
