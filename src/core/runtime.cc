#include "core/runtime.h"

#include <atomic>

#include "util/string_util.h"
#include "vlib/sim_crash.h"
#include "vlib/virtual_libc.h"

namespace lfi {

namespace {
// Process-wide ablation defaults (SetLookupModeDefaults). Read once per
// Runtime construction, never on the per-call path.
std::atomic<bool> g_default_linear_lookup{false};
std::atomic<bool> g_default_string_keyed_reference{false};
}  // namespace

void Runtime::SetLookupModeDefaults(bool linear_lookup, bool string_keyed_reference) {
  g_default_linear_lookup.store(linear_lookup, std::memory_order_relaxed);
  g_default_string_keyed_reference.store(string_keyed_reference, std::memory_order_relaxed);
}

Runtime::Runtime(const Scenario& scenario, Options options) : options_(options) {
  options_.linear_lookup |= g_default_linear_lookup.load(std::memory_order_relaxed);
  options_.string_keyed_reference |=
      g_default_string_keyed_reference.load(std::memory_order_relaxed);

  std::unordered_map<std::string, TriggerInstance*> by_id;
  size_t longest_conjunction = 0;
  for (const TriggerDecl& decl : scenario.triggers()) {
    auto instance = std::make_unique<TriggerInstance>();
    instance->decl = decl;
    instance->ordinal = instances_.size();
    instance->trigger = TriggerRegistry::Instance().Create(decl.class_name);
    if (instance->trigger == nullptr) {
      error_ += "unknown trigger class '" + decl.class_name + "'; ";
    }
    by_id[decl.id] = instance.get();
    instances_.push_back(std::move(instance));
  }
  for (const FunctionAssoc& spec : scenario.functions()) {
    Assoc assoc;
    assoc.spec = spec;
    assoc.function_id = InternFunction(spec.function);
    for (const TriggerRef& ref : spec.triggers) {
      auto it = by_id.find(ref.ref);
      if (it == by_id.end()) {
        error_ += "unresolved trigger ref '" + ref.ref + "'; ";
        continue;
      }
      assoc.triggers.push_back(it->second);
      assoc.negate.push_back(ref.negate);
    }
    longest_conjunction = std::max(longest_conjunction, assoc.triggers.size());
    if (assoc.function_id >= by_function_.size()) {
      by_function_.resize(assoc.function_id + 1);
    }
    by_function_[assoc.function_id].push_back(assocs_.size());
    if (options_.string_keyed_reference) {
      ref_by_function_[spec.function].push_back(assocs_.size());
    }
    assocs_.push_back(std::move(assoc));
  }
  call_counts_.resize(by_function_.size(), 0);
  fired_scratch_.reserve(longest_conjunction);
}

Runtime::~Runtime() = default;

uint64_t Runtime::call_count(std::string_view function) const {
  if (options_.string_keyed_reference) {
    auto it = ref_call_counts_.find(std::string(function));
    return it == ref_call_counts_.end() ? 0 : it->second;
  }
  auto id = SymbolTable::Functions().Find(function);
  if (!id || *id >= call_counts_.size()) {
    return 0;
  }
  return call_counts_[*id];
}

bool Runtime::EvalConjunction(Assoc& assoc, VirtualLibc* libc, const std::string& function,
                              const ArgSpan& args) {
  bool verdict = true;
  fired_scratch_.clear();
  for (size_t i = 0; i < assoc.triggers.size(); ++i) {
    TriggerInstance* instance = assoc.triggers[i];
    if (instance->trigger == nullptr) {
      return false;  // unknown class: conjunction cannot fire
    }
    if (!instance->initialized) {
      // Lazy initialization: first evaluation, not program startup (§4.3).
      instance->trigger->Init(instance->decl.args.get());
      if (options_.seed != 0) {
        // Golden-ratio stride decorrelates the per-instance streams; the
        // trigger's own Rng scrambles the raw value again.
        instance->trigger->Reseed(options_.seed +
                                  0x9e3779b97f4a7c15ull * (instance->ordinal + 1));
      }
      instance->initialized = true;
    }
    ++trigger_evaluations_;
    bool vote = instance->trigger->Eval(libc, function, args);
    if (assoc.negate[i]) {
      vote = !vote;
    }
    if (vote) {
      fired_scratch_.push_back(instance);
    } else {
      verdict = false;
      if (!options_.disable_short_circuit) {
        return false;  // short-circuit: skip the remaining triggers
      }
    }
  }
  return verdict && !assoc.triggers.empty();
}

InjectionDecision Runtime::Dispatch(VirtualLibc* libc, const std::string& function,
                                    const ArgSpan& args, const std::vector<size_t>& indices,
                                    uint64_t call_number) {
  InjectionDecision decision;
  // Associations with the same function name form a disjunction: the first
  // conjunction that fires decides the injection.
  for (size_t index : indices) {
    Assoc& assoc = assocs_[index];
    if (!EvalConjunction(assoc, libc, function, args)) {
      continue;
    }
    if (assoc.spec.unused) {
      continue;  // observation-only association: triggers saw the call
    }
    if (!armed_) {
      continue;  // measurement mode: evaluate triggers but never inject
    }
    ++injections_;
    // Only now -- on an actual injection, the rare case -- does the record
    // pay for strings and the stack snapshot.
    std::vector<std::string> fired_ids;
    fired_ids.reserve(fired_scratch_.size());
    for (const TriggerInstance* fired : fired_scratch_) {
      fired_ids.push_back(fired->decl.id);
    }
    InjectionRecord record;
    record.sequence = ++sequence_;
    record.function = function;
    record.retval = assoc.spec.retval;
    record.errno_value = assoc.spec.errno_value;
    record.trigger_ids = std::move(fired_ids);
    record.call_number = call_number;
    record.stack = libc->stack().frames();
    record.process = libc->process_name();
    log_.Record(std::move(record));
    if (injections_ >= kMaxInjectionsPerRun) {
      const StackFrame* frame = libc->stack().top();
      throw SimCrash(CrashKind::kHang,
                     frame == nullptr
                         ? "livelock under injected faults: " + function
                         : StrFormat("livelock under injected faults: %s@%s+0x%x",
                                     function.c_str(), frame->function.c_str(), frame->offset));
    }

    decision.inject = true;
    decision.retval = assoc.spec.retval;
    decision.errno_value = assoc.spec.errno_value;
    return decision;
  }
  return decision;
}

InjectionDecision Runtime::OnCall(VirtualLibc* libc, FunctionId function,
                                  const ArgSpan& args) {
  if (options_.string_keyed_reference) {
    // Reference ablation: the seed's exact per-call pattern -- materialize
    // the name, heap-allocate the argument vector, and probe two
    // string-keyed hash maps -- so bench_interpose_overhead can measure the
    // before/after of interning on one binary.
    std::string fn(FunctionName(function));
    ArgVec heap_args(args.begin(), args.end());
    auto it = ref_by_function_.find(fn);
    if (it == ref_by_function_.end()) {
      return InjectionDecision{};  // not an intercepted function
    }
    ++interceptions_;
    uint64_t call_number = ++ref_call_counts_[fn];
    return Dispatch(libc, fn, ArgSpan(heap_args), it->second, call_number);
  }

  InjectionDecision decision;
  const std::vector<size_t>* indices = nullptr;
  if (options_.linear_lookup) {
    // Ablation path: scan every association for an id match.
    static thread_local std::vector<size_t> scratch;
    scratch.clear();
    for (size_t i = 0; i < assocs_.size(); ++i) {
      if (assocs_[i].function_id == function) {
        scratch.push_back(i);
      }
    }
    if (scratch.empty()) {
      return decision;
    }
    indices = &scratch;
  } else {
    if (function >= by_function_.size() || by_function_[function].empty()) {
      return decision;  // not an intercepted function: one bounds check
    }
    indices = &by_function_[function];
  }

  ++interceptions_;
  // Any id that reached here matched an association, so it is < the
  // construction-time call_counts_ size: no growth on the hot path.
  uint64_t call_number = ++call_counts_[function];
  return Dispatch(libc, FunctionName(function), args, *indices, call_number);
}

}  // namespace lfi
