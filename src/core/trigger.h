// The Trigger interface and registry (§3.1, §6).
//
// Triggers are pluggable predicates the LFI runtime consults to decide
// whether an intercepted library call should fail. A trigger may inspect any
// part of system state: the intercepted call's arguments, the virtual call
// stack, application globals, or anything reachable through the calling
// VirtualLibc (trigger-issued library calls bypass interception, like a
// dlsym(RTLD_NEXT) call under LD_PRELOAD).
//
// Deviations from the 2010 C++ surface, kept deliberately small:
//   - Eval receives the argument words as a vector instead of varargs; the
//     first parameter is still the intercepted function's name, and pointer
//     arguments are raw pointers cast to words (triggers that know the
//     function's signature cast them back, like the paper's va_arg code).
//   - Eval also receives the calling VirtualLibc, which plays the role of
//     "the process" (its globals, stack and errno are reached through it).
//   - Registration is completed by LFI_REGISTER_TRIGGER(Name) after the class
//     body; the paper's single-macro Registry variant relied on a static
//     member in the macro-generated class, which needs the complete type.

#ifndef LFI_CORE_TRIGGER_H_
#define LFI_CORE_TRIGGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.h"
#include "vlib/interposer.h"
#include "xml/xml.h"

namespace lfi {

class Trigger {
 public:
  virtual ~Trigger() = default;

  // Called once, after construction and before the first Eval, with the
  // <args> element of the trigger's declaration (nullptr when absent).
  // Supports trigger parametrization (§4.1).
  virtual void Init(const XmlNode* init_data) { (void)init_data; }

  // Deterministic reseeding hook for randomized triggers. Called once per
  // instance, right after Init, when the scenario run carries a seed
  // (Runtime::Options::seed != 0); the value is derived from that seed and
  // the instance's declaration ordinal, so every instance gets an
  // independent, reproducible stream. Triggers whose <args> pin an explicit
  // seed keep it: the scenario author's choice wins over the harness.
  virtual void Reseed(uint64_t seed) { (void)seed; }

  // The injection decision. Called every time a function associated with
  // this trigger instance is intercepted. Must be efficient: it runs on the
  // application's fast path. `lib_func_name` is the runtime's interned
  // spelling (a stable reference -- no per-call copy), and `args` the
  // intercepted call's inline word-sized arguments.
  virtual bool Eval(VirtualLibc* libc, const std::string& lib_func_name,
                    const ArgSpan& args) = 0;

  // Conservative static proof, asked of an Init()ed instance that has never
  // been evaluated: true only when no Eval can vote yes in a run whose
  // associated functions are intercepted at most `max_evaluations` times in
  // total. False (the default) claims nothing. Only triggers whose verdict
  // is a function of the call ordinal can prove anything.
  virtual bool CannotFire(uint64_t max_evaluations) const {
    (void)max_evaluations;
    return false;
  }
};

// Intercepted calls per function name in one run (Runtime::call_count).
using CallCounts = std::map<std::string, uint64_t, std::less<>>;

// True when `scenario` provably injects nothing in a run that intercepts
// each function as often as `counts` says (absent = 0). An injecting
// association is dead when one of its non-negated conjuncts CannotFire
// within the summed counts of every function associated with that trigger
// instance; short-circuiting only lowers a trigger's real evaluation count,
// so the sum bounds it. The scenario is inert when every injecting
// association is dead. Run with the counts of a fault-free run, this proves
// that the scenario's run IS the fault-free run: until a first injection
// the two are the same run, and the counts say that injection never comes.
// That relies on trigger evaluation leaving the target untouched, which the
// stock triggers guarantee.
bool ScenarioCannotInject(const Scenario& scenario, const CallCounts& counts);

class TriggerRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Trigger>()>;

  static TriggerRegistry& Instance();

  // Registers a factory under `class_name`; later registrations win, so
  // tests may shadow stock triggers.
  void Register(const std::string& class_name, Factory factory);

  // Instantiates a trigger by class name; nullptr when unknown.
  std::unique_ptr<Trigger> Create(std::string_view class_name) const;

  bool Knows(std::string_view class_name) const;
  std::vector<std::string> RegisteredClasses() const;

 private:
  // Heterogeneous comparator: string_view callers probe without allocating.
  std::map<std::string, Factory, std::less<>> factories_;
};

// Helper whose construction performs the registration.
struct TriggerRegistrar {
  TriggerRegistrar(const char* class_name, TriggerRegistry::Factory factory);
};

// Opens a trigger class derived from Trigger, as in the paper:
//
//   DECLARE_TRIGGER(ReadPipe) {
//    public:
//     bool Eval(...) override { ... }
//   };
//   LFI_REGISTER_TRIGGER(ReadPipe);
#define DECLARE_TRIGGER(NAME) class NAME : public ::lfi::Trigger

#define LFI_REGISTER_TRIGGER(NAME)                                      \
  static ::lfi::TriggerRegistrar lfi_trigger_registrar_##NAME(          \
      #NAME, [] { return std::unique_ptr<::lfi::Trigger>(new NAME()); })

}  // namespace lfi

#endif  // LFI_CORE_TRIGGER_H_
