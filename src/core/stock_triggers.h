// The six stock triggers LFI provides out of the box (§3.2).
//
//   CallStackTrigger    -- fires when the virtual call stack matches a set of
//                          user-provided frames (module, hex offset, function);
//                          this is the trigger the call-site analyzer emits.
//   ProgramStateTrigger -- fires when a relation over application globals
//                          holds (e.g. numConnections == maxConnections).
//   CallCountTrigger    -- fires exactly on the n-th evaluation (or on each
//                          of several listed ordinals); the building block
//                          of deterministic failure replay.
//   SingletonTrigger    -- fires exactly once; composed at the end of a
//                          conjunction it caps a scenario at one injection.
//   RandomTrigger       -- fires with a configurable probability.
//   DistributedTrigger  -- defers the decision to a central controller with a
//                          global view of the distributed system (§7.3).
//
// All are registered with the TriggerRegistry under their class names, so
// scenarios reference them directly. Including this header (or linking the
// core library) makes them available.

#ifndef LFI_CORE_STOCK_TRIGGERS_H_
#define LFI_CORE_STOCK_TRIGGERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/trigger.h"
#include "util/rng.h"

namespace lfi {

DECLARE_TRIGGER(CallStackTrigger) {
 public:
  struct FrameSpec {
    std::string module;    // empty = any
    std::string function;  // empty = any
    bool has_offset = false;
    uint32_t offset = 0;
  };

  void Init(const XmlNode* init_data) override;
  bool Eval(VirtualLibc* libc, const std::string& lib_func_name, const ArgSpan& args) override;

 private:
  std::vector<FrameSpec> frames_;
};

DECLARE_TRIGGER(ProgramStateTrigger) {
 public:
  void Init(const XmlNode* init_data) override;
  bool Eval(VirtualLibc* libc, const std::string& lib_func_name, const ArgSpan& args) override;

 private:
  std::string var_;
  std::string var2_;  // compare two globals when set
  std::string op_ = "eq";
  int64_t value_ = 0;
};

DECLARE_TRIGGER(CallCountTrigger) {
 public:
  void Init(const XmlNode* init_data) override;
  bool Eval(VirtualLibc* libc, const std::string& lib_func_name, const ArgSpan& args) override;
  // The ordinal Eval compares is the call's own count, which never exceeds
  // the calls made: every listed ordinal past `max_evaluations` is out of
  // reach.
  bool CannotFire(uint64_t max_evaluations) const override {
    return targets_.front() > max_evaluations;
  }

 private:
  // Sorted 1-based call ordinals to fire on, one per <count> argument.
  std::vector<uint64_t> targets_ = {1};
};

DECLARE_TRIGGER(SingletonTrigger) {
 public:
  bool Eval(VirtualLibc* libc, const std::string& lib_func_name, const ArgSpan& args) override;

 private:
  bool fired_ = false;
};

DECLARE_TRIGGER(RandomTrigger) {
 public:
  void Init(const XmlNode* init_data) override;
  void Reseed(uint64_t seed) override;
  bool Eval(VirtualLibc* libc, const std::string& lib_func_name, const ArgSpan& args) override;

 private:
  double probability_ = 0.0;
  Rng rng_{0x1f1f1f1f};
  bool seed_from_args_ = false;  // an explicit <seed> pins the stream
};

DECLARE_TRIGGER(DistributedTrigger) {
 public:
  bool Eval(VirtualLibc* libc, const std::string& lib_func_name, const ArgSpan& args) override;
};

// Linking stock_triggers.cc registers all six; this no-op anchors the object
// file against linker dead-stripping when only the registry is used.
void EnsureStockTriggersRegistered();

}  // namespace lfi

#endif  // LFI_CORE_STOCK_TRIGGERS_H_
