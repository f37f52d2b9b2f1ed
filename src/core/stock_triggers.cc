#include "core/stock_triggers.h"

#include <algorithm>

#include "core/distributed.h"
#include "util/string_util.h"
#include "vlib/virtual_libc.h"

namespace lfi {

// --- CallStackTrigger --------------------------------------------------------

void CallStackTrigger::Init(const XmlNode* init_data) {
  if (init_data == nullptr) {
    return;
  }
  for (const XmlNode* frame : init_data->Children("frame")) {
    FrameSpec spec;
    spec.module = frame->ChildText("module");
    spec.function = frame->ChildText("function");
    std::string offset = frame->ChildText("offset");
    if (!offset.empty()) {
      // Offsets are hexadecimal, as printed by the call-site analyzer
      // (the paper's PBFT example uses "8054a69").
      auto v = ParseInt(StartsWith(offset, "0x") ? offset : "0x" + offset);
      if (v) {
        spec.has_offset = true;
        spec.offset = static_cast<uint32_t>(*v);
      }
    }
    frames_.push_back(std::move(spec));
  }
}

bool CallStackTrigger::Eval(VirtualLibc* libc, const std::string& lib_func_name,
                            const ArgSpan& args) {
  (void)lib_func_name;
  (void)args;
  if (frames_.empty()) {
    return false;
  }
  const auto& stack = libc->stack().frames();
  // Every declared frame must match some active frame.
  for (const FrameSpec& spec : frames_) {
    bool matched = false;
    for (const StackFrame& frame : stack) {
      if (!spec.module.empty() && frame.module != spec.module) {
        continue;
      }
      if (!spec.function.empty() && frame.function != spec.function) {
        continue;
      }
      if (spec.has_offset && frame.offset != spec.offset) {
        continue;
      }
      matched = true;
      break;
    }
    if (!matched) {
      return false;
    }
  }
  return true;
}

// --- ProgramStateTrigger -------------------------------------------------------

void ProgramStateTrigger::Init(const XmlNode* init_data) {
  if (init_data == nullptr) {
    return;
  }
  var_ = init_data->ChildText("var");
  var2_ = init_data->ChildText("var2");
  op_ = init_data->ChildText("op", "eq");
  if (auto v = ParseInt(init_data->ChildText("value"))) {
    value_ = *v;
  }
}

bool ProgramStateTrigger::Eval(VirtualLibc* libc, const std::string& lib_func_name,
                               const ArgSpan& args) {
  (void)lib_func_name;
  (void)args;
  auto lhs = libc->GetGlobal(var_);
  if (!lhs) {
    return false;
  }
  int64_t rhs = value_;
  if (!var2_.empty()) {
    auto v2 = libc->GetGlobal(var2_);
    if (!v2) {
      return false;
    }
    rhs = *v2;
  }
  if (op_ == "eq") {
    return *lhs == rhs;
  }
  if (op_ == "ne") {
    return *lhs != rhs;
  }
  if (op_ == "lt") {
    return *lhs < rhs;
  }
  if (op_ == "le") {
    return *lhs <= rhs;
  }
  if (op_ == "gt") {
    return *lhs > rhs;
  }
  if (op_ == "ge") {
    return *lhs >= rhs;
  }
  return false;
}

// --- CallCountTrigger -------------------------------------------------------------

void CallCountTrigger::Init(const XmlNode* init_data) {
  if (init_data == nullptr) {
    return;
  }
  std::vector<uint64_t> targets;
  for (const XmlNode* count : init_data->Children("count")) {
    if (auto v = ParseInt(Trim(count->text()))) {
      targets.push_back(static_cast<uint64_t>(*v));
    }
  }
  if (!targets.empty()) {
    std::sort(targets.begin(), targets.end());
    targets_ = std::move(targets);
  }
}

bool CallCountTrigger::Eval(VirtualLibc* libc, const std::string& lib_func_name,
                            const ArgSpan& args) {
  (void)args;
  // "An injection should occur exactly on the n-th call to a function": the
  // boundary count is authoritative, so the trigger is exact even when it is
  // short-circuited away on some calls.
  return std::binary_search(targets_.begin(), targets_.end(), libc->CallCount(lib_func_name));
}

// --- SingletonTrigger ----------------------------------------------------------------

bool SingletonTrigger::Eval(VirtualLibc* libc, const std::string& lib_func_name,
                            const ArgSpan& args) {
  (void)libc;
  (void)lib_func_name;
  (void)args;
  if (fired_) {
    return false;
  }
  fired_ = true;
  return true;
}

// --- RandomTrigger --------------------------------------------------------------------

void RandomTrigger::Init(const XmlNode* init_data) {
  if (init_data == nullptr) {
    return;
  }
  std::string p = init_data->ChildText("probability");
  if (!p.empty()) {
    probability_ = std::strtod(p.c_str(), nullptr);
  }
  if (auto seed = ParseInt(init_data->ChildText("seed"))) {
    rng_ = Rng(static_cast<uint64_t>(*seed));
    seed_from_args_ = true;
  }
}

void RandomTrigger::Reseed(uint64_t seed) {
  if (!seed_from_args_) {
    rng_ = Rng(seed);
  }
}

bool RandomTrigger::Eval(VirtualLibc* libc, const std::string& lib_func_name,
                         const ArgSpan& args) {
  (void)libc;
  (void)lib_func_name;
  (void)args;
  return rng_.Chance(probability_);
}

// --- DistributedTrigger ------------------------------------------------------------------

bool DistributedTrigger::Eval(VirtualLibc* libc, const std::string& lib_func_name,
                              const ArgSpan& args) {
  auto* controller = static_cast<DistributedController*>(
      libc->GetService(DistributedController::kServiceName));
  if (controller == nullptr) {
    return false;
  }
  return controller->ShouldInject(libc->process_name(), lib_func_name, args);
}

LFI_REGISTER_TRIGGER(CallStackTrigger);
LFI_REGISTER_TRIGGER(ProgramStateTrigger);
LFI_REGISTER_TRIGGER(CallCountTrigger);
LFI_REGISTER_TRIGGER(SingletonTrigger);
LFI_REGISTER_TRIGGER(RandomTrigger);
LFI_REGISTER_TRIGGER(DistributedTrigger);

void EnsureStockTriggersRegistered() {}

}  // namespace lfi
