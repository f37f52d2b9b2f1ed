#include "core/trigger.h"

#include <algorithm>

namespace lfi {

TriggerRegistry& TriggerRegistry::Instance() {
  static TriggerRegistry* registry = new TriggerRegistry;
  return *registry;
}

void TriggerRegistry::Register(const std::string& class_name, Factory factory) {
  factories_[class_name] = std::move(factory);
}

std::unique_ptr<Trigger> TriggerRegistry::Create(std::string_view class_name) const {
  auto it = factories_.find(class_name);
  if (it == factories_.end()) {
    return nullptr;
  }
  return it->second();
}

bool TriggerRegistry::Knows(std::string_view class_name) const {
  return factories_.count(class_name) != 0;
}

std::vector<std::string> TriggerRegistry::RegisteredClasses() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) {
    out.push_back(name);
  }
  return out;
}

bool ScenarioCannotInject(const Scenario& scenario, const CallCounts& counts) {
  // The evaluation bound of trigger `id`: the calls of every distinct
  // function any association (injecting or not) routes through it.
  auto bound = [&](const std::string& id) {
    uint64_t sum = 0;
    std::vector<std::string_view> routed;
    for (const FunctionAssoc& assoc : scenario.functions()) {
      bool references = std::any_of(assoc.triggers.begin(), assoc.triggers.end(),
                                    [&](const TriggerRef& ref) { return ref.ref == id; });
      if (!references ||
          std::find(routed.begin(), routed.end(), assoc.function) != routed.end()) {
        continue;
      }
      routed.push_back(assoc.function);
      auto it = counts.find(assoc.function);
      sum += it == counts.end() ? 0 : it->second;
    }
    return sum;
  };
  // A fresh Init()ed instance of trigger `id` can prove the bound out of
  // reach; an unknown class or undeclared id proves nothing.
  auto cannot_fire = [&](const std::string& id) {
    const TriggerDecl* decl = scenario.FindTrigger(id);
    std::unique_ptr<Trigger> trigger =
        decl != nullptr ? TriggerRegistry::Instance().Create(decl->class_name) : nullptr;
    if (trigger == nullptr) {
      return false;
    }
    trigger->Init(decl->args().get());
    return trigger->CannotFire(bound(id));
  };
  for (const FunctionAssoc& assoc : scenario.functions()) {
    if (assoc.unused) {
      continue;  // observes only; never injects
    }
    // A negated vote is yes exactly when the trigger cannot fire: only
    // plain conjuncts can kill the association.
    auto kills = [&](const TriggerRef& ref) { return !ref.negate && cannot_fire(ref.ref); };
    if (!std::any_of(assoc.triggers.begin(), assoc.triggers.end(), kills)) {
      return false;
    }
  }
  return true;
}

TriggerRegistrar::TriggerRegistrar(const char* class_name, TriggerRegistry::Factory factory) {
  TriggerRegistry::Instance().Register(class_name, std::move(factory));
}

}  // namespace lfi
