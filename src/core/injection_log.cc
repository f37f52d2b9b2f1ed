#include "core/injection_log.h"

#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>

#include "util/errno_codes.h"
#include "util/string_util.h"

namespace lfi {

std::string InjectionLog::ToString() const {
  std::string out;
  for (const auto& r : records_) {
    out += StrFormat("#%llu %s%s%s: injected retval=%lld",
                     static_cast<unsigned long long>(r.sequence),
                     r.process.empty() ? "" : (r.process + ":").c_str(), r.function.c_str(), "",
                     static_cast<long long>(r.retval));
    if (r.errno_value != 0) {
      out += " errno=" + ErrnoName(r.errno_value);
    }
    out += StrFormat(" (call %llu, triggers: %s)",
                     static_cast<unsigned long long>(r.call_number),
                     Join(r.trigger_ids, ",").c_str());
    if (!r.stack.empty()) {
      out += " stack:";
      for (auto it = r.stack.rbegin(); it != r.stack.rend(); ++it) {
        out += StrFormat(" %s!%s+0x%x", it->module.c_str(), it->function.c_str(), it->offset);
      }
    }
    out += "\n";
  }
  return out;
}

std::string InjectionLog::Fingerprint() const {
  std::string out;
  for (const InjectionRecord& r : records_) {
    if (!out.empty()) {
      out += ";";
    }
    out += StrFormat("%s@%llu=%lld/%d", r.function.c_str(),
                     static_cast<unsigned long long>(r.call_number),
                     static_cast<long long>(r.retval), r.errno_value);
  }
  return out;
}

Scenario InjectionLog::ReplayScenario(size_t index) const {
  Scenario scenario;
  if (index >= records_.size()) {
    return scenario;
  }
  const InjectionRecord& r = records_[index];

  TriggerDecl decl;
  decl.id = StrFormat("replay-%llu", static_cast<unsigned long long>(r.sequence));
  decl.class_name = "CallCountTrigger";
  auto args = std::make_unique<XmlNode>("args");
  args->AddChild("count")->set_text(
      StrFormat("%llu", static_cast<unsigned long long>(r.call_number)));
  decl.set_args(std::move(args));

  FunctionAssoc assoc;
  assoc.function = r.function;
  assoc.retval = r.retval;
  assoc.errno_value = r.errno_value;
  assoc.triggers.push_back(TriggerRef{decl.id, false});

  scenario.AddTrigger(std::move(decl));
  scenario.AddFunction(std::move(assoc));
  return scenario;
}

Scenario InjectionLog::FullReplayScenario() const {
  // One (trigger, association) pair per logged (function, retval, errno),
  // its call-count trigger listing every logged call of that outcome.
  // Same-function associations form a disjunction over disjoint call sets,
  // so exactly the logged calls fire with their logged outcomes, and a
  // capped livelock record (Runtime::kMaxInjectionsPerRun injections of one
  // call) replays with one set lookup per call. A (function, call) logged
  // twice -- only a multi-process log can -- keeps its first outcome.
  // Each group's <args> collects all of its counts before it is attached to
  // the trigger, which takes the args' spelling once, complete.
  Scenario scenario;
  std::map<std::tuple<std::string, int64_t, int>, size_t> group_of;  // -> trigger index
  std::vector<TriggerDecl> triggers;
  std::vector<std::unique_ptr<XmlNode>> args;
  std::vector<FunctionAssoc> assocs;
  std::set<std::pair<std::string, uint64_t>> claimed;
  for (const InjectionRecord& r : records_) {
    if (!claimed.insert({r.function, r.call_number}).second) {
      continue;
    }
    auto [it, fresh] = group_of.emplace(std::make_tuple(r.function, r.retval, r.errno_value),
                                        triggers.size());
    if (fresh) {
      TriggerDecl decl;
      decl.id = StrFormat("replay-%llu", static_cast<unsigned long long>(r.sequence));
      decl.class_name = "CallCountTrigger";
      triggers.push_back(std::move(decl));
      args.push_back(std::make_unique<XmlNode>("args"));
      FunctionAssoc assoc;
      assoc.function = r.function;
      assoc.retval = r.retval;
      assoc.errno_value = r.errno_value;
      assoc.triggers.push_back(TriggerRef{triggers.back().id, false});
      assocs.push_back(std::move(assoc));
    }
    args[it->second]->AddChild("count")->set_text(
        StrFormat("%llu", static_cast<unsigned long long>(r.call_number)));
  }
  for (size_t i = 0; i < triggers.size(); ++i) {
    triggers[i].set_args(std::move(args[i]));
    scenario.AddTrigger(std::move(triggers[i]));
    scenario.AddFunction(std::move(assocs[i]));
  }
  return scenario;
}

void InjectionLog::AppendXml(XmlNode* parent) const {
  XmlNode* log = parent->AddChild("log");
  for (const InjectionRecord& r : records_) {
    XmlNode* node = log->AddChild("injection");
    node->SetAttr("sequence", StrFormat("%llu", static_cast<unsigned long long>(r.sequence)));
    node->SetAttr("function", r.function);
    node->SetAttr("retval", StrFormat("%lld", static_cast<long long>(r.retval)));
    if (r.errno_value != 0) {
      node->SetAttr("errno", ErrnoName(r.errno_value));
    }
    node->SetAttr("call", StrFormat("%llu", static_cast<unsigned long long>(r.call_number)));
    if (!r.process.empty()) {
      node->SetAttr("process", r.process);
    }
    for (const std::string& id : r.trigger_ids) {
      node->AddChild("trigger")->SetAttr("id", id);
    }
    for (const StackFrame& frame : r.stack) {
      XmlNode* f = node->AddChild("frame");
      f->SetAttr("module", frame.module);
      f->SetAttr("function", frame.function);
      f->SetAttr("offset", StrFormat("0x%x", frame.offset));
    }
  }
}

std::string InjectionLog::ToXml() const { return ToXmlElement(*this); }

}  // namespace lfi
