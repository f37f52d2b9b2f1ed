#include "core/scenario_gen.h"

#include <memory>

#include "util/string_util.h"

namespace lfi {
namespace {

void AppendSiteVariant(Scenario* scenario, const CallSiteReport& report, int64_t retval,
                       int errno_value, uint64_t call_count) {
  // Trigger id: the call-site offset in hex, like the paper's "8054a69".
  TriggerDecl decl;
  decl.id = StrFormat("%x", report.site.offset);
  decl.class_name = "CallStackTrigger";
  auto args = std::make_unique<XmlNode>("args");
  XmlNode* frame = args->AddChild("frame");
  frame->AddChild("module")->set_text(report.site.module);
  frame->AddChild("offset")->set_text(StrFormat("%x", report.site.offset));
  decl.set_args(std::move(args));

  FunctionAssoc assoc;
  assoc.function = report.site.function;
  assoc.retval = retval;
  assoc.errno_value = errno_value;
  assoc.triggers.push_back(TriggerRef{decl.id, false});
  scenario->AddTrigger(std::move(decl));

  if (call_count > 0) {
    // Conjunction order matters: the stack trigger runs first, so with
    // short-circuit evaluation the count trigger only advances on calls made
    // *at this site* -- "the n-th call here", not "the n-th call anywhere".
    TriggerDecl nth;
    nth.id = StrFormat("%x-n%llu", report.site.offset, (unsigned long long)call_count);
    nth.class_name = "CallCountTrigger";
    auto nth_args = std::make_unique<XmlNode>("args");
    nth_args->AddChild("count")->set_text(
        StrFormat("%llu", (unsigned long long)call_count));
    nth.set_args(std::move(nth_args));
    assoc.triggers.push_back(TriggerRef{nth.id, false});
    scenario->AddTrigger(std::move(nth));
  }

  scenario->AddFunction(std::move(assoc));
}

void AppendSite(Scenario* scenario, const CallSiteReport& report, const FaultProfile& profile) {
  const FunctionProfile* fn = profile.Find(report.site.function);
  if (fn == nullptr) {
    return;
  }
  int64_t retval;
  int errno_value;
  if (!PickSiteErrorMode(report, *fn, &retval, &errno_value)) {
    return;
  }
  AppendSiteVariant(scenario, report, retval, errno_value, /*call_count=*/0);
}

}  // namespace

bool PickSiteErrorMode(const CallSiteReport& report, const FunctionProfile& fn, int64_t* retval,
                       int* errno_value) {
  const ErrorSpec* chosen = nullptr;
  if (report.check_class == CheckClass::kPartial) {
    for (const ErrorSpec& e : fn.errors) {
      if (report.missing_codes.count(e.retval) != 0) {
        chosen = &e;
        break;
      }
    }
  }
  if (chosen == nullptr && !fn.errors.empty()) {
    chosen = &fn.errors.front();
  }
  if (chosen == nullptr) {
    return false;
  }
  *retval = chosen->retval;
  *errno_value = chosen->errnos.empty() ? 0 : chosen->errnos.front();
  return true;
}

Scenario GenerateSiteScenarioVariant(const CallSiteReport& report, int64_t retval,
                                     int errno_value, uint64_t call_count) {
  Scenario scenario;
  AppendSiteVariant(&scenario, report, retval, errno_value, call_count);
  return scenario;
}

GeneratedScenarios GenerateScenarios(const std::vector<CallSiteReport>& reports,
                                     const FaultProfile& profile) {
  GeneratedScenarios out;
  for (const CallSiteReport& report : reports) {
    switch (report.check_class) {
      case CheckClass::kNone:
        AppendSite(&out.unchecked, report, profile);
        break;
      case CheckClass::kPartial:
        AppendSite(&out.partial, report, profile);
        break;
      case CheckClass::kFull:
        break;
    }
  }
  return out;
}

Scenario GenerateSiteScenario(const CallSiteReport& report, const FaultProfile& profile) {
  Scenario scenario;
  AppendSite(&scenario, report, profile);
  return scenario;
}

}  // namespace lfi
