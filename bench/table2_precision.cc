// Table 2: precision of three triggers targeting the MySQL close bug (§7.1).
//
// Reproduces the paper's custom-trigger walkthrough: 100 runs of the
// merge-big workload under (1) random 10% injection in every close, (2) the
// same restricted by a call-stack trigger to the file containing the bug
// (mi_create), and (3) the close-after-mutex-unlock trigger with distance 2.
// Precision = fraction of runs in which the double-unlock bug was activated.
// Paper: 16% / 45% / 100%.

#include <cstdio>
#include <memory>

#include "apps/mysql/mysql.h"
#include "core/controller.h"
#include "core/custom_triggers.h"
#include "core/stock_triggers.h"
#include "util/errno_codes.h"
#include "util/string_util.h"

namespace lfi {
namespace {

Scenario RandomCloseScenario(uint64_t seed) {
  Scenario s;
  TriggerDecl decl;
  decl.id = "rand";
  decl.class_name = "RandomTrigger";
  auto args = std::make_unique<XmlNode>("args");
  args->AddChild("probability")->set_text("0.1");
  args->AddChild("seed")->set_text(StrFormat("%llu", (unsigned long long)seed));
  decl.set_args(std::move(args));
  s.AddTrigger(std::move(decl));
  FunctionAssoc assoc;
  assoc.function = "close";
  assoc.retval = -1;
  assoc.errno_value = kEIO;
  assoc.triggers.push_back(TriggerRef{"rand", false});
  s.AddFunction(std::move(assoc));
  return s;
}

Scenario FileScopedScenario(uint64_t seed) {
  Scenario s = RandomCloseScenario(seed);
  // Conjunction with a call-stack trigger scoped to the file (function)
  // containing the bug.
  TriggerDecl stack;
  stack.id = "inFile";
  stack.class_name = "CallStackTrigger";
  auto args = std::make_unique<XmlNode>("args");
  XmlNode* frame = args->AddChild("frame");
  frame->AddChild("module")->set_text(MiniMysql::kModule);
  frame->AddChild("function")->set_text("mi_create");
  stack.set_args(std::move(args));
  s.AddTrigger(std::move(stack));
  // Evaluation order matters for precision, not semantics: scope first.
  s.functions()[0].triggers.insert(s.functions()[0].triggers.begin(),
                                   TriggerRef{"inFile", false});
  return s;
}

Scenario CloseAfterUnlockScenario() {
  Scenario s;
  TriggerDecl decl;
  decl.id = "prox";
  decl.class_name = "CloseAfterMutexUnlock";
  auto args = std::make_unique<XmlNode>("args");
  args->AddChild("distance")->set_text("2");
  decl.set_args(std::move(args));
  s.AddTrigger(std::move(decl));
  FunctionAssoc close_assoc;
  close_assoc.function = "close";
  close_assoc.retval = -1;
  close_assoc.errno_value = kEIO;
  close_assoc.triggers.push_back(TriggerRef{"prox", false});
  s.AddFunction(std::move(close_assoc));
  // The trigger must observe the unlocks.
  FunctionAssoc unlock_assoc;
  unlock_assoc.function = "pthread_mutex_unlock";
  unlock_assoc.unused = true;
  unlock_assoc.triggers.push_back(TriggerRef{"prox", false});
  s.AddFunction(std::move(unlock_assoc));
  return s;
}

int RunTrials(const char* label, const std::function<Scenario(uint64_t)>& make_scenario,
              const char* paper) {
  const int kTrials = 100;
  int activated = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    VirtualFs fs;
    VirtualNet net;
    MiniMysql mysql(&fs, &net, "/mysql");
    TestController controller(make_scenario(static_cast<uint64_t>(trial) + 1));
    TestOutcome outcome = controller.RunTest(&mysql.libc(), [&] { return mysql.MergeBig(); });
    if (outcome.crashed() && outcome.crash_kind == CrashKind::kDoubleUnlock) {
      ++activated;
    }
  }
  std::printf("%-38s %3d%%   (paper: %s)\n", label, activated, paper);
  return activated;
}

}  // namespace
}  // namespace lfi

int main() {
  lfi::EnsureStockTriggersRegistered();
  lfi::EnsureCustomTriggersRegistered();
  std::printf("=== Table 2: trigger precision on the MySQL close bug ===\n");
  std::printf("(100 merge-big runs per scenario; %% of runs activating the bug)\n\n");
  int p1 = lfi::RunTrials("Random (10%)",
                          [](uint64_t seed) { return lfi::RandomCloseScenario(seed); }, "16%");
  int p2 = lfi::RunTrials("Random (10%) within bug's file",
                          [](uint64_t seed) { return lfi::FileScopedScenario(seed); }, "45%");
  int p3 = lfi::RunTrials("Close after mutex unlock (distance 2)",
                          [](uint64_t) { return lfi::CloseAfterUnlockScenario(); }, "100%");
  bool shape = p1 < p2 && p2 < p3 && p3 == 100;
  std::printf("\nOrdering random < file-scoped < domain-specific: %s\n",
              shape ? "reproduced" : "NOT reproduced");
  return shape ? 0 : 1;
}
