// The fully automatic pipeline (§2, §5): profile a library binary, analyze an
// application binary for unchecked call sites, generate injection scenarios,
// run them against the application's workload, and diagnose the crash from
// the injection log -- no source code of the target needed at any step.
//
// The target is mini-Git; the pipeline rediscovers its readdir-after-failed-
// opendir crash (Table 1).

#include <cstdio>

#include "analysis/callsite_analyzer.h"
#include "apps/git/git.h"
#include "core/controller.h"
#include "core/scenario_gen.h"
#include "util/errno_codes.h"
#include "core/stock_triggers.h"
#include "profiler/profiler.h"
#include "profiler/stub_gen.h"
#include "vlib/library_profiles.h"

int main() {
  lfi::EnsureStockTriggersRegistered();

  // Step 1: profile libc -- from its binary.
  lfi::Image libc_binary = lfi::GenerateLibraryImage(lfi::LibcProfile());
  lfi::LibraryProfiler profiler;
  lfi::FaultProfile profile = profiler.Profile(libc_binary);
  std::printf("step 1: profiled %zu functions from the %s binary\n",
              profile.functions().size(), libc_binary.module_name().c_str());
  const lfi::FunctionProfile* opendir_profile = profile.Find("opendir");
  std::printf("        e.g. opendir() fails with retval=0 and errno in {");
  for (size_t i = 0; i < opendir_profile->errors[0].errnos.size(); ++i) {
    std::printf("%s%s", i ? ", " : "",
                lfi::ErrnoName(opendir_profile->errors[0].errnos[i]).c_str());
  }
  std::printf("}\n\n");

  // Step 2: analyze the application binary.
  const lfi::AppBinary& app = lfi::GitBinary();
  lfi::CallSiteAnalyzer analyzer;
  size_t full = 0;
  size_t partial = 0;
  size_t unchecked = 0;
  std::vector<lfi::CallSiteReport> vulnerable;
  for (const auto& [name, fn] : profile.functions()) {
    for (auto& report : analyzer.Analyze(app.image(), name, fn.ErrorCodes())) {
      switch (report.check_class) {
        case lfi::CheckClass::kFull:
          ++full;
          break;
        case lfi::CheckClass::kPartial:
          ++partial;
          break;
        case lfi::CheckClass::kNone:
          ++unchecked;
          vulnerable.push_back(std::move(report));
          break;
      }
    }
  }
  std::printf("step 2: analyzed %s (%zu instructions): C_yes=%zu  C_part=%zu  C_not=%zu\n\n",
              app.image().module_name().c_str(), app.image().instruction_count(), full,
              partial, unchecked);

  // Step 3: generate and run a scenario per vulnerable site.
  std::printf("step 3: injecting at each unchecked site against the default test suite\n");
  int crashes = 0;
  for (const auto& report : vulnerable) {
    lfi::Scenario scenario = lfi::GenerateSiteScenario(report, profile);
    if (scenario.functions().empty()) {
      continue;
    }
    lfi::VirtualFs fs;
    lfi::VirtualNet net;
    lfi::MiniGit git(&fs, &net, "/repo");
    lfi::TestController controller(scenario);
    lfi::TestOutcome outcome =
        controller.RunTest(&git.libc(), [&] { return git.RunDefaultTestSuite(); });
    if (outcome.crashed()) {
      ++crashes;
      std::printf("  CRASH  %-10s at %s+0x%x -> %s\n", report.site.function.c_str(),
                  report.site.enclosing.c_str(), report.site.offset,
                  outcome.crash_where.c_str());
      if (report.site.function == "opendir") {
        std::printf("         log: %s", controller.runtime()->log().ToString().c_str());
      }
    }
  }
  std::printf("\n%d crash(es) found fully automatically.\n", crashes);
  return crashes > 0 ? 0 : 1;
}
