// The LFI controller (§2).
//
// Coordinates one fault-injection test: installs the runtime (synthesized
// from the scenario) on the target process's libc, runs the developer-
// provided workload, and monitors how the target terminates -- normally or
// with a simulated crash -- collecting the information a developer needs to
// diagnose the bug: the exit status, the injection log, and for crashes the
// trap kind and location.

#ifndef LFI_CORE_CONTROLLER_H_
#define LFI_CORE_CONTROLLER_H_

#include <functional>
#include <memory>
#include <string>

#include "core/runtime.h"
#include "core/scenario.h"
#include "vlib/sim_crash.h"
#include "vlib/virtual_libc.h"

namespace lfi {

enum class ExitStatus {
  kNormal,       // workload returned
  kCrash,        // simulated SIGSEGV / SIGABRT / assertion / double unlock
  kWorkloadError,  // workload reported failure without crashing (bad exit code)
};

struct TestOutcome {
  ExitStatus status = ExitStatus::kNormal;
  CrashKind crash_kind = CrashKind::kSegfault;  // valid when status == kCrash
  std::string crash_where;
  size_t injections = 0;

  bool crashed() const { return status == ExitStatus::kCrash; }
};

class TestController {
 public:
  // The workload returns true on success (the monitor checks the "exit
  // code"); throwing SimCrash models the process dying on a signal.
  using Workload = std::function<bool()>;

  explicit TestController(Scenario scenario)
      : TestController(std::move(scenario), Runtime::Options()) {}
  TestController(Scenario scenario, Runtime::Options options)
      : scenario_(std::move(scenario)), options_(options) {}

  // Runs `workload` with a fresh Runtime interposed on `libc`. The previous
  // interposer is restored afterwards. The runtime (and its log) from the
  // last run stays accessible via runtime().
  TestOutcome RunTest(VirtualLibc* libc, const Workload& workload);

  Runtime* runtime() { return runtime_.get(); }

 private:
  Scenario scenario_;
  Runtime::Options options_;
  std::unique_ptr<Runtime> runtime_;
};

}  // namespace lfi

#endif  // LFI_CORE_CONTROLLER_H_
