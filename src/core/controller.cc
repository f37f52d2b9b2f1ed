#include "core/controller.h"

namespace lfi {

TestOutcome TestController::RunTest(VirtualLibc* libc, const Workload& workload) {
  runtime_ = std::make_unique<Runtime>(scenario_, options_);
  Interposer* previous = libc->interposer();
  libc->ResetCallCounts();  // fresh-process semantics for call-count triggers
  libc->set_interposer(runtime_.get());

  TestOutcome outcome;
  try {
    bool ok = workload();
    outcome.status = ok ? ExitStatus::kNormal : ExitStatus::kWorkloadError;
  } catch (const SimCrash& crash) {
    outcome.status = ExitStatus::kCrash;
    outcome.crash_kind = crash.kind();
    outcome.crash_where = crash.where();
  }
  libc->set_interposer(previous);

  outcome.injections = runtime_->log().size();
  return outcome;
}

}  // namespace lfi
