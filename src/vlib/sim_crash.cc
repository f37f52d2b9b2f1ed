#include "vlib/sim_crash.h"

namespace lfi {

const char* CrashKindName(CrashKind kind) {
  switch (kind) {
    case CrashKind::kSegfault:
      return "SIGSEGV";
    case CrashKind::kAbort:
      return "SIGABRT";
    case CrashKind::kAssert:
      return "assertion failure";
    case CrashKind::kDoubleUnlock:
      return "double mutex unlock";
    case CrashKind::kHang:
      return "hang";
  }
  return "?";
}

}  // namespace lfi
