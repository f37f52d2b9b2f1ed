// Simulated process failure.
//
// The paper's controller runs the target in a separate process and its
// monitor script observes segfaults, aborts and assertion failures. Here the
// target applications run in-process against the virtual libc, so hardware
// traps must be simulated: dereferencing a null FILE*/DIR*/buffer, a double
// mutex unlock, or an explicit assertion raises SimCrash, which unwinds
// through the application (which, like a real process receiving SIGSEGV,
// cannot catch it meaningfully) up to the test monitor. Only monitor code --
// the controller and the test harness -- may catch SimCrash.

#ifndef LFI_VLIB_SIM_CRASH_H_
#define LFI_VLIB_SIM_CRASH_H_

#include <stdexcept>
#include <string>

namespace lfi {

enum class CrashKind {
  kSegfault,      // null/invalid pointer dereference
  kAbort,         // abort(), e.g. from a failed assertion deep in a library
  kAssert,        // application-level assertion failure
  kDoubleUnlock,  // unlocking a mutex that is not held
  kHang,          // livelock: the run hit Runtime's per-run injection cap
};

const char* CrashKindName(CrashKind kind);

class SimCrash : public std::runtime_error {
 public:
  SimCrash(CrashKind kind, std::string where)
      : std::runtime_error(std::string(CrashKindName(kind)) + " in " + where),
        kind_(kind),
        where_(std::move(where)) {}

  CrashKind kind() const { return kind_; }
  const std::string& where() const { return where_; }

 private:
  CrashKind kind_;
  std::string where_;
};

// The moral equivalent of the MMU: returns `p` when non-null, raises a
// simulated segfault otherwise. Buggy application code dereferences library
// results through this helper so missing error checks crash like they would
// on real hardware.
template <typename T>
T* MustDeref(T* p, const char* where) {
  if (p == nullptr) {
    throw SimCrash(CrashKind::kSegfault, where);
  }
  return p;
}

// Application assertion: models REQUIRE()-style macros in BIND and friends.
inline void SimAssert(bool condition, const char* where) {
  if (!condition) {
    throw SimCrash(CrashKind::kAssert, where);
  }
}

}  // namespace lfi

#endif  // LFI_VLIB_SIM_CRASH_H_
