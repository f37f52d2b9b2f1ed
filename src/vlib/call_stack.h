// The virtual call stack.
//
// LFI's call-stack trigger matches injections against the frames active when
// a library call is intercepted (module name + offset, the same identifiers
// the call-site analyzer emits). Applications maintain this stack through
// ScopedFrame guards: each application function pushes a frame on entry, and
// each library call site updates the frame's offset to the call instruction's
// address in the application binary -- the analogue of the return address a
// real backtrace() would show.
//
// Live frames hold bare name pointers, so pushing and popping a frame never
// allocates. The module and function names handed to ScopedFrame must
// therefore have static storage duration (string literals, or constants like
// an app's kModule). Capture() copies the frames into owning StackFrames for
// anything that outlives them, such as an injection record.

#ifndef LFI_VLIB_CALL_STACK_H_
#define LFI_VLIB_CALL_STACK_H_

#include <cstdint>
#include <string>
#include <vector>

namespace lfi {

// An owning copy of one frame, as recorded in injection logs and journals.
struct StackFrame {
  std::string module;    // e.g. "mini-git"
  std::string function;  // symbol, e.g. "read_ref"
  uint32_t offset = 0;   // current call-site offset within the module binary

  bool operator==(const StackFrame& o) const = default;
};

// An active frame. The names point at static storage (see above).
struct LiveFrame {
  const char* module;
  const char* function;
  uint32_t offset = 0;  // current call-site offset within the module binary
};

class CallStack {
 public:
  void Push(const char* module, const char* function) {
    frames_.push_back(LiveFrame{module, function, 0});
  }
  void Pop() {
    if (!frames_.empty()) {
      frames_.pop_back();
    }
  }
  bool empty() const { return frames_.empty(); }
  size_t depth() const { return frames_.size(); }
  const std::vector<LiveFrame>& frames() const { return frames_; }
  LiveFrame* top() { return frames_.empty() ? nullptr : &frames_.back(); }
  const LiveFrame* top() const { return frames_.empty() ? nullptr : &frames_.back(); }

  // Owning copy of the active frames, outermost first.
  std::vector<StackFrame> Capture() const {
    std::vector<StackFrame> out;
    out.reserve(frames_.size());
    for (const LiveFrame& f : frames_) {
      out.push_back(StackFrame{f.module, f.function, f.offset});
    }
    return out;
  }

 private:
  std::vector<LiveFrame> frames_;
};

// RAII frame guard. `set_offset` marks the current call site before each
// library call, mirroring how a return address pinpoints the call site.
// `module` and `function` must have static storage duration.
class ScopedFrame {
 public:
  ScopedFrame(CallStack* stack, const char* module, const char* function) : stack_(stack) {
    stack_->Push(module, function);
  }
  ~ScopedFrame() { stack_->Pop(); }
  ScopedFrame(const ScopedFrame&) = delete;
  ScopedFrame& operator=(const ScopedFrame&) = delete;

  void set_offset(uint32_t offset) {
    if (LiveFrame* top = stack_->top()) {
      top->offset = offset;
    }
  }

 private:
  CallStack* stack_;
};

}  // namespace lfi

#endif  // LFI_VLIB_CALL_STACK_H_
