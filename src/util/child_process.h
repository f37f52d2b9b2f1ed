// Child processes forked from this one: the one place the library forks.
//
// Replay's fork server (core/fork_server.h) and the shard supervisor
// (apps/common/shard_supervisor.h) both run work in child processes, and
// both start, watch and end them here. A child runs a body in the forked
// image -- no exec: it inherits the parent's memory, warm targets included
// -- with its stdout joined to stderr, so the parent's stdout (possibly
// --json) stays clean, and leaves with std::_Exit, so no destructor runs
// and no inherited stdio buffer is flushed twice. It holds the write end of
// a pipe: what it writes there is collected for the parent, and the pipe's
// EOF is how the parent learns the child is gone. Wait() therefore sleeps in
// poll() until a pipe has bytes or EOF, the nearest child deadline, or the
// caller's own wake-up time -- event-driven, with no fixed-interval wake-up
// and no signal handling. A child past its deadline is SIGKILLed and
// reaped. Destroying a ChildProcesses kills and reaps every child it still
// has, so a caller that unwinds leaves no process behind.
//
// Precondition: the calling process is single-threaded when it calls
// Start(). fork() copies only the calling thread, so a lock another thread
// holds at fork time (the symbol table's, the failpoint registry's, a
// pool's) would stay held in the child forever. The campaign driver calls
// both runners from its one thread, with no engine workers alive.

#ifndef LFI_UTIL_CHILD_PROCESS_H_
#define LFI_UTIL_CHILD_PROCESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace lfi {

// How a child process ended.
struct ChildEnd {
  enum class How { kExited, kSignaled, kTimedOut };
  How how = How::kExited;
  // kExited: the exit status. kSignaled: the signal. kTimedOut: SIGKILL.
  int status = 0;
  uint64_t timeout_ms = 0;  // kTimedOut: the deadline the child outlived
  std::string output;       // everything the child wrote to its pipe

  bool clean() const { return how == How::kExited && status == 0; }
  // "exited with status N", "killed by signal N" or "timed out after N ms".
  std::string Describe() const;
};

class ChildProcesses {
 public:
  using Clock = std::chrono::steady_clock;
  // Runs in the child with the write end of its pipe; returns the child's
  // exit status. An exception it throws ends the child with status 1.
  using Body = std::function<int(int fd)>;

  ChildProcesses() = default;
  ChildProcesses(const ChildProcesses&) = delete;
  ChildProcesses& operator=(const ChildProcesses&) = delete;
  ~ChildProcesses() { KillAll(); }

  // Forks child `id` running `body`, to be SIGKILLed `timeout_ms` after it
  // starts (0 = never). False with *error ("pipe: ...", "fork: ...") when
  // no child started.
  bool Start(size_t id, uint64_t timeout_ms, const Body& body, std::string* error);

  // Sleeps until a child's pipe has bytes or EOF, a deadline passes, or
  // `wake`; returns the children that ended meanwhile, reaped, in start
  // order. Returns at once, with nothing, when no child is running and
  // `wake` is the far future.
  std::vector<std::pair<size_t, ChildEnd>> Wait(Clock::time_point wake = Clock::time_point::max());

  // SIGKILLs and reaps every running child.
  void KillAll();

  size_t running() const { return children_.size(); }

 private:
  struct Child {
    size_t id;
    pid_t pid;
    int fd;  // read end of the child's pipe
    uint64_t timeout_ms;
    Clock::time_point deadline;
    std::string output;
  };

  std::vector<Child> children_;
};

}  // namespace lfi

#endif  // LFI_UTIL_CHILD_PROCESS_H_
