// Child processes forked from this one: the one place the library forks.
//
// Replay's fork server (core/fork_server.h) and the shard supervisor
// (apps/common/shard_supervisor.h) both run work in child processes, and
// both start, watch and end them here. A child runs a body in the forked
// image -- no exec: it inherits the parent's memory, warm targets included
// -- with its stdout joined to stderr, so the parent's stdout (possibly
// --json) stays clean, and leaves with std::_Exit, so no destructor runs
// and no inherited stdio buffer is flushed twice.
//
// Parent and child talk over a channel, one end of a socketpair each, in
// frames: a little-endian u32 payload length, the payload's CRC-32, then
// the payload. Every child is a persistent worker with one loop
// (ServeRequests): it answers each request frame the parent sends it until
// the parent ends its input. The parent has one way to hand a slot work
// (Dispatch): to the worker already up in that slot, or to a fresh fork.
// A fork that fails is reported to the caller as a failed dispatch, and
// the caller's policy decides what follows, as it does for a worker that
// dies. Replay's fork server and the shard supervisor differ only in what
// a request carries and in that policy.
//
// A child closes the channel ends of its siblings it inherited, so the only
// holders of its parent's end are the parent itself: when the parent dies
// or ends the child's input (CloseInputs), the child reads EOF. The
// channel's EOF is also how the parent learns the child is gone. Wait()
// therefore sleeps in poll() until a channel has bytes or EOF, the nearest
// child deadline, or the caller's own wake-up time -- event-driven, with no
// fixed-interval wake-up and no signal handling. Frames are sent with
// MSG_NOSIGNAL, so writing to a dead peer is an error return (EPIPE), never
// a SIGPIPE.
//
// Frames from a child are hostile: a length above kMaxFrameBytes or a CRC
// mismatch ends the child (ChildEnd::How::kBadFrame), and the parent holds
// only the bytes it has received, whatever length a header claims.
//
// A child has a deadline: Dispatch() arms it timeout_ms after the request
// is sent, and a frame from the child disarms it. So it bounds how long the
// parent waits for a child's reply or its exit. A child past its deadline
// is SIGKILLed and reaped. Destroying a ChildProcesses kills and reaps
// every child it still has, so a caller that unwinds leaves no process
// behind.
//
// Precondition: the calling process is single-threaded when it calls
// Dispatch(). fork() copies only the calling thread, so a lock another
// thread holds at fork time (the symbol table's, the failpoint registry's,
// a pool's) would stay held in the child forever. The campaign driver
// calls both runners from its one thread, with no engine workers alive.

#ifndef LFI_UTIL_CHILD_PROCESS_H_
#define LFI_UTIL_CHILD_PROCESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lfi {

// The largest frame payload either side accepts.
constexpr size_t kMaxFrameBytes = size_t{64} << 20;

// Writes one frame to channel end `fd`. False with *error when the other
// end is gone or the payload is over kMaxFrameBytes.
bool SendFrame(int fd, std::string_view payload, std::string* error = nullptr);

// Blocks for the next frame on channel end `fd`. nullopt at EOF (*error
// "") or on a frame that is truncated, too long or fails its CRC (*error
// says which).
std::optional<std::string> ReceiveFrame(int fd, std::string* error = nullptr);

// How a child process ended.
struct ChildEnd {
  enum class How { kExited, kSignaled, kTimedOut, kBadFrame };
  How how = How::kExited;
  // kExited: the exit status. kSignaled: the signal. kTimedOut, kBadFrame:
  // SIGKILL, which the parent sent.
  int status = 0;
  uint64_t timeout_ms = 0;  // kTimedOut: the deadline the child outlived
  std::string bad_frame;    // kBadFrame: what was wrong with the frame

  // "exited with status N", "killed by signal N", "timed out after N ms" or
  // "sent an undecodable frame (...)".
  std::string Describe() const;
};

// A frame a child sent.
struct ChildFrame {
  size_t id;
  std::string payload;
};

// A persistent worker's answer to one request: the reply frame, or
// nullopt to end the worker with *exit_status instead.
using RequestHandler =
    std::function<std::optional<std::string>(std::string_view request, int* exit_status)>;

// A persistent worker's whole life, run in the child on its channel end
// `fd`: serves request frames until the parent ends the channel. Before
// each request it restores the failpoint registry (util/failpoint.h) to
// the state the worker was forked with, so every request counts hits as a
// fresh fork of the parent would. Returns the worker's exit status: 0 at
// EOF, the handler's status when it ends the worker, 1 on a bad frame or a
// reply that cannot be sent.
int ServeRequests(int fd, const RequestHandler& handle);

class ChildProcesses {
 public:
  using Clock = std::chrono::steady_clock;
  // Runs in the child with its end of the channel; returns the child's
  // exit status. An exception it throws ends the child with status 1.
  using Body = std::function<int(int fd)>;

  // How Dispatch() delivered a request.
  enum class Dispatched {
    kSent,        // to the worker already up in the slot
    kForked,      // to a freshly forked worker
    kNotStarted,  // nowhere: the fork failed, or the fresh worker did not take it
  };

  // `fork_failpoint`, when given, names a failpoint (util/failpoint.h)
  // evaluated before every fork; when it fires, the fork fails as a real
  // one would, so callers can chaos-test their fork-failure policy.
  // `deadline_failpoint`, when given, is evaluated each time a deadline is
  // armed; when it fires, that deadline has already passed, so a test of
  // the deadline policy need not wait it out.
  explicit ChildProcesses(const char* fork_failpoint = nullptr,
                          const char* deadline_failpoint = nullptr)
      : fork_failpoint_(fork_failpoint), deadline_failpoint_(deadline_failpoint) {}
  ChildProcesses(const ChildProcesses&) = delete;
  ChildProcesses& operator=(const ChildProcesses&) = delete;
  ~ChildProcesses() { KillAll(); }

  // Hands slot `id` one request frame and arms its deadline `timeout_ms`
  // from the send (0 = none). With `reuse`, the worker already up in the
  // slot gets it if it takes the frame; otherwise any worker the slot has
  // is killed and a fresh fork running `body` gets it. kNotStarted, with
  // *error ("fork: ...", "send: ..."), leaves the slot empty.
  Dispatched Dispatch(size_t id, std::string_view request, bool reuse, uint64_t timeout_ms,
                      const Body& body, std::string* error);

  // Sleeps until a child's channel has bytes or EOF, a deadline passes, or
  // `wake`. Appends the whole frames that arrived meanwhile to *frames (in
  // arrival order per child; dropped when `frames` is null) and returns the
  // children that ended, reaped, in start order. Returns at once, with
  // nothing, when no child is running and `wake` is the far future.
  std::vector<std::pair<size_t, ChildEnd>> Wait(Clock::time_point wake = Clock::time_point::max(),
                                                std::vector<ChildFrame>* frames = nullptr);

  // Ends every child's input: a child blocked in ReceiveFrame reads EOF.
  // The children stay running until Wait() reports them.
  void CloseInputs();

  // SIGKILLs and reaps child `id`, if it is running.
  void Kill(size_t id);
  // SIGKILLs and reaps every running child.
  void KillAll();

  size_t running() const { return children_.size(); }

 private:
  struct Child {
    size_t id;
    pid_t pid;
    int fd;  // the parent's end of the child's channel
    uint64_t timeout_ms;
    Clock::time_point deadline;
    std::string inbox;  // received bytes not yet a whole frame
  };

  // Forks child `id` running `body`, with no deadline yet. False with
  // *error when no child started.
  bool Start(size_t id, const Body& body, std::string* error);
  // Sends child `id` one frame and arms its deadline. False with *error
  // when the child is gone.
  bool Send(size_t id, std::string_view payload, uint64_t timeout_ms, std::string* error);

  const char* fork_failpoint_;
  const char* deadline_failpoint_;
  std::vector<Child> children_;
};

}  // namespace lfi

#endif  // LFI_UTIL_CHILD_PROCESS_H_
