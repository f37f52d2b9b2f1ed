#include "util/child_process.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>

#include "util/binary_io.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace lfi {
namespace {

// Frame header: payload length, then the payload's CRC-32.
constexpr size_t kFrameHeader = 8;
// Bytes read from a channel per read().
constexpr size_t kReadChunk = 4096;

int Reap(pid_t pid) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

void KillAndReap(pid_t pid, int fd) {
  kill(pid, SIGKILL);
  close(fd);
  Reap(pid);
}

ChildProcesses::Clock::time_point DeadlineAfter(uint64_t timeout_ms) {
  return timeout_ms == 0 ? ChildProcesses::Clock::time_point::max()
                         : ChildProcesses::Clock::now() + std::chrono::milliseconds(timeout_ms);
}

struct FrameHeader {
  uint32_t length;
  uint32_t crc;
};

FrameHeader ParseHeader(std::string_view bytes) {
  ByteReader reader(bytes);
  FrameHeader header;
  header.length = reader.GetU32();
  header.crc = reader.GetU32();
  return header;
}

std::string LengthError(size_t length) {
  return StrFormat("length %zu over the %zu-byte cap", length, kMaxFrameBytes);
}

// Reads up to `n` bytes into *out; returns how many arrived before EOF, or
// -1 with errno on a read error.
ssize_t ReadFully(int fd, size_t n, std::string* out) {
  size_t got = 0;
  char chunk[kReadChunk];
  while (got < n) {
    ssize_t r = read(fd, chunk, std::min(n - got, sizeof(chunk)));
    if (r < 0 && errno == EINTR) {
      continue;
    }
    if (r < 0) {
      return -1;
    }
    if (r == 0) {
      break;
    }
    out->append(chunk, static_cast<size_t>(r));
    got += static_cast<size_t>(r);
  }
  return static_cast<ssize_t>(got);
}

}  // namespace

bool SendFrame(int fd, std::string_view payload, std::string* error) {
  if (payload.size() > kMaxFrameBytes) {
    if (error != nullptr) {
      *error = LengthError(payload.size());
    }
    return false;
  }
  ByteWriter frame;
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutU32(Crc32(payload));
  frame.PutBytes(payload);
  const std::string& bytes = frame.buffer();
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      if (error != nullptr) {
        *error = StrFormat("send: %s", std::strerror(n < 0 ? errno : EPIPE));
      }
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::optional<std::string> ReceiveFrame(int fd, std::string* error) {
  auto fail = [&](std::string why) -> std::optional<std::string> {
    if (error != nullptr) {
      *error = std::move(why);
    }
    return std::nullopt;
  };
  std::string header_bytes;
  ssize_t got = ReadFully(fd, kFrameHeader, &header_bytes);
  if (got == 0) {
    return fail("");
  }
  if (got < 0) {
    return fail(StrFormat("read: %s", std::strerror(errno)));
  }
  if (static_cast<size_t>(got) < kFrameHeader) {
    return fail("truncated frame header");
  }
  FrameHeader header = ParseHeader(header_bytes);
  if (header.length > kMaxFrameBytes) {
    return fail(LengthError(header.length));
  }
  // Appended as it arrives: a forged length allocates no more than was sent.
  std::string payload;
  got = ReadFully(fd, header.length, &payload);
  if (got < 0) {
    return fail(StrFormat("read: %s", std::strerror(errno)));
  }
  if (static_cast<size_t>(got) < header.length) {
    return fail("truncated frame");
  }
  if (Crc32(payload) != header.crc) {
    return fail("CRC mismatch");
  }
  return payload;
}

std::string ChildEnd::Describe() const {
  switch (how) {
    case How::kExited:
      return StrFormat("exited with status %d", status);
    case How::kSignaled:
      return StrFormat("killed by signal %d", status);
    case How::kTimedOut:
      return StrFormat("timed out after %llu ms", static_cast<unsigned long long>(timeout_ms));
    case How::kBadFrame:
      return "sent an undecodable frame (" + bad_frame + ")";
  }
  return "?";
}

int ServeRequests(int fd, const RequestHandler& handle) {
  const Failpoints::Saved inherited = Failpoints::Instance().Save();
  std::string error;
  while (std::optional<std::string> request = ReceiveFrame(fd, &error)) {
    Failpoints::Instance().Restore(inherited);
    int status = 1;
    std::optional<std::string> reply = handle(*request, &status);
    if (!reply) {
      return status;
    }
    if (!SendFrame(fd, *reply)) {
      return 1;
    }
  }
  return error.empty() ? 0 : 1;
}

ChildProcesses::Dispatched ChildProcesses::Dispatch(size_t id, std::string_view request,
                                                    bool reuse, uint64_t timeout_ms,
                                                    const Body& body, std::string* error) {
  std::string gone;
  if (reuse && Send(id, request, timeout_ms, &gone)) {
    return Dispatched::kSent;
  }
  // The slot has no worker, one the caller will not reuse, or one that died
  // while idle: the request goes to a fresh fork.
  Kill(id);
  if (fork_failpoint_ != nullptr && FailpointFired(fork_failpoint_)) {
    *error = std::string(fork_failpoint_) + " failpoint";
    return Dispatched::kNotStarted;
  }
  if (!Start(id, body, error) || !Send(id, request, timeout_ms, error)) {
    Kill(id);
    return Dispatched::kNotStarted;
  }
  return Dispatched::kForked;
}

bool ChildProcesses::Start(size_t id, const Body& body, std::string* error) {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    *error = StrFormat("socketpair: %s", std::strerror(errno));
    return false;
  }
  pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    for (const Child& sibling : children_) {
      close(sibling.fd);
    }
    dup2(STDERR_FILENO, STDOUT_FILENO);
    int status = 1;
    try {
      status = body(fds[1]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "child process threw: %s\n", e.what());
    } catch (...) {
      std::fprintf(stderr, "child process threw\n");
    }
    std::_Exit(status);
  }
  close(fds[1]);
  if (pid < 0) {
    *error = StrFormat("fork: %s", std::strerror(errno));
    close(fds[0]);
    return false;
  }
  children_.push_back({id, pid, fds[0], 0, Clock::time_point::max(), {}});
  return true;
}

bool ChildProcesses::Send(size_t id, std::string_view payload, uint64_t timeout_ms,
                          std::string* error) {
  auto child = std::ranges::find(children_, id, &Child::id);
  if (child == children_.end()) {
    *error = "no such child";
    return false;
  }
  if (!SendFrame(child->fd, payload, error)) {
    return false;
  }
  child->timeout_ms = timeout_ms;
  child->deadline = DeadlineAfter(timeout_ms);
  if (timeout_ms != 0 && deadline_failpoint_ != nullptr && FailpointFired(deadline_failpoint_)) {
    child->deadline = Clock::now();
  }
  return true;
}

std::vector<std::pair<size_t, ChildEnd>> ChildProcesses::Wait(Clock::time_point wake,
                                                              std::vector<ChildFrame>* frames) {
  std::vector<std::pair<size_t, ChildEnd>> ended;
  std::vector<pollfd> polled;
  for (const Child& child : children_) {
    polled.push_back({child.fd, POLLIN, 0});
    wake = std::min(wake, child.deadline);
  }
  if (wake == Clock::time_point::max() && children_.empty()) {
    return ended;
  }
  int timeout_ms = -1;
  if (wake != Clock::time_point::max()) {
    auto left = std::chrono::ceil<std::chrono::milliseconds>(wake - Clock::now());
    timeout_ms = static_cast<int>(std::max<int64_t>(0, left.count()));
  }
  // Every channel is drained as bytes arrive, so a frame larger than the
  // socket buffer never blocks its child.
  if (poll(polled.data(), polled.size(), timeout_ms) < 0 && errno != EINTR) {
    throw std::runtime_error(StrFormat("child processes: poll: %s", std::strerror(errno)));
  }
  Clock::time_point now = Clock::now();
  std::vector<Child> still_running;
  for (size_t i = 0; i < children_.size(); ++i) {
    Child& child = children_[i];
    bool eof = false;
    std::string bad_frame;
    if (polled[i].revents != 0) {
      char chunk[kReadChunk];
      ssize_t n = read(child.fd, chunk, sizeof(chunk));
      child.inbox.append(chunk, static_cast<size_t>(std::max<ssize_t>(n, 0)));
      eof = n == 0 || (n < 0 && errno != EINTR);
      // Cut whole frames off the front of the inbox.
      size_t used = 0;
      while (child.inbox.size() - used >= kFrameHeader) {
        FrameHeader header = ParseHeader(std::string_view(child.inbox).substr(used));
        if (header.length > kMaxFrameBytes) {
          bad_frame = LengthError(header.length);
          break;
        }
        if (child.inbox.size() - used - kFrameHeader < header.length) {
          break;
        }
        std::string_view payload =
            std::string_view(child.inbox).substr(used + kFrameHeader, header.length);
        if (Crc32(payload) != header.crc) {
          bad_frame = "CRC mismatch";
          break;
        }
        if (frames != nullptr) {
          frames->push_back({child.id, std::string(payload)});
        }
        child.deadline = Clock::time_point::max();
        used += kFrameHeader + header.length;
      }
      child.inbox.erase(0, used);
    }
    ChildEnd end;
    if (!bad_frame.empty()) {
      KillAndReap(child.pid, child.fd);
      end.how = ChildEnd::How::kBadFrame;
      end.status = SIGKILL;
      end.bad_frame = std::move(bad_frame);
    } else if (eof) {
      close(child.fd);
      int status = Reap(child.pid);
      if (WIFSIGNALED(status)) {
        end.how = ChildEnd::How::kSignaled;
        end.status = WTERMSIG(status);
      } else {
        end.status = WEXITSTATUS(status);
      }
    } else if (now >= child.deadline) {
      KillAndReap(child.pid, child.fd);
      end.how = ChildEnd::How::kTimedOut;
      end.status = SIGKILL;
      end.timeout_ms = child.timeout_ms;
    } else {
      still_running.push_back(std::move(child));
      continue;
    }
    ended.emplace_back(child.id, std::move(end));
  }
  children_ = std::move(still_running);
  return ended;
}

void ChildProcesses::CloseInputs() {
  for (const Child& child : children_) {
    shutdown(child.fd, SHUT_WR);
  }
}

void ChildProcesses::Kill(size_t id) {
  auto child = std::ranges::find(children_, id, &Child::id);
  if (child == children_.end()) {
    return;
  }
  KillAndReap(child->pid, child->fd);
  children_.erase(child);
}

void ChildProcesses::KillAll() {
  for (const Child& child : children_) {
    KillAndReap(child.pid, child.fd);
  }
  children_.clear();
}

}  // namespace lfi
