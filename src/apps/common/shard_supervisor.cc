#include "apps/common/shard_supervisor.h"

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "util/binary_io.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace lfi {

const char* ChildExitName(ChildExit exit) {
  switch (exit) {
    case ChildExit::kClean:
      return "clean";
    case ChildExit::kNonZero:
      return "nonzero-exit";
    case ChildExit::kSignaled:
      return "signaled";
    case ChildExit::kTimedOut:
      return "timed-out";
    case ChildExit::kSpawnFailed:
      return "spawn-failed";
    case ChildExit::kRefused:
      return "refused";
  }
  return "?";
}

namespace {

// What a respawned attempt actually runs: the journal left by the failed
// attempt is salvage, not garbage -- resume it (torn-tail recovery discards
// at most the record/extent being written when the child died, and a
// complete journal replays wholly from disk). The failpoint schedule is
// stripped: a retry models a replacement host, not one that fails forever.
CampaignSpec RespawnSpec(const CampaignSpec& spec) {
  CampaignSpec fresh = spec;
  fresh.failpoints.clear();
  fresh.resume = std::filesystem::exists(fresh.journal_path);
  return fresh;
}

// A request frame: the spec fields that change between the attempts one
// worker serves, then the caller's work payload.
std::string EncodeRequest(const CampaignSpec& spec, std::string_view work) {
  ByteWriter w;
  w.PutVarint(spec.epoch_index + 1);  // kNoEpoch wraps to 0
  w.PutVarint(spec.journal_path.size());
  w.PutBytes(spec.journal_path);
  w.PutU8(spec.resume ? 1 : 0);
  w.PutVarint(spec.failpoints.size());
  w.PutBytes(spec.failpoints);
  w.PutBytes(work);
  return w.TakeBuffer();
}

// Applies a request's fields to `spec`; false on a malformed request.
bool DecodeRequest(std::string_view request, CampaignSpec* spec, std::string_view* work) {
  ByteReader r(request);
  spec->epoch_index = static_cast<size_t>(r.GetVarint() - 1);
  spec->journal_path = r.GetBytes(static_cast<size_t>(r.GetVarint()));
  const uint8_t resume = r.GetU8();
  spec->resume = resume == 1;
  spec->failpoints = r.GetBytes(static_cast<size_t>(r.GetVarint()));
  *work = request.substr(std::min(r.pos(), request.size()));
  return r.ok() && resume <= 1;
}

// Whether a worker forked for `forked` may run `next`: the two differ only
// in the fields a request carries.
bool Serves(const CampaignSpec& forked, const CampaignSpec& next) {
  CampaignSpec applied = forked;
  std::string_view work;
  return DecodeRequest(EncodeRequest(next, ""), &applied, &work) && applied == next;
}

// The status frame a worker answers a request it ran with.
constexpr std::string_view kDone = "done";

using Clock = ChildProcesses::Clock;

struct Supervised {
  CampaignSpec spec;  // the original spec (attempt 1 runs it verbatim)
  size_t attempts = 0;
  size_t forks = 0;
  uint64_t next_backoff_ms = 0;
  bool in_flight = false;  // a worker is running the current attempt
  bool awaiting_restart = false;
  Clock::time_point restart_at{};
  bool done = false;
  ChildExit last_exit = ChildExit::kClean;
  int status = 0;
  std::string ended;  // how the last attempt ended, in ChildEnd's words
};

constexpr uint64_t kBackoffCapMs = 10000;

// A worker's whole life: the one worker loop (util/child_process.h), each
// request an attempt of `spec` with the request's fields applied. A failed
// attempt ends the worker with its status; a successful one is answered
// with kDone.
int ServeWorker(const ShardSupervisor::WorkRunner& runner, CampaignSpec spec, size_t shard,
                int fd) {
  return ServeRequests(fd, [&](std::string_view request,
                               int* exit_status) -> std::optional<std::string> {
    std::string_view work;
    if (!DecodeRequest(request, &spec, &work)) {
      std::fprintf(stderr, "shard %zu: undecodable request\n", shard);
      *exit_status = 1;
      return std::nullopt;
    }
    // The loop restored the failpoints the worker was forked with; the
    // spec is authoritative (the driver re-arms a non-empty schedule,
    // replacing the set), so an empty one must explicitly disarm or a
    // stripped respawn would re-fire the fault that killed attempt one.
    if (spec.failpoints.empty()) {
      Failpoints::Instance().Clear();
    }
    std::string error = "no runner";
    try {
      if (runner && runner(spec, work, &error)) {
        return std::string(kDone);
      }
      *exit_status = 1;
    } catch (const ChildRefusal& refusal) {
      error = refusal.what();
      *exit_status = kChildRefusedExitStatus;
    }
    std::fprintf(stderr, "shard %zu: %s\n", shard, error.c_str());
    return std::nullopt;
  });
}

}  // namespace

ShardSupervisor::ShardSupervisor(Options options, ChildRunner runner)
    : options_(std::move(options)) {
  if (runner) {
    runner_ = [runner = std::move(runner)](const CampaignSpec& spec, std::string_view,
                                           std::string* error) { return runner(spec, error); };
  }
}

bool ShardSupervisor::Run(const std::vector<CampaignSpec>& children,
                          const std::vector<std::string>& work, const Events& events,
                          std::string* error, std::vector<Report>* reports) {
  wakeups_ = 0;
  std::vector<Supervised> states(children.size());
  for (size_t shard = 0; shard < children.size(); ++shard) {
    states[shard].spec = children[shard];
    states[shard].next_backoff_ms = options_.backoff_ms;
  }
  forked_with_.resize(std::max(forked_with_.size(), children.size()));
  auto work_of = [&](size_t shard) {
    return work.empty() ? std::string_view() : std::string_view(work[shard]);
  };

  // A failed attempt either schedules a respawn (capped exponential
  // backoff) or, past max_retries or on a refusal, fails the child for good.
  std::string first_error;
  auto on_failure = [&](size_t shard) {
    Supervised& state = states[shard];
    state.in_flight = false;
    if (state.last_exit != ChildExit::kRefused && state.attempts <= options_.max_retries) {
      state.awaiting_restart = true;
      state.restart_at = Clock::now() + std::chrono::milliseconds(state.next_backoff_ms);
      std::fprintf(stderr, "supervisor: shard %zu attempt %zu %s; respawning in %llums\n", shard,
                   state.attempts, state.ended.c_str(),
                   static_cast<unsigned long long>(state.next_backoff_ms));
      state.next_backoff_ms = std::min<uint64_t>(state.next_backoff_ms * 2, kBackoffCapMs);
      return;
    }
    state.done = true;
    if (first_error.empty()) {
      std::string last = state.last_exit == ChildExit::kRefused
                             ? StrFormat("refused (status %d)", kChildRefusedExitStatus)
                             : StrFormat("%s (%s)", ChildExitName(state.last_exit),
                                         state.ended.c_str());
      first_error = StrFormat(
          "shard %zu failed after %zu attempt(s): last attempt %s; its journal (if any) is left "
          "for inspection",
          shard, state.attempts, last.c_str());
    }
  };

  // Starts one attempt: on the child's idle worker when it may serve the
  // attempt, else on a freshly forked one. A retry gets a fresh worker, as
  // does a spec the idle worker cannot serve. A fork that fails is a failed
  // attempt like any other.
  auto spawn = [&](size_t shard) {
    Supervised& state = states[shard];
    ++state.attempts;
    state.awaiting_restart = false;
    CampaignSpec spec = state.attempts == 1 ? state.spec : RespawnSpec(state.spec);
    const bool reuse =
        state.attempts == 1 && forked_with_[shard] && Serves(*forked_with_[shard], spec);
    std::string why;
    switch (workers_.Dispatch(
        shard, EncodeRequest(spec, work_of(shard)), reuse, options_.child_timeout_ms,
        [&](int fd) { return ServeWorker(runner_, spec, shard, fd); }, &why)) {
      case ChildProcesses::Dispatched::kSent:
        break;
      case ChildProcesses::Dispatched::kForked:
        forked_with_[shard] = spec;
        ++state.forks;
        break;
      case ChildProcesses::Dispatched::kNotStarted:
        forked_with_[shard].reset();
        state.last_exit = ChildExit::kSpawnFailed;
        state.ended = "not started: " + why;
        on_failure(shard);
        return;
    }
    state.in_flight = true;
  };
  auto fail = [&](std::string message) {
    workers_.KillAll();
    forked_with_.assign(forked_with_.size(), std::nullopt);
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };

  // The first wave: every child's first attempt, a child whose fork failed
  // then waiting for its respawn like any other failed attempt.
  for (size_t shard = 0; shard < states.size(); ++shard) {
    spawn(shard);
  }
  std::string event_error;
  if (events.dispatched && !events.dispatched(&event_error)) {
    return fail(std::move(event_error));
  }

  // The supervision loop: scheduled respawns, then a sleep until a worker
  // replies or ends or the next respawn is due. A permanently failed child
  // does not abort the loop -- the remaining children run to completion so
  // their sealed journals survive for a later resume.
  while (std::ranges::any_of(states, [](const Supervised& state) { return !state.done; })) {
    Clock::time_point wake = Clock::time_point::max();
    for (size_t shard = 0; shard < states.size(); ++shard) {
      Supervised& state = states[shard];
      if (state.awaiting_restart && Clock::now() >= state.restart_at) {
        spawn(shard);
      }
      if (state.awaiting_restart) {
        wake = std::min(wake, state.restart_at);
      }
    }
    std::vector<ChildFrame> frames;
    std::vector<std::pair<size_t, ChildEnd>> ended = workers_.Wait(wake, &frames);
    ++wakeups_;
    for (const ChildFrame& frame : frames) {
      bool expected = frame.id < states.size() && states[frame.id].in_flight;
      if (expected && frame.payload == kDone) {
        Supervised& state = states[frame.id];
        state.in_flight = false;
        state.done = true;
        state.last_exit = ChildExit::kClean;
        state.status = 0;
        if (events.finished && !events.finished(frame.id, &event_error)) {
          return fail(std::move(event_error));
        }
        continue;
      }
      // A reply that is not one, or answers no request: the worker is not
      // trusted with another.
      workers_.Kill(frame.id);
      forked_with_[frame.id].reset();
      if (expected) {
        states[frame.id].last_exit = ChildExit::kSignaled;
        states[frame.id].status = SIGKILL;
        states[frame.id].ended = "sent a bad reply";
        on_failure(frame.id);
      }
    }
    for (const auto& [shard, end] : ended) {
      forked_with_[shard].reset();
      if (shard >= states.size() || !states[shard].in_flight) {
        continue;  // an idle worker: the child's next attempt forks anew
      }
      Supervised& state = states[shard];
      state.status = end.status;
      state.ended = end.Describe();
      switch (end.how) {
        case ChildEnd::How::kTimedOut:
          // A hung (or straggling) worker: the sealed prefix of its journal
          // survives the SIGKILL; the retry policy decides what follows.
          state.last_exit = ChildExit::kTimedOut;
          break;
        case ChildEnd::How::kSignaled:
        case ChildEnd::How::kBadFrame:  // SIGKILLed for it
          state.last_exit = ChildExit::kSignaled;
          break;
        case ChildEnd::How::kExited:
          state.last_exit = end.status == kChildRefusedExitStatus ? ChildExit::kRefused
                                                                  : ChildExit::kNonZero;
          break;
      }
      on_failure(shard);
    }
  }

  if (reports != nullptr) {
    reports->clear();
    for (size_t shard = 0; shard < states.size(); ++shard) {
      const Supervised& state = states[shard];
      reports->push_back({shard, state.attempts, state.last_exit, state.status, state.forks});
    }
  }
  if (!first_error.empty()) {
    if (error != nullptr) {
      *error = std::move(first_error);
    }
    return false;
  }
  return true;
}

}  // namespace lfi
