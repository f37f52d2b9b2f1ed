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

// Calls `runner` in this process; a ChildRefusal becomes false with
// *refused set and the refusal as the error.
bool CallRunner(const ShardSupervisor::WorkRunner& runner, const CampaignSpec& spec,
                std::string_view work, std::string* error, bool* refused) {
  *refused = false;
  try {
    return runner && runner(spec, work, error);
  } catch (const ChildRefusal& refusal) {
    *refused = true;
    *error = refusal.what();
    return false;
  }
}

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

// One attempt of shard `shard` in this process: the exit status its worker
// leaves with when it fails (0 = it succeeded).
int RunAttempt(const ShardSupervisor::WorkRunner& runner, const CampaignSpec& spec,
               std::string_view work, size_t shard) {
  // The forked image inherited the parent's armed failpoints; the spec is
  // authoritative (the driver re-arms a non-empty schedule, replacing the
  // set), so an empty one must explicitly disarm or a stripped respawn
  // would re-fire the fault that killed attempt one.
  if (spec.failpoints.empty()) {
    Failpoints::Instance().Clear();
  }
  std::string error;
  bool refused = false;
  if (CallRunner(runner, spec, work, &error, &refused)) {
    return 0;
  }
  std::fprintf(stderr, "shard %zu: %s\n", shard, runner ? error.c_str() : "no in-process runner");
  return refused ? kChildRefusedExitStatus : 1;
}

// A worker's whole life: run each request from the parent as an attempt of
// `spec` until the parent ends the channel. Every attempt starts from the
// failpoint state the worker was forked with, as a fresh fork would, and a
// failed attempt ends the worker with its status.
int ServeWorker(const ShardSupervisor::WorkRunner& runner, CampaignSpec spec, size_t shard,
                int fd) {
  const Failpoints::Saved inherited = Failpoints::Instance().Save();
  std::string error;
  while (std::optional<std::string> request = ReceiveFrame(fd, &error)) {
    std::string_view work;
    if (!DecodeRequest(*request, &spec, &work)) {
      std::fprintf(stderr, "shard %zu: undecodable request\n", shard);
      return 1;
    }
    Failpoints::Instance().Restore(inherited);
    if (int status = RunAttempt(runner, spec, work, shard); status != 0) {
      return status;
    }
    if (!SendFrame(fd, kDone, &error)) {
      return 1;
    }
  }
  return error.empty() ? 0 : 1;
}

}  // namespace

ShardSupervisor::ShardSupervisor(Options options, ChildRunner runner)
    : options_(std::move(options)) {
  if (runner) {
    runner_ = [runner = std::move(runner)](const CampaignSpec& spec, std::string_view,
                                           std::string* error) { return runner(spec, error); };
  }
}

void ShardSupervisor::EndWorkers() {
  workers_.KillAll();
  forked_with_.assign(forked_with_.size(), std::nullopt);
}

bool ShardSupervisor::Run(const std::vector<CampaignSpec>& children,
                          const std::vector<std::string>& work, const Events& events,
                          std::string* error, std::vector<Report>* reports) {
  std::vector<Supervised> states(children.size());
  for (size_t shard = 0; shard < children.size(); ++shard) {
    states[shard].spec = children[shard];
    states[shard].next_backoff_ms = options_.backoff_ms;
  }
  forked_with_.resize(std::max(forked_with_.size(), children.size()));
  auto work_of = [&](size_t shard) {
    return work.empty() ? std::string_view() : std::string_view(work[shard]);
  };

  // Starts one attempt: on the child's idle worker when it may serve the
  // attempt, else on a freshly forked one. False only when it could not
  // fork -- the signal to abandon process supervision and fall back
  // in-process.
  auto spawn = [&](size_t shard) {
    Supervised& state = states[shard];
    ++state.attempts;
    state.awaiting_restart = false;
    state.in_flight = true;
    CampaignSpec spec = state.attempts == 1 ? state.spec : RespawnSpec(state.spec);
    const std::string request = EncodeRequest(spec, work_of(shard));
    std::string why;
    if (state.attempts == 1 && forked_with_[shard] && Serves(*forked_with_[shard], spec) &&
        workers_.Send(shard, request, options_.child_timeout_ms, &why)) {
      return true;
    }
    // A retry gets a fresh worker, as does a spec the idle worker cannot
    // serve or a first attempt whose worker died while idle.
    workers_.Kill(shard);
    forked_with_[shard].reset();
    why = "supervisor.fork failpoint";
    if (FailpointFired("supervisor.fork") ||
        !workers_.Start(
            shard, options_.child_timeout_ms,
            [&](int fd) { return ServeWorker(runner_, spec, shard, fd); }, &why)) {
      state.in_flight = false;
      state.last_exit = ChildExit::kSpawnFailed;
      state.ended = "not started: " + why;
      return false;
    }
    forked_with_[shard] = spec;
    ++state.forks;
    // A worker that dies before it reads the request ends like any other
    // attempt: Wait() reports how.
    workers_.Send(shard, request, options_.child_timeout_ms, &why);
    return true;
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
  auto fail = [&](std::string message) {
    EndWorkers();
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };

  // First wave. A fork failure here (real or failpoint) degrades the whole
  // run to sequential in-process execution -- a slower campaign beats a dead
  // one. Every worker is killed first, so none races the fallback for a
  // journal file, and the fallback's resume re-check salvages their
  // journals.
  for (size_t shard = 0; shard < states.size(); ++shard) {
    if (!spawn(shard)) {
      EndWorkers();
      std::fprintf(stderr,
                   "supervisor: spawn failed (%s); running all %zu shard(s) "
                   "sequentially in-process\n",
                   states[shard].ended.c_str(), states.size());
      return RunFallback(children, work, events, error, reports);
    }
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
      if (state.awaiting_restart && Clock::now() >= state.restart_at && !spawn(shard)) {
        on_failure(shard);  // a respawn that cannot fork is one more failed attempt
      }
      if (state.awaiting_restart) {
        wake = std::min(wake, state.restart_at);
      }
    }
    std::vector<ChildFrame> frames;
    std::vector<std::pair<size_t, ChildEnd>> ended = workers_.Wait(wake, &frames);
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
      reports->push_back({shard, state.attempts, state.last_exit, state.status,
                          /*ran_in_process=*/false, state.forks});
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

bool ShardSupervisor::RunFallback(const std::vector<CampaignSpec>& children,
                                  const std::vector<std::string>& work, const Events& events,
                                  std::string* error, std::vector<Report>* reports) {
  auto fail = [&](std::string message) {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };
  if (!runner_) {
    return fail("spawn failed and no in-process runner is available");
  }
  std::string event_error;
  if (events.dispatched && !events.dispatched(&event_error)) {
    return fail(std::move(event_error));
  }
  std::string saved_scope = Failpoints::Instance().scope();
  if (reports != nullptr) {
    reports->clear();
  }
  bool all_ok = true;
  std::string first_error;
  for (size_t shard = 0; shard < children.size(); ++shard) {
    // Sequential, stripped of failpoints, resume re-checked: a child killed
    // by the degraded switch-over picks its sealed journal back up.
    CampaignSpec spec = RespawnSpec(children[shard]);
    std::string child_error;
    bool refused = false;
    bool ok = CallRunner(runner_, spec, work.empty() ? "" : work[shard], &child_error, &refused);
    // The runner scopes the registry to the child it just ran; undo that so
    // the orchestrator's own (scopeless) evaluations stay unaffected.
    Failpoints::Instance().SetScope(saved_scope);
    if (reports != nullptr) {
      Report report;
      report.shard = shard;
      report.attempts = 1;
      report.last_exit = ok        ? ChildExit::kClean
                         : refused ? ChildExit::kRefused
                                   : ChildExit::kNonZero;
      report.status = ok ? 0 : refused ? kChildRefusedExitStatus : 1;
      report.ran_in_process = true;
      reports->push_back(report);
    }
    if (ok && events.finished && !events.finished(shard, &event_error)) {
      return fail(std::move(event_error));
    }
    if (!ok) {
      all_ok = false;
      if (first_error.empty()) {
        first_error = StrFormat("shard %zu failed in-process after spawn failure: %s; its "
                                "journal (if any) is left for inspection",
                                shard, child_error.c_str());
      }
    }
  }
  if (!all_ok) {
    return fail(std::move(first_error));
  }
  return true;
}

}  // namespace lfi
