#include "apps/common/shard_supervisor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "util/child_process.h"
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

// Calls `runner` in this process; a ChildRefusal becomes false with
// *refused set and the refusal as the error.
bool CallRunner(const ShardSupervisor::ChildRunner& runner, const CampaignSpec& spec,
                std::string* error, bool* refused) {
  *refused = false;
  try {
    return runner && runner(spec, error);
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
  uint64_t next_backoff_ms = 0;
  bool awaiting_restart = false;
  Clock::time_point restart_at{};
  bool done = false;
  ChildExit last_exit = ChildExit::kClean;
  int status = 0;
  std::string ended;  // how the last attempt ended, in ChildEnd's words
};

constexpr uint64_t kBackoffCapMs = 10000;

// The body of shard `shard`'s child process.
int RunChild(const ShardSupervisor::ChildRunner& runner, const CampaignSpec& spec,
             size_t shard) {
  // The forked image inherited the parent's armed failpoints; the spec is
  // authoritative (the driver re-arms a non-empty schedule, replacing the
  // set), so an empty one must explicitly disarm or a stripped respawn
  // would re-fire the fault that killed attempt one.
  if (spec.failpoints.empty()) {
    Failpoints::Instance().Clear();
  }
  std::string error;
  bool refused = false;
  if (CallRunner(runner, spec, &error, &refused)) {
    return 0;
  }
  std::fprintf(stderr, "shard %zu: %s\n", shard, runner ? error.c_str() : "no in-process runner");
  return refused ? kChildRefusedExitStatus : 1;
}

}  // namespace

bool ShardSupervisor::Run(const std::vector<CampaignSpec>& children, std::string* error,
                          std::vector<Report>* reports) {
  std::vector<Supervised> states(children.size());
  for (size_t shard = 0; shard < children.size(); ++shard) {
    states[shard].spec = children[shard];
    states[shard].next_backoff_ms = options_.backoff_ms;
  }
  ChildProcesses processes;

  // Starts one attempt. False only when it could not fork -- the signal to
  // abandon process supervision and fall back in-process.
  auto spawn = [&](size_t shard) {
    Supervised& state = states[shard];
    ++state.attempts;
    state.awaiting_restart = false;
    CampaignSpec spec = state.attempts == 1 ? state.spec : RespawnSpec(state.spec);
    std::string why = "supervisor.fork failpoint";
    if (FailpointFired("supervisor.fork") ||
        !processes.Start(
            shard, options_.child_timeout_ms,
            [&](int /*fd*/) { return RunChild(runner_, spec, shard); }, &why)) {
      state.last_exit = ChildExit::kSpawnFailed;
      state.ended = "not started: " + why;
      return false;
    }
    return true;
  };

  // A failed attempt either schedules a respawn (capped exponential
  // backoff) or, past max_retries or on a refusal, fails the child for good.
  std::string first_error;
  auto on_failure = [&](size_t shard) {
    Supervised& state = states[shard];
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

  // First spawn wave. A fork failure here (real or failpoint) degrades the
  // whole run to sequential in-process execution -- a slower campaign beats
  // a dead one. The children that did start are killed first, so none races
  // the fallback for a journal file, and the fallback's resume re-check
  // salvages their journals.
  for (size_t shard = 0; shard < states.size(); ++shard) {
    if (!spawn(shard)) {
      processes.KillAll();
      std::fprintf(stderr,
                   "supervisor: spawn failed (%s); running all %zu shard(s) "
                   "sequentially in-process\n",
                   states[shard].ended.c_str(), states.size());
      return RunFallback(children, error, reports);
    }
  }

  // The supervision loop: scheduled respawns, then a sleep until a child
  // ends or the next respawn is due. A permanently failed child does not
  // abort the loop -- the remaining children run to completion so their
  // sealed journals survive for a later resume.
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
    for (const auto& [shard, end] : processes.Wait(wake)) {
      Supervised& state = states[shard];
      state.status = end.status;
      state.ended = end.Describe();
      if (end.clean()) {
        state.last_exit = ChildExit::kClean;
        state.done = true;
        continue;
      }
      switch (end.how) {
        case ChildEnd::How::kTimedOut:
          // A hung (or straggling) child: the sealed prefix of its journal
          // survives the SIGKILL; the retry policy decides what follows.
          state.last_exit = ChildExit::kTimedOut;
          break;
        case ChildEnd::How::kSignaled:
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
      reports->push_back({shard, states[shard].attempts, states[shard].last_exit,
                          states[shard].status, /*ran_in_process=*/false});
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
    bool ok = CallRunner(runner_, spec, &child_error, &refused);
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
