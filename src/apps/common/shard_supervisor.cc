#include "apps/common/shard_supervisor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#define LFI_HAVE_FORK 1
#endif

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
  }
  return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

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

}  // namespace

#ifdef LFI_HAVE_FORK

namespace {

// Blocks SIGCHLD for the supervision loop's lifetime (restoring the prior
// mask on exit). With the signal blocked, a child exit that races a sweep is
// left pending and wakes the next sigtimedwait immediately -- the supervisor
// sleeps between events instead of polling, which matters on small hosts
// where a polling parent steals cycles from its own children.
struct SigchldBlock {
  sigset_t set{};
  sigset_t old{};
  SigchldBlock() {
    sigemptyset(&set);
    sigaddset(&set, SIGCHLD);
    sigprocmask(SIG_BLOCK, &set, &old);
  }
  ~SigchldBlock() { sigprocmask(SIG_SETMASK, &old, nullptr); }
};

struct Supervised {
  size_t slot = 0;    // position in the children list (reporting only)
  CampaignSpec spec;  // the original spec (attempt 1 runs it verbatim)
  std::string spec_file;
  pid_t pid = -1;
  Clock::time_point deadline{};
  Clock::time_point restart_at{};
  bool running = false;
  bool awaiting_restart = false;
  bool done = false;
  bool failed = false;
  size_t attempts = 0;
  uint64_t next_backoff_ms = 0;
  ChildExit last_exit = ChildExit::kClean;
  int status = 0;
};

constexpr uint64_t kBackoffCapMs = 10000;

}  // namespace

bool ShardSupervisor::Run(const std::vector<CampaignSpec>& children, std::string* error,
                          std::vector<Report>* reports) {
  auto fail = [&](std::string message) {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };
  std::vector<Supervised> states(children.size());
  for (size_t shard = 0; shard < children.size(); ++shard) {
    states[shard].slot = shard;
    states[shard].spec = children[shard];
    states[shard].next_backoff_ms = options_.backoff_ms;
  }

  auto fill_reports = [&](bool fallback) {
    if (reports == nullptr) {
      return;
    }
    reports->clear();
    for (size_t shard = 0; shard < states.size(); ++shard) {
      Report report;
      report.shard = shard;
      report.attempts = states[shard].attempts;
      report.last_exit = states[shard].last_exit;
      report.status = states[shard].status;
      report.ran_in_process = fallback;
      reports->push_back(report);
    }
  };

  SigchldBlock sigchld;  // blocked for the whole loop; children unblock

  // Spawns one attempt. False only when fork itself fails -- the signal to
  // abandon process supervision and fall back in-process.
  auto spawn = [&](Supervised& state) -> bool {
    ++state.attempts;
    CampaignSpec spec = state.attempts == 1 ? state.spec : RespawnSpec(state.spec);
    if (FailpointFired("supervisor.fork")) {
      state.last_exit = ChildExit::kSpawnFailed;
      return false;
    }
    if (!options_.tool_path.empty()) {
      // Exec mode: the spec file is the wire format. Rewritten per attempt
      // (a respawn's spec differs: resume on, failpoints off).
      state.spec_file = SpecWirePath(spec.journal_path);
      std::ofstream out(state.spec_file);
      out << spec.ToXml();
      if (!out.good()) {
        state.last_exit = ChildExit::kSpawnFailed;
        return false;
      }
    }
    pid_t pid = fork();
    if (pid < 0) {
      state.last_exit = ChildExit::kSpawnFailed;
      return false;
    }
    if (pid == 0) {
      // Child. The supervisor's signal mask is not its business; its stdout
      // joins stderr so the orchestrator's own stdout (possibly --json)
      // stays clean in both spawn modes.
      sigprocmask(SIG_SETMASK, &sigchld.old, nullptr);
      dup2(STDERR_FILENO, STDOUT_FILENO);
      if (!options_.tool_path.empty()) {
        // execlp: argv[0] may be a bare name found via PATH; exec the same
        // search.
        execlp(options_.tool_path.c_str(), options_.tool_path.c_str(), "run-spec",
               state.spec_file.c_str(), static_cast<char*>(nullptr));
        _exit(127);
      }
      // Fork-without-exec: this process IS the child. The forked image
      // inherited the parent's armed failpoints; the spec is authoritative
      // (the driver re-arms a non-empty schedule, replacing the set), so an
      // empty one must explicitly disarm or a stripped respawn would
      // re-fire the fault that killed attempt one.
      if (spec.failpoints.empty()) {
        Failpoints::Instance().Clear();
      }
      std::string child_error;
      bool ok = runner_ && runner_(spec, &child_error);
      if (!ok) {
        std::fprintf(stderr, "shard %zu: %s\n", state.slot,
                     runner_ ? child_error.c_str() : "no in-process runner");
      }
      std::_Exit(ok ? 0 : 1);
    }
    state.pid = pid;
    state.running = true;
    state.awaiting_restart = false;
    if (options_.child_timeout_ms != 0) {
      state.deadline = Clock::now() + std::chrono::milliseconds(options_.child_timeout_ms);
    }
    return true;
  };

  // A failed attempt either schedules a respawn (capped exponential
  // backoff) or, past max_retries, marks the child permanently failed.
  std::string first_error;
  auto on_failure = [&](size_t shard, Supervised& state) {
    state.running = false;
    if (state.attempts <= options_.max_retries) {
      state.awaiting_restart = true;
      state.restart_at = Clock::now() + std::chrono::milliseconds(state.next_backoff_ms);
      std::fprintf(stderr,
                   "supervisor: shard %zu attempt %zu %s (status %d); respawning in %llums\n",
                   shard, state.attempts, ChildExitName(state.last_exit), state.status,
                   static_cast<unsigned long long>(state.next_backoff_ms));
      state.next_backoff_ms = std::min<uint64_t>(state.next_backoff_ms * 2, kBackoffCapMs);
      return;
    }
    state.done = true;
    state.failed = true;
    if (first_error.empty()) {
      first_error = StrFormat(
          "shard %zu failed after %zu attempt(s): last attempt %s (status %d); its "
          "journal (if any) is left for inspection",
          shard, state.attempts, ChildExitName(state.last_exit), state.status);
    }
  };

  // Reaps started children (SIGKILL first) so the in-process fallback never
  // races a live child for the same journal file.
  auto kill_started = [&] {
    for (Supervised& state : states) {
      if (state.running) {
        kill(state.pid, SIGKILL);
        int status = 0;
        waitpid(state.pid, &status, 0);
        state.running = false;
      }
    }
  };

  // First spawn wave. A fork failure here (real or failpoint) degrades the
  // whole run to sequential in-process execution -- a slower campaign beats
  // a dead one, and the children that did start are killed and their
  // journals salvaged by the fallback's resume re-check.
  for (Supervised& state : states) {
    if (!spawn(state)) {
      kill_started();
      std::fprintf(stderr,
                   "supervisor: spawn failed (%s); running all %zu shard(s) "
                   "sequentially in-process\n",
                   ChildExitName(state.last_exit), states.size());
      bool ok = RunFallback(children, error, reports);
      return ok;
    }
  }

  // The supervision loop: non-blocking reaps, deadline kills, scheduled
  // respawns. A permanently failed child does not abort the sweep -- the
  // remaining children run to completion so their sealed journals survive
  // for a later resume.
  while (true) {
    for (size_t shard = 0; shard < states.size(); ++shard) {
      Supervised& state = states[shard];
      if (state.done) {
        continue;
      }
      if (state.awaiting_restart) {
        if (Clock::now() >= state.restart_at && !spawn(state)) {
          // Respawn-time fork failure: no processes of ours are running for
          // this shard; treat it as one more failed attempt.
          on_failure(shard, state);
        }
        continue;
      }
      int status = 0;
      pid_t reaped = waitpid(state.pid, &status, WNOHANG);
      if (reaped == state.pid) {
        state.running = false;
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
          state.last_exit = ChildExit::kClean;
          state.status = 0;
          state.done = true;
        } else if (WIFSIGNALED(status)) {
          state.last_exit = ChildExit::kSignaled;
          state.status = WTERMSIG(status);
          on_failure(shard, state);
        } else {
          state.last_exit = ChildExit::kNonZero;
          state.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
          on_failure(shard, state);
        }
        continue;
      }
      if (options_.child_timeout_ms != 0 && Clock::now() > state.deadline) {
        // Hung (or straggling) child: kill it and let the retry policy
        // decide. The sealed prefix of its journal survives the SIGKILL.
        kill(state.pid, SIGKILL);
        waitpid(state.pid, &status, 0);
        state.running = false;
        state.last_exit = ChildExit::kTimedOut;
        state.status = SIGKILL;
        on_failure(shard, state);
      }
    }
    // Completion is judged after the sweep, not before it: the sweep that
    // reaps the last child must break here instead of sleeping out a
    // heartbeat it will never be woken from (its SIGCHLD is already spent).
    bool all_done = true;
    for (const Supervised& state : states) {
      all_done &= state.done;
    }
    if (all_done) {
      break;
    }
    // Sleep until the nearest timed event (a deadline or a scheduled
    // respawn), capped at poll_interval_ms. An exiting child leaves SIGCHLD
    // pending, which wakes sigtimedwait immediately -- event-driven, not
    // polling, so the supervisor doesn't steal cycles from its own children
    // on small hosts.
    Clock::time_point next_event =
        Clock::now() + std::chrono::milliseconds(options_.poll_interval_ms);
    for (const Supervised& state : states) {
      if (state.done) {
        continue;
      }
      if (state.awaiting_restart) {
        next_event = std::min(next_event, state.restart_at);
      } else if (state.running && options_.child_timeout_ms != 0) {
        next_event = std::min(next_event, state.deadline);
      }
    }
    Clock::duration wait = next_event - Clock::now();
    if (wait > Clock::duration::zero()) {
#if defined(__linux__)
      auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
      struct timespec ts;
      ts.tv_sec = static_cast<time_t>(ns / 1000000000);
      ts.tv_nsec = static_cast<long>(ns % 1000000000);
      // EAGAIN (timed out) and EINTR both just mean "sweep again"; a pending
      // SIGCHLD is consumed here and the sweep's WNOHANG waitpid reaps it.
      sigtimedwait(&sigchld.set, nullptr, &ts);
#else
      // No sigtimedwait: short poll so child exits are still noticed fast.
      std::this_thread::sleep_for(
          std::min<Clock::duration>(wait, std::chrono::milliseconds(5)));
#endif
    }
  }

  fill_reports(/*fallback=*/false);
  if (!first_error.empty()) {
    return fail(std::move(first_error));
  }
  for (const Supervised& state : states) {
    if (!state.spec_file.empty()) {
      std::remove(state.spec_file.c_str());
    }
  }
  return true;
}

#else  // !LFI_HAVE_FORK

bool ShardSupervisor::Run(const std::vector<CampaignSpec>& children, std::string* error,
                          std::vector<Report>* reports) {
  // No processes to supervise: one thread per child, unsupervised (no
  // deadlines, no retries -- deterministic artifacts, no isolation).
  auto fail = [&](std::string message) {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };
  std::vector<std::string> errors(children.size());
  std::vector<char> ok(children.size(), 1);
  std::vector<std::thread> threads;
  threads.reserve(children.size());
  for (size_t shard = 0; shard < children.size(); ++shard) {
    threads.emplace_back([&, shard] {
      if (!runner_ || !runner_(children[shard], &errors[shard])) {
        ok[shard] = 0;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  if (reports != nullptr) {
    reports->clear();
    for (size_t shard = 0; shard < children.size(); ++shard) {
      Report report;
      report.shard = shard;
      report.attempts = 1;
      report.last_exit = ok[shard] ? ChildExit::kClean : ChildExit::kNonZero;
      report.status = ok[shard] ? 0 : 1;
      reports->push_back(report);
    }
  }
  for (size_t shard = 0; shard < children.size(); ++shard) {
    if (!ok[shard]) {
      return fail(StrFormat("shard %zu failed: %s; its journal (if any) is left for "
                            "inspection",
                            shard, errors[shard].c_str()));
    }
  }
  return true;
}

#endif  // LFI_HAVE_FORK

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
    bool ok = runner_(spec, &child_error);
    // The runner scopes the registry to the child it just ran; undo that so
    // the orchestrator's own (scopeless) evaluations stay unaffected.
    Failpoints::Instance().SetScope(saved_scope);
    if (reports != nullptr) {
      Report report;
      report.shard = shard;
      report.attempts = 1;
      report.last_exit = ok ? ChildExit::kClean : ChildExit::kNonZero;
      report.status = ok ? 0 : 1;
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
