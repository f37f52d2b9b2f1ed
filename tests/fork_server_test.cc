// The fork server (core/fork_server.h): one zygote built in the parent,
// persistent workers forked from it that serve many jobs each, resetting in
// between, results back in job order at any width, cold-start workers that
// build per job, and crash isolation -- a worker that dies, exits non-zero,
// throws, hangs past the deadline, sends a bad frame or fails its Reset()
// costs only its own job, and no worker outlives a fork server that throws.
// The first cases use a probe that never resets, so every job retires its
// worker and runs in a process of its own.

#include "core/fork_server.h"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/binary_io.h"
#include "util/child_process.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace lfi {
namespace {

// Jobs this process has run: a worker's count, since the parent runs none.
int served_in_process = 0;

std::set<int> Sockets() {
  std::set<int> sockets;
  for (int fd = 0; fd < 1024; ++fd) {
    struct stat st;
    if (fstat(fd, &st) == 0 && S_ISSOCK(st.st_mode)) {
      sockets.insert(fd);
    }
  }
  return sockets;
}

// Sockets the test process holds of its own (its stdio may be one).
const std::set<int> kOwnSockets = Sockets();

// The sockets a worker holds beyond kOwnSockets: its channel end, plus any
// sibling end it inherited and failed to close.
std::vector<int> ChannelEnds() {
  std::vector<int> ends;
  std::ranges::set_difference(Sockets(), kOwnSockets, std::back_inserter(ends));
  return ends;
}

// Writes a frame header claiming `length` bytes with a CRC that `body`
// does not have, then `body`, down the worker's channel.
void Forge(uint32_t length, const std::string& body) {
  ByteWriter frame;
  frame.PutU32(length);
  frame.PutU32(Crc32(body) ^ 1);
  frame.PutBytes(body);
  std::vector<int> ends = ChannelEnds();
  ASSERT_EQ(ends.size(), 1u);
  ASSERT_EQ(send(ends[0], frame.buffer().data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
}

// A target whose results show where it was built and how many jobs it has
// served; the job label picks a misbehaviour. A resettable probe also names
// the process that ran the job, how many jobs that process has served and
// how many channel ends it holds; its Reset() fails after a "taint" job.
class ProbeTarget : public WarmTarget {
 public:
  explicit ProbeTarget(bool resettable) : resettable_(resettable) {}

  JobResult Run(const CampaignJob& job) override {
    ++runs_;
    ++served_in_process;
    if (job.label == "taint") {
      tainted_ = true;
    }
    if (job.label == "forge-crc") {
      Forge(5, "bogus");
    }
    if (job.label == "forge-length") {
      Forge(0xFFFFFFFFu, "");
    }
    if (job.label == "forge-short") {
      Forge(1u << 20, "");  // under the cap, and never sent
    }
    if (job.label == "abort") {
      rlimit no_core{0, 0};
      setrlimit(RLIMIT_CORE, &no_core);
      std::abort();
    }
    if (job.label == "exit") {
      std::_Exit(7);
    }
    if (job.label == "throw") {
      throw std::runtime_error("probe threw");
    }
    if (job.label == "spin") {
      // Bounded, so a fork server that forgets a child cannot hang the suite.
      std::this_thread::sleep_for(std::chrono::seconds(30));
      std::_Exit(3);
    }
    JobResult result;
    result.fingerprint = StrFormat("%s runs=%d built-by=%d", job.label.c_str(), runs_,
                                   static_cast<int>(builder_));
    if (resettable_) {
      result.fingerprint += StrFormat(" served-by=%d#%d channels=%zu", static_cast<int>(getpid()),
                                      served_in_process, ChannelEnds().size());
    }
    if (job.label == "big") {
      // Far past a socket buffer: the parent must drain while the child writes.
      result.bugs.push_back({"probe", "big", std::string(size_t{1} << 20, 'x'), job.label});
    }
    return result;
  }
  bool Reset() override {
    if (!resettable_ || tainted_) {
      return false;
    }
    runs_ = 0;
    return true;
  }

 private:
  bool resettable_;
  bool tainted_ = false;
  pid_t builder_ = getpid();
  int runs_ = 0;
};

// Builds counted in the calling process: builds made inside a child never
// reach the parent's counter.
int parent_builds = 0;

WarmPool::Factory ProbeFactory(bool resettable = false) {
  return [resettable] {
    ++parent_builds;
    return std::make_unique<ProbeTarget>(resettable);
  };
}

// RunForkServer over jobs labelled `labels`, collecting what it delivers.
struct Collected {
  std::vector<ForkedResult> results;
  WarmPool::Stats pool;
};

Collected RunLabels(WarmPool::Policy policy, const std::vector<std::string>& labels,
                    const ForkServerOptions& options, bool resettable = false) {
  Collected run;
  run.pool = RunForkServer(
      ProbeFactory(resettable), policy, labels.size(),
      [&](size_t index) {
        CampaignJob job;
        job.label = labels[index];
        return job;
      },
      [&](size_t index, ForkedResult result) {
        EXPECT_EQ(index, run.results.size()) << "delivered out of job order";
        run.results.push_back(std::move(result));
      },
      options);
  return run;
}

std::string Expected(const std::string& label, pid_t builder) {
  return StrFormat("%s runs=1 built-by=%d", label.c_str(), static_cast<int>(builder));
}

TEST(ForkServer, EveryChildRunsOnAPristineZygoteAndResultsKeepJobOrder) {
  std::vector<std::string> labels;
  for (int i = 0; i < 10; ++i) {
    labels.push_back(i == 4 ? "big" : StrFormat("job%d", i));
  }
  for (int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    parent_builds = 0;
    ForkServerOptions options;
    options.workers = workers;
    Collected run = RunLabels(WarmPool::Policy::kReuse, labels, options);
    EXPECT_EQ(parent_builds, 1);
    EXPECT_EQ(run.pool.builds, 1u);
    EXPECT_EQ(run.pool.runs, labels.size());
    // The probe never resets: every job retires its worker.
    EXPECT_EQ(run.pool.resets, 0u);
    EXPECT_EQ(run.pool.dropped, labels.size());
    ASSERT_EQ(run.results.size(), labels.size());
    for (size_t i = 0; i < labels.size(); ++i) {
      EXPECT_EQ(run.results[i].failure, "") << i;
      // runs=1: no child saw another's run, nor the parent one of its own.
      EXPECT_EQ(run.results[i].result.fingerprint, Expected(labels[i], getpid())) << i;
    }
    ASSERT_EQ(run.results[4].result.bugs.size(), 1u);
    EXPECT_EQ(run.results[4].result.bugs[0].where.size(), size_t{1} << 20);
  }
}

TEST(ForkServer, ColdStartBuildsInEveryChildAndNeverInTheParent) {
  parent_builds = 0;
  ForkServerOptions options;
  options.workers = 2;
  Collected run = RunLabels(WarmPool::Policy::kFresh, {"a", "b", "c"}, options);
  EXPECT_EQ(parent_builds, 0);
  EXPECT_EQ(run.pool.builds, 3u);
  EXPECT_EQ(run.pool.runs, 3u);
  for (const ForkedResult& forked : run.results) {
    EXPECT_EQ(forked.failure, "");
    EXPECT_NE(forked.result.fingerprint.find(" runs=1 "), std::string::npos);
    EXPECT_EQ(forked.result.fingerprint.find(StrFormat("built-by=%d", getpid())),
              std::string::npos)
        << "a cold-start target must be built after the fork";
  }
}

TEST(ForkServer, NoJobsBuildsNothing) {
  parent_builds = 0;
  Collected run = RunLabels(WarmPool::Policy::kReuse, {}, {});
  EXPECT_EQ(parent_builds, 0);
  EXPECT_EQ(run.pool.builds, 0u);
  EXPECT_TRUE(run.results.empty());
}

TEST(ForkServer, AChildThatDiesFailsOnlyItsOwnJob) {
  ForkServerOptions options;
  options.workers = 3;
  options.system = "probe";
  std::vector<std::string> labels = {"ok0", "abort", "ok2", "exit", "throw", "ok5"};
  Collected run = RunLabels(WarmPool::Policy::kReuse, labels, options);
  ASSERT_EQ(run.results.size(), labels.size());
  const std::vector<std::string> failures = {"",
                                             StrFormat("killed by signal %d", SIGABRT),
                                             "",
                                             "exited with status 7",
                                             "exited with status 1",
                                             ""};
  for (size_t i = 0; i < labels.size(); ++i) {
    SCOPED_TRACE(labels[i]);
    const ForkedResult& forked = run.results[i];
    EXPECT_EQ(forked.failure, failures[i]);
    if (failures[i].empty()) {
      EXPECT_EQ(forked.result.fingerprint, Expected(labels[i], getpid()));
      EXPECT_TRUE(forked.result.bugs.empty());
    } else {
      ASSERT_EQ(forked.result.bugs.size(), 1u);
      EXPECT_EQ(forked.result.bugs[0],
                (FoundBug{"probe", "child failure", "child process " + failures[i], labels[i]}));
    }
  }
}

TEST(ForkServer, AChildPastTheDeadlineIsKilledAndReportsTheEngineHang) {
  ForkServerOptions options;
  options.workers = 2;
  options.job_timeout_ms = 200;
  options.system = "probe";
  auto start = std::chrono::steady_clock::now();
  Collected run = RunLabels(WarmPool::Policy::kReuse, {"spin", "ok1", "ok2"}, options);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(20));
  ASSERT_EQ(run.results.size(), 3u);
  JobResult hang = HangResult("spin", "probe");
  EXPECT_EQ(run.results[0].failure, "timed out after 200 ms");
  EXPECT_EQ(run.results[0].result.bugs, hang.bugs);
  EXPECT_EQ(run.results[0].result.fingerprint, hang.fingerprint);
  EXPECT_EQ(run.results[1].failure, "");
  EXPECT_EQ(run.results[2].failure, "");
}

TEST(ForkServer, AThrowingSinkLeavesNoChildBehind) {
  ForkServerOptions options;
  options.workers = 3;
  std::vector<std::string> labels = {"ok0", "spin", "spin"};
  EXPECT_THROW(RunForkServer(
                   ProbeFactory(), WarmPool::Policy::kReuse, labels.size(),
                   [&](size_t index) {
                     CampaignJob job;
                     job.label = labels[index];
                     return job;
                   },
                   [](size_t, ForkedResult) { throw std::runtime_error("sink failed"); }, options),
               std::runtime_error);
  errno = 0;
  EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD) << "a spinning child outlived the fork server";
}

TEST(ForkServer, FailpointsAreScopedPerChild) {
  ForkServerOptions options;
  options.workers = 2;
  options.job_timeout_ms = 200;
  options.scope_prefix = "probe";
  ASSERT_TRUE(Failpoints::Instance().Arm(
      "probe1:engine.job.run=exit:9,probe2:engine.job.run=hang"));
  Collected run = RunLabels(WarmPool::Policy::kReuse, {"ok0", "ok1", "ok2", "ok3"}, options);
  Failpoints::Instance().Clear();
  ASSERT_EQ(run.results.size(), 4u);
  EXPECT_EQ(run.results[0].failure, "");
  EXPECT_EQ(run.results[1].failure, "exited with status 9");
  EXPECT_EQ(run.results[2].failure, "timed out after 200 ms");
  EXPECT_EQ(run.results[3].failure, "");
  EXPECT_EQ(Failpoints::Instance().scope(), "") << "the parent's scope is untouched";
}

// --- persistent workers: a probe that resets --------------------------------

// The "served-by=PID#K" of a resettable probe's fingerprint.
struct Served {
  int pid = 0;
  int job = 0;  // the K-th job that worker ran
};

Served ServedBy(const ForkedResult& forked) {
  Served served;
  size_t at = forked.result.fingerprint.find(" served-by=");
  EXPECT_NE(at, std::string::npos) << forked.result.fingerprint;
  if (at != std::string::npos) {
    std::sscanf(forked.result.fingerprint.c_str() + at, " served-by=%d#%d", &served.pid,
                &served.job);
  }
  return served;
}

TEST(ForkServerWorkers, OneWorkerServesManyJobsAndResultsKeepJobOrder) {
  std::vector<std::string> labels;
  for (int i = 0; i < 12; ++i) {
    labels.push_back(i == 5 ? "big" : StrFormat("job%d", i));
  }
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE(workers);
    parent_builds = 0;
    ForkServerOptions options;
    options.workers = workers;
    Collected run = RunLabels(WarmPool::Policy::kReuse, labels, options, /*resettable=*/true);
    EXPECT_EQ(parent_builds, 1);
    EXPECT_EQ(run.pool.builds, 1u);
    EXPECT_EQ(run.pool.runs, labels.size());
    EXPECT_EQ(run.pool.resets, labels.size());
    EXPECT_EQ(run.pool.dropped, 0u);
    ASSERT_EQ(run.results.size(), labels.size());
    std::set<int> pids;
    int jobs_served = 0;
    for (size_t i = 0; i < labels.size(); ++i) {
      const ForkedResult& forked = run.results[i];
      EXPECT_EQ(forked.failure, "") << i;
      // runs=1: every job starts from the post-setup state, through Reset().
      EXPECT_EQ(forked.result.fingerprint.rfind(Expected(labels[i], getpid()) + " served-by=", 0),
                0u)
          << forked.result.fingerprint;
      EXPECT_NE(forked.result.fingerprint.find(" channels=1"), std::string::npos)
          << "a worker kept a sibling's channel end: " << forked.result.fingerprint;
      Served served = ServedBy(forked);
      EXPECT_NE(served.pid, getpid());
      pids.insert(served.pid);
      jobs_served = std::max(jobs_served, served.job);
    }
    EXPECT_EQ(pids.size(), static_cast<size_t>(workers)) << "one fork per worker";
    EXPECT_GE(jobs_served, static_cast<int>(labels.size()) / workers);
    ASSERT_EQ(run.results[5].result.bugs.size(), 1u);
    EXPECT_EQ(run.results[5].result.bugs[0].where.size(), size_t{1} << 20);
  }
}

TEST(ForkServerWorkers, AFailedResetRetiresTheWorkerAndItsSlotGetsAFreshZygote) {
  ForkServerOptions options;
  options.workers = 1;
  Collected run = RunLabels(WarmPool::Policy::kReuse, {"a", "taint", "b", "c"}, options,
                            /*resettable=*/true);
  ASSERT_EQ(run.results.size(), 4u);
  EXPECT_EQ(run.pool.resets, 3u);
  EXPECT_EQ(run.pool.dropped, 1u);
  for (const ForkedResult& forked : run.results) {
    EXPECT_EQ(forked.failure, "");
    // A worker that kept the tainted instance would read runs=2 for "b".
    EXPECT_NE(forked.result.fingerprint.find(" runs=1 "), std::string::npos)
        << forked.result.fingerprint;
  }
  Served taint = ServedBy(run.results[1]);
  Served b = ServedBy(run.results[2]);
  Served c = ServedBy(run.results[3]);
  EXPECT_EQ(taint.job, 2);
  EXPECT_NE(b.pid, taint.pid);
  EXPECT_EQ(b.job, 1) << "the respawned worker is a fresh fork of the zygote";
  EXPECT_EQ(c.pid, b.pid);
  EXPECT_EQ(c.job, 2);
}

TEST(ForkServerWorkers, AJobPastItsDeadlineIsKilledAndTheNextJobInItsSlotRunsClean) {
  ForkServerOptions options;
  options.workers = 1;
  options.job_timeout_ms = 200;
  options.system = "probe";
  Collected run = RunLabels(WarmPool::Policy::kReuse, {"ok0", "spin", "ok2", "ok3"}, options,
                            /*resettable=*/true);
  ASSERT_EQ(run.results.size(), 4u);
  EXPECT_EQ(run.results[1].failure, "timed out after 200 ms");
  EXPECT_EQ(run.results[1].result.fingerprint, HangResult("spin", "probe").fingerprint);
  for (size_t i : {0, 2, 3}) {
    EXPECT_EQ(run.results[i].failure, "") << i;
  }
  Served before = ServedBy(run.results[0]);
  Served after = ServedBy(run.results[2]);
  EXPECT_NE(after.pid, before.pid);
  EXPECT_EQ(after.job, 1);
  EXPECT_EQ(ServedBy(run.results[3]).pid, after.pid);
  EXPECT_EQ(run.pool.resets, 3u);
}

TEST(ForkServerWorkers, ABadFrameFailsOnlyItsOwnJob) {
  ForkServerOptions options;
  options.workers = 1;
  options.job_timeout_ms = 1000;
  options.system = "probe";
  std::vector<std::string> labels = {"ok0", "forge-crc", "ok2", "forge-length", "ok4",
                                     "forge-short", "ok6"};
  Collected run = RunLabels(WarmPool::Policy::kReuse, labels, options, /*resettable=*/true);
  ASSERT_EQ(run.results.size(), labels.size());
  const std::vector<std::string> failures = {
      "",
      "sent an undecodable frame (CRC mismatch)",
      "",
      StrFormat("sent an undecodable frame (length 4294967295 over the %zu-byte cap)",
                kMaxFrameBytes),
      "",
      // A length under the cap is waited for, up to the job's deadline; the
      // parent holds only the bytes that arrived.
      "timed out after 1000 ms",
      ""};
  for (size_t i = 0; i < labels.size(); ++i) {
    SCOPED_TRACE(labels[i]);
    EXPECT_EQ(run.results[i].failure, failures[i]);
    if (failures[i].empty()) {
      EXPECT_NE(run.results[i].result.fingerprint.find(" runs=1 "), std::string::npos);
    }
  }
  EXPECT_EQ(run.results[1].result.bugs.at(0).where, "child process " + failures[1]);
}

TEST(ForkServerWorkers, AWorkerThatDiesWhileIdleCostsNoJob) {
  ForkServerOptions options;
  options.workers = 1;
  std::vector<std::string> labels = {"a", "b", "c"};
  std::vector<ForkedResult> results;
  RunForkServer(
      ProbeFactory(/*resettable=*/true), WarmPool::Policy::kReuse, labels.size(),
      [&](size_t index) {
        CampaignJob job;
        job.label = labels[index];
        return job;
      },
      [&](size_t index, ForkedResult result) {
        if (index == 0) {
          // Kill the idle worker and wait until it is dead (but unreaped):
          // sending it job 1 then fails with EPIPE, not SIGPIPE.
          pid_t worker = ServedBy(result).pid;
          ASSERT_EQ(kill(worker, SIGKILL), 0);
          siginfo_t info;
          ASSERT_EQ(waitid(P_PID, worker, &info, WEXITED | WNOWAIT), 0);
        }
        results.push_back(std::move(result));
      },
      options);
  ASSERT_EQ(results.size(), labels.size());
  for (const ForkedResult& forked : results) {
    EXPECT_EQ(forked.failure, "") << forked.result.fingerprint;
  }
  EXPECT_NE(ServedBy(results[1]).pid, ServedBy(results[0]).pid);
  EXPECT_EQ(ServedBy(results[1]).job, 1);
}

TEST(ForkServerWorkers, ColdStartBuildsInTheWorkersAndNeverInTheParent) {
  parent_builds = 0;
  ForkServerOptions options;
  options.workers = 2;
  Collected run = RunLabels(WarmPool::Policy::kFresh, {"a", "b", "c", "d", "e", "f"}, options,
                            /*resettable=*/true);
  EXPECT_EQ(parent_builds, 0);
  EXPECT_EQ(run.pool.builds, 6u);
  EXPECT_EQ(run.pool.resets, 0u);
  EXPECT_EQ(run.pool.dropped, 0u);
  int jobs_served = 0;
  for (const ForkedResult& forked : run.results) {
    EXPECT_EQ(forked.failure, "");
    Served served = ServedBy(forked);
    jobs_served = std::max(jobs_served, served.job);
    // Built by the worker that ran it, for this job alone.
    EXPECT_NE(forked.result.fingerprint.find(StrFormat(" runs=1 built-by=%d ", served.pid)),
              std::string::npos)
        << forked.result.fingerprint;
  }
  EXPECT_GT(jobs_served, 1) << "cold-start workers persist too";
}

TEST(ForkServerWorkers, EveryJobSeesTheFailpointCountsTheWorkerWasForkedWith) {
  // Scopeless and due on the second hit: a fresh fork evaluates it once per
  // job, so it never fires; a worker must not count hits across its jobs.
  ASSERT_TRUE(Failpoints::Instance().Arm("engine.job.run=exit:9@2"));
  ForkServerOptions options;
  options.workers = 1;
  Collected run = RunLabels(WarmPool::Policy::kReuse, {"a", "b", "c"}, options,
                            /*resettable=*/true);
  Failpoints::Instance().Clear();
  ASSERT_EQ(run.results.size(), 3u);
  for (const ForkedResult& forked : run.results) {
    EXPECT_EQ(forked.failure, "");
  }
  EXPECT_EQ(ServedBy(run.results[2]).job, 3);
}

}  // namespace
}  // namespace lfi
