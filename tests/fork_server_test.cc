// The fork server (core/fork_server.h): one zygote built in the parent, one
// forked child per job, results back in job order at any width, a cold-start
// child that builds its own target, and crash isolation -- a child that
// dies, exits non-zero, throws or hangs past the deadline fails only its own
// job, and no child outlives a fork server that throws.

#include "core/fork_server.h"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/failpoint.h"
#include "util/string_util.h"

namespace lfi {
namespace {

// A target whose results show where it was built and how many jobs it has
// served; the job label picks a misbehaviour.
class ProbeTarget : public WarmTarget {
 public:
  JobResult Run(const CampaignJob& job) override {
    ++runs_;
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
    if (job.label == "big") {
      // Far past a pipe buffer: the parent must drain while the child writes.
      result.bugs.push_back({"probe", "big", std::string(size_t{1} << 20, 'x'), job.label});
    }
    return result;
  }
  bool Reset() override { return false; }

 private:
  pid_t builder_ = getpid();
  int runs_ = 0;
};

// Builds counted in the calling process: builds made inside a child never
// reach the parent's counter.
int parent_builds = 0;

WarmPool::Factory ProbeFactory() {
  return [] {
    ++parent_builds;
    return std::make_unique<ProbeTarget>();
  };
}

// RunForkServer over jobs labelled `labels`, collecting what it delivers.
struct Collected {
  std::vector<ForkedResult> results;
  WarmPool::Stats pool;
};

Collected RunLabels(WarmPool::Policy policy, const std::vector<std::string>& labels,
                    const ForkServerOptions& options) {
  Collected run;
  run.pool = RunForkServer(
      ProbeFactory(), policy, labels.size(),
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
    EXPECT_EQ(run.pool.resets, 0u);
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

}  // namespace
}  // namespace lfi
