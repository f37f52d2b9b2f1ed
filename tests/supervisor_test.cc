// Fault-tolerant campaign orchestration (docs/architecture.md, "Fault
// tolerance & supervision"): the deterministic failpoint registry, the
// ShardSupervisor's deadline/retry/backoff policy, the engine's per-job hang
// detection, and the chaos acceptance bar -- a distributed campaign whose
// children are crashed, hung, or impossible to spawn at any point in the
// schedule still converges to a merged journal byte-identical to the
// unfailed run.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/common/campaign_driver.h"
#include "apps/common/campaign_spec.h"
#include "apps/common/shard_supervisor.h"
#include "campaign_test_util.h"
#include "core/analysis_cache.h"
#include "core/campaign_engine.h"
#include "core/exploration.h"
#include "core/journal.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace lfi {
namespace {

// The failpoint registry is a process-global; every test that arms it (or
// runs a spec that does) restores the disarmed, unscoped state -- Clear also
// releases any thread a hang action left parked.
struct FailpointGuard {
  ~FailpointGuard() {
    Failpoints::Instance().Clear();
    Failpoints::Instance().SetScope("");
  }
};

// Clears the merged journal plus every artifact a supervised run may leave:
// per-shard and per-epoch journals, frontier snapshots, child spec files,
// and tmp files from interrupted atomic writes.
void RemoveArtifacts(const std::string& journal, size_t shards) {
  std::remove(journal.c_str());
  for (size_t shard = 0; shard < shards; ++shard) {
    std::remove((journal + StrFormat(".shard%zu", shard)).c_str());
    std::remove((journal + StrFormat(".shard%zu.spec", shard)).c_str());
  }
  for (size_t epoch = 0; epoch < 8; ++epoch) {
    std::remove((journal + StrFormat(".epoch%zu.frontier", epoch)).c_str());
    std::remove((journal + StrFormat(".epoch%zu.frontier.tmp", epoch)).c_str());
    for (size_t shard = 0; shard < shards; ++shard) {
      std::remove((journal + StrFormat(".epoch%zu.shard%zu", epoch, shard)).c_str());
      std::remove((journal + StrFormat(".epoch%zu.shard%zu.spec", epoch, shard)).c_str());
    }
  }
}

// The canonical chaos-test campaign: pbft, coverage strategy, a budget that
// spans several epochs at epoch_len 2 -- the same schedule the epoch
// equivalence tests pin, so "byte-identical to the unfailed run" is a
// meaningful bar. Backoff is shortened: the schedules below crash a child
// once per run and the retried attempt succeeds immediately.
CampaignSpec ChaosSpec(const std::string& journal, size_t shards) {
  CampaignSpec spec;
  spec.system = "pbft";
  spec.mode = CampaignMode::kExplore;
  spec.strategy = ExploreStrategy::kCoverage;
  spec.budget = 32;
  spec.seed = 7;
  spec.workers = 1;
  spec.epoch_len = 2;
  spec.journal_path = journal;
  spec.shard_count = shards;
  spec.backoff_ms = 10;
  return spec;
}

std::optional<CampaignOutcome> RunDriver(CampaignSpec spec, std::string* error) {
  CampaignDriver driver(std::move(spec));
  return driver.Run(error);
}

// The orchestrator runs no job on its zygote, whatever fails: its pool's
// counters read no run and no reset.
void ExpectOrchestratorRanNoJob(const CampaignOutcome& outcome) {
  EXPECT_EQ(outcome.pool.runs, 0u);
  EXPECT_EQ(outcome.pool.resets, 0u);
}

// The unfailed run's merged journal bytes: every chaos schedule below must
// converge to exactly these.
const std::string& GoldenBytes() {
  static const std::string* bytes = [] {
    std::string path = TempPath("supervisor_golden.lfij");
    RemoveArtifacts(path, 4);
    std::string error;
    auto outcome = RunDriver(ChaosSpec(path, 1), &error);
    EXPECT_TRUE(outcome.has_value()) << error;
    return new std::string(ReadFile(path));
  }();
  return *bytes;
}

// --- the failpoint registry -------------------------------------------------

TEST(Failpoints, RejectsMalformedSpecs) {
  FailpointGuard guard;
  Failpoints& fp = Failpoints::Instance();
  std::string error;
  EXPECT_FALSE(fp.Arm("nonsense", &error));
  EXPECT_NE(error.find("missing its =action"), std::string::npos) << error;
  EXPECT_FALSE(fp.Arm("x=explode", &error));
  EXPECT_NE(error.find("unknown action"), std::string::npos) << error;
  EXPECT_FALSE(fp.Arm("x=error@0", &error));
  EXPECT_NE(error.find("bad @hit count"), std::string::npos) << error;
  EXPECT_FALSE(fp.Arm("=error", &error));
  EXPECT_NE(error.find("empty name"), std::string::npos) << error;
  EXPECT_FALSE(fp.armed());  // a failed Arm arms nothing
}

TEST(Failpoints, HitCountsScopesAndOneShotSemantics) {
  FailpointGuard guard;
  Failpoints& fp = Failpoints::Instance();
  std::string error;
  ASSERT_TRUE(fp.Arm("a=error@2,shard1:b=error", &error)) << error;
  fp.SetScope("shard0");
  EXPECT_FALSE(fp.Fire("b"));  // wrong scope
  EXPECT_FALSE(fp.Fire("a"));  // hit 1 of 2
  EXPECT_TRUE(fp.Fire("a"));   // hit 2: fires
  EXPECT_FALSE(fp.Fire("a"));  // one-shot: spent
  fp.SetScope("shard1");
  EXPECT_TRUE(fp.Fire("b"));  // scoped entry matches its scope
  EXPECT_FALSE(fp.Fire("b"));
  // Re-arming replaces the whole set (fork-child idempotence) and resets
  // hit counters.
  ASSERT_TRUE(fp.Arm("a=error@2", &error)) << error;
  EXPECT_FALSE(fp.Fire("a"));
  EXPECT_TRUE(fp.Fire("a"));
  fp.Clear();
  EXPECT_FALSE(fp.armed());
  EXPECT_FALSE(fp.Fire("a"));
}

// --- the supervisor's policy, driven directly -------------------------------

TEST(ShardSupervisor, CleanChildrenRunOnce) {
  ShardSupervisor::Options options;
  options.backoff_ms = 1;
  ShardSupervisor supervisor(options,
                             [](const CampaignSpec&, std::string*) { return true; });
  std::vector<CampaignSpec> children(2);
  children[0].journal_path = TempPath("supervisor_clean0.lfij");
  children[1].journal_path = TempPath("supervisor_clean1.lfij");
  std::string error;
  std::vector<ShardSupervisor::Report> reports;
  ASSERT_TRUE(supervisor.Run(children, &error, &reports)) << error;
  ASSERT_EQ(reports.size(), 2u);
  for (const ShardSupervisor::Report& report : reports) {
    EXPECT_EQ(report.attempts, 1u);
    EXPECT_EQ(report.last_exit, ChildExit::kClean);
  }
}

// Wait() sleeps until a worker replies or ends (util/child_process.h), with
// no fixed-interval wake-up even while deadlines are armed: a clean Run of N
// children, whose workers reply at staggered times, returns from it at most
// N times, in a first Run that forks the workers and in a second that reuses
// them.
TEST(ShardSupervisor, CleanRunWakesOncePerChild) {
  ShardSupervisor::Options options;
  options.child_timeout_ms = 60000;  // deadlines armed: the watchdog is live
  ShardSupervisor supervisor(options, [](const CampaignSpec& spec, std::string*) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20 + 10 * spec.shard_index));
    return true;
  });
  std::vector<CampaignSpec> children(4);
  for (size_t shard = 0; shard < children.size(); ++shard) {
    children[shard].shard_index = shard;
    children[shard].journal_path = TempPath(StrFormat("supervisor_wakeups%zu.lfij", shard));
  }
  for (size_t run = 0; run < 2; ++run) {
    std::string error;
    std::vector<ShardSupervisor::Report> reports;
    ASSERT_TRUE(supervisor.Run(children, &error, &reports)) << error;
    EXPECT_GE(supervisor.wakeups(), 1u);
    EXPECT_LE(supervisor.wakeups(), children.size()) << "run " << run;
    for (const ShardSupervisor::Report& report : reports) {
      EXPECT_EQ(report.forks, run == 0 ? 1u : 0u);
    }
  }
}

TEST(ShardSupervisor, RetriesExhaustThenFailLoudly) {
  ShardSupervisor::Options options;
  options.max_retries = 1;
  options.backoff_ms = 1;
  ShardSupervisor supervisor(options, [](const CampaignSpec&, std::string* err) {
    if (err != nullptr) {
      *err = "deterministic child failure";
    }
    return false;
  });
  std::vector<CampaignSpec> children(1);
  children[0].journal_path = TempPath("supervisor_fails.lfij");
  std::string error;
  std::vector<ShardSupervisor::Report> reports;
  EXPECT_FALSE(supervisor.Run(children, &error, &reports));
  EXPECT_NE(error.find("shard 0 failed after 2 attempt(s)"), std::string::npos) << error;
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].attempts, 2u);
}

TEST(ShardSupervisor, RefusedChildFailsAtItsFirstAttempt) {
  ShardSupervisor::Options options;
  options.max_retries = 2;
  options.backoff_ms = 1;
  ShardSupervisor supervisor(options, [](const CampaignSpec&, std::string*) -> bool {
    throw ChildRefusal("journal records another campaign");
  });
  std::vector<CampaignSpec> children(2);
  children[0].journal_path = TempPath("supervisor_refused0.lfij");
  children[1].journal_path = TempPath("supervisor_refused1.lfij");
  std::string error;
  std::vector<ShardSupervisor::Report> reports;
  EXPECT_FALSE(supervisor.Run(children, &error, &reports));
  EXPECT_NE(error.find("failed after 1 attempt(s): last attempt refused"), std::string::npos)
      << error;
  ASSERT_EQ(reports.size(), 2u);
  for (const ShardSupervisor::Report& report : reports) {
    EXPECT_EQ(report.attempts, 1u);
    EXPECT_EQ(report.last_exit, ChildExit::kRefused);
    EXPECT_EQ(report.status, kChildRefusedExitStatus);
  }
}

// Workers outlive a Run(): the next Run() whose specs differ only in the
// request's fields (epoch, journal, resume, failpoints) runs on the same
// workers, each attempt on its child's work payload.
TEST(ShardSupervisor, WorkersPersistAcrossRuns) {
  ShardSupervisor::Options options;
  options.max_retries = 0;
  ShardSupervisor supervisor(
      options, [](const CampaignSpec& spec, std::string_view work, std::string* error) {
        if (work != spec.journal_path + "#work") {
          *error = "attempt got the wrong work: " + std::string(work);
          return false;
        }
        return true;
      });
  std::vector<CampaignSpec> children(2);
  for (size_t epoch = 0; epoch < 3; ++epoch) {
    std::vector<std::string> work;
    for (size_t shard = 0; shard < children.size(); ++shard) {
      children[shard].shard_index = shard;
      children[shard].epoch_index = epoch;
      children[shard].journal_path = TempPath(StrFormat("supervisor_persist_e%zu_s%zu", epoch,
                                                        shard));
      work.push_back(children[shard].journal_path + "#work");
    }
    std::string error;
    std::vector<ShardSupervisor::Report> reports;
    ASSERT_TRUE(supervisor.Run(children, work, {}, &error, &reports)) << error;
    for (const ShardSupervisor::Report& report : reports) {
      EXPECT_EQ(report.attempts, 1u);
      EXPECT_EQ(report.forks, epoch == 0 ? 1u : 0u) << "epoch " << epoch;
    }
  }
  // A spec that differs in more than the request carries gets a new worker.
  children[0].seed = 99;
  std::vector<ShardSupervisor::Report> reports;
  std::string error;
  ASSERT_TRUE(supervisor.Run(children, {children[0].journal_path + "#work",
                                        children[1].journal_path + "#work"},
                             {}, &error, &reports))
      << error;
  EXPECT_EQ(reports[0].forks, 1u);
  EXPECT_EQ(reports[1].forks, 0u);
}

// Every attempt starts from the failpoint state its worker was forked
// with, as a fresh fork would: a one-shot failpoint consumed in epoch 0
// fires again in epoch 1 on the same worker.
TEST(ShardSupervisor, FailpointConsumedInOneEpochDoesNotCarryIntoTheNext) {
  FailpointGuard guard;
  std::string error;
  ASSERT_TRUE(Failpoints::Instance().Arm("probe=error", &error)) << error;
  ShardSupervisor::Options options;
  options.max_retries = 0;
  ShardSupervisor supervisor(options, [](const CampaignSpec&, std::string* error) {
    if (!Failpoints::Instance().Fire("probe")) {
      *error = "the one-shot failpoint did not fire";
      return false;
    }
    return true;
  });
  std::vector<CampaignSpec> children(1);
  children[0].failpoints = "probe=error";  // non-empty: the attempt keeps its registry
  for (size_t epoch = 0; epoch < 2; ++epoch) {
    children[0].epoch_index = epoch;
    std::vector<ShardSupervisor::Report> reports;
    ASSERT_TRUE(supervisor.Run(children, &error, &reports)) << "epoch " << epoch << ": " << error;
    EXPECT_EQ(reports[0].forks, epoch == 0 ? 1u : 0u);
  }
}

// A shard child is a fork of the orchestrator, which analyzes before it
// forks, so the child inherits the warm AnalysisCache and computes no
// analysis of its own: each child here derives the spec's whole source,
// every report included, and still misses nothing. bind links libc and
// libxml2: its children need the reports of both profiles.
TEST(ShardSupervisor, ForkedChildrenRunNoAnalysis) {
  for (const char* system : {"pbft", "bind"}) {
    CampaignSpec spec;
    spec.system = system;
    spec.mode = CampaignMode::kExplore;
    spec.strategy = ExploreStrategy::kRandom;
    spec.budget = 8;
    RunSpec(spec);  // warms the cache in this, the parent, process
    const uint64_t warm_misses = AnalysisCache::Instance().stats().report_misses;

    std::vector<CampaignSpec> children(2, spec);
    ShardSupervisor::Options options;
    options.max_retries = 0;
    ShardSupervisor supervisor(
        options, [warm_misses](const CampaignSpec& child, std::string* error) {
          if (!CampaignDriver(child).Run(error)) {
            return false;
          }
          uint64_t misses = AnalysisCache::Instance().stats().report_misses;
          if (misses != warm_misses) {
            *error = StrFormat("report_misses went from %llu to %llu in the child",
                               static_cast<unsigned long long>(warm_misses),
                               static_cast<unsigned long long>(misses));
            return false;
          }
          return true;
        });
    std::string error;
    std::vector<ShardSupervisor::Report> reports;
    EXPECT_TRUE(supervisor.Run(children, &error, &reports)) << system << ": " << error;
    ASSERT_EQ(reports.size(), children.size()) << system;
    for (const ShardSupervisor::Report& report : reports) {
      EXPECT_EQ(report.last_exit, ChildExit::kClean) << system;
      EXPECT_EQ(report.forks, 1u) << system;
    }
  }
}

// Stale shard artifacts of another seed: every child refuses to resume a
// journal recording a different campaign, and nobody is respawned.
TEST(ShardSupervisor, StaleShardArtifactsOfAnotherSeedAreNotRetried) {
  std::string path = TempPath("supervisor_stale.lfij");
  CampaignSpec spec;
  spec.system = "pbft";
  spec.mode = CampaignMode::kExplore;
  spec.strategy = ExploreStrategy::kRandom;
  spec.budget = 16;
  spec.seed = 1;
  spec.shard_count = 4;
  spec.backoff_ms = 2000;  // a retry would show up as seconds of backoff
  spec.journal_path = path;
  auto remove_all = [&] {
    std::remove(path.c_str());
    for (size_t shard = 0; shard < 4; ++shard) {
      std::remove(spec.ShardJournalPath(shard).c_str());
    }
  };
  remove_all();
  RunSpec(spec);
  std::remove(path.c_str());  // keep only the seed-1 shard journals
  spec.seed = 2;
  std::string error;
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(CampaignDriver(spec).Run(&error).has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(1500));
  EXPECT_NE(error.find("failed after 1 attempt(s): last attempt refused"), std::string::npos)
      << error;
  remove_all();
}

TEST(ShardSupervisor, DeadlineKillsHungChild) {
  ShardSupervisor::Options options;
  options.child_timeout_ms = 50;
  options.max_retries = 0;
  options.backoff_ms = 1;
  ShardSupervisor supervisor(options, [](const CampaignSpec&, std::string*) {
    std::this_thread::sleep_for(std::chrono::seconds(30));
    return true;
  });
  std::vector<CampaignSpec> children(1);
  children[0].journal_path = TempPath("supervisor_hung.lfij");
  std::string error;
  std::vector<ShardSupervisor::Report> reports;
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(supervisor.Run(children, &error, &reports));
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(20)) << "deadline did not kill the child";
  EXPECT_NE(error.find("timed-out"), std::string::npos) << error;
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].last_exit, ChildExit::kTimedOut);
}

// The error text says how the last attempt's process ended, in the words
// replay uses for its children (util/child_process.h).
TEST(ShardSupervisor, ErrorTextNamesHowTheChildEnded) {
  ShardSupervisor::Options options;
  options.child_timeout_ms = 200;
  options.max_retries = 0;
  std::vector<CampaignSpec> children(1);
  children[0].journal_path = TempPath("supervisor_ended.lfij");
  std::string error;
  ShardSupervisor killed(options, [](const CampaignSpec&, std::string*) {
    std::raise(SIGKILL);
    return true;
  });
  EXPECT_FALSE(killed.Run(children, &error));
  EXPECT_NE(error.find(StrFormat("last attempt signaled (killed by signal %d)", SIGKILL)),
            std::string::npos)
      << error;
  ShardSupervisor hung(options, [](const CampaignSpec&, std::string*) {
    std::this_thread::sleep_for(std::chrono::seconds(30));
    return true;
  });
  // The deadline has passed as it is armed (DeadlineKillsHungChild waits
  // one out on the clock).
  FailpointGuard guard;
  ASSERT_TRUE(Failpoints::Instance().Arm("supervisor.deadline=error"));
  EXPECT_FALSE(hung.Run(children, &error));
  EXPECT_NE(error.find("last attempt timed-out (timed out after 200 ms)"), std::string::npos)
      << error;
}

// --- the chaos acceptance bar -----------------------------------------------
//
// Every schedule below injects a failure into a distributed run of the same
// campaign and requires the merged journal to come out byte-identical to the
// unfailed single-process run.

TEST(ChaosRecovery, ChildCrashAtEachEpochStartRecoversByteIdentical) {
  const std::string& golden = GoldenBytes();
  ASSERT_FALSE(golden.empty());
  std::string error;
  for (size_t epoch = 0; epoch < 3; ++epoch) {
    FailpointGuard guard;
    std::string path =
        TempPath(StrFormat("supervisor_crash_e%zu.lfij", epoch).c_str());
    RemoveArtifacts(path, 2);
    CampaignSpec spec = ChaosSpec(path, 2);
    // Kill shard 1's child with a bare _Exit the moment it starts epoch
    // `epoch`; the supervisor retries it with failpoints stripped.
    spec.failpoints = StrFormat("epoch%zu.shard1:child.start=exit:9", epoch);
    auto outcome = RunDriver(spec, &error);
    ASSERT_TRUE(outcome.has_value()) << error << " epoch=" << epoch;
    EXPECT_EQ(ReadFile(path), golden) << "epoch=" << epoch;
  }
}

TEST(ChaosRecovery, ChildCrashMidEpochSalvagesSealedPrefix) {
  const std::string& golden = GoldenBytes();
  FailpointGuard guard;
  std::string path = TempPath("supervisor_crash_mid.lfij");
  RemoveArtifacts(path, 2);
  CampaignSpec spec = ChaosSpec(path, 2);
  // _Exit before the child's first journal append of epoch 1: the respawned
  // attempt finds the torn shard journal on disk and resumes it.
  spec.failpoints = "epoch1.shard0:engine.record=exit:9@1";
  std::string error;
  auto outcome = RunDriver(spec, &error);
  ASSERT_TRUE(outcome.has_value()) << error;
  EXPECT_EQ(ReadFile(path), golden);
}

TEST(ChaosRecovery, HungChildIsKilledAtDeadlineAndRespawned) {
  const std::string& golden = GoldenBytes();
  FailpointGuard guard;
  std::string path = TempPath("supervisor_hang_child.lfij");
  RemoveArtifacts(path, 2);
  CampaignSpec spec = ChaosSpec(path, 2);
  // Shard 0's first attempt parks at its start, and the first deadline the
  // supervisor arms -- that attempt's -- has passed as it is armed, so the
  // test waits out no clock. Generous enough that a healthy (even
  // sanitizer-instrumented) attempt finishes its epoch inside the deadline.
  spec.failpoints = "epoch0.shard0:child.start=hang,supervisor.deadline=error";
  spec.child_timeout_ms = 8000;
  std::string error;
  testing::internal::CaptureStderr();
  auto start = std::chrono::steady_clock::now();
  auto outcome = RunDriver(spec, &error);
  auto elapsed = std::chrono::steady_clock::now() - start;
  std::string log = testing::internal::GetCapturedStderr();
  ASSERT_TRUE(outcome.has_value()) << error;
  EXPECT_EQ(ReadFile(path), golden);
  EXPECT_LT(elapsed, std::chrono::milliseconds(8000)) << "the deadline was waited out";
  // SIGKILLed at its deadline, classified timed-out, respawned once.
  EXPECT_NE(log.find("supervisor: shard 0 attempt 1 timed out after 8000 ms; respawning"),
            std::string::npos)
      << log;
  ASSERT_EQ(outcome->shards.size(), 2u);
  EXPECT_EQ(outcome->shards[0].workers, 2u);
  EXPECT_EQ(outcome->shards[1].workers, 1u);
}

TEST(ChaosRecovery, RetryExhaustionFailsLoudlyAndResumeSalvagesTheRun) {
  const std::string& golden = GoldenBytes();
  std::string path = TempPath("supervisor_exhaust.lfij");
  std::string error;
  {
    FailpointGuard guard;
    RemoveArtifacts(path, 2);
    CampaignSpec spec = ChaosSpec(path, 2);
    spec.max_retries = 0;  // the crash schedule may not be retried away
    spec.failpoints = "epoch0.shard1:child.start=exit:7";
    auto outcome = RunDriver(spec, &error);
    ASSERT_FALSE(outcome.has_value());
    EXPECT_NE(error.find("shard 1 failed after 1 attempt(s)"), std::string::npos) << error;
    EXPECT_NE(error.find("status 7"), std::string::npos) << error;
  }
  // A clean resume (fresh supervision policy, no failpoints) completes the
  // campaign from the surviving artifacts, byte-identically.
  FailpointGuard guard;
  CampaignSpec resume;
  resume.mode = CampaignMode::kResume;
  resume.journal_path = path;
  resume.shard_count = 2;
  auto resumed = RunDriver(resume, &error);
  ASSERT_TRUE(resumed.has_value()) << error;
  EXPECT_EQ(ReadFile(path), golden);
}

// A clean 4-shard campaign forks one worker per shard for all its epochs,
// and CI's chaos schedule -- two workers killed at the start of their
// epoch, one after its first record -- costs exactly one more fork per
// killed attempt and still merges to the unfailed single-process bytes.
TEST(ChaosRecovery, CiScheduleOnPersistentWorkersMatchesSingleProcess) {
  const std::string& golden = GoldenBytes();
  for (bool chaos : {false, true}) {
    SCOPED_TRACE(chaos ? "chaos" : "clean");
    FailpointGuard guard;
    std::string path = TempPath("supervisor_ci_chaos.lfij");
    RemoveArtifacts(path, 4);
    CampaignSpec spec = ChaosSpec(path, 4);
    if (chaos) {
      spec.failpoints =
          "epoch0.shard1:child.start=exit:9,epoch1.shard3:child.start=exit:9,"
          "epoch1.shard0:engine.record=exit:9@1";
    }
    std::string error;
    auto outcome = RunDriver(spec, &error);
    ASSERT_TRUE(outcome.has_value()) << error;
    EXPECT_EQ(ReadFile(path), golden);
    ExpectOrchestratorRanNoJob(*outcome);
    ASSERT_EQ(outcome->shards.size(), 4u);
    for (size_t shard = 0; shard < 4; ++shard) {
      bool killed = chaos && shard != 2;
      EXPECT_EQ(outcome->shards[shard].workers, killed ? 2u : 1u) << "shard " << shard;
    }
  }
}

// A fork that fails is a failed attempt: the run's first fork (shard 0's)
// or a later one (shard 1's, with shard 0's worker already up) backs off
// and respawns on a fresh fork. The failed fork counts as no worker, and
// no shard runs in the orchestrator.
TEST(ChaosRecovery, ForkFailureIsAFailedAttemptThatRespawns) {
  const std::string& golden = GoldenBytes();
  for (const char* schedule : {"supervisor.fork=error", "supervisor.fork=error@2"}) {
    SCOPED_TRACE(schedule);
    FailpointGuard guard;
    std::string path = TempPath("supervisor_forkfail.lfij");
    RemoveArtifacts(path, 2);
    CampaignSpec spec = ChaosSpec(path, 2);
    spec.failpoints = schedule;
    std::string error;
    auto outcome = RunDriver(spec, &error);
    ASSERT_TRUE(outcome.has_value()) << error;
    EXPECT_EQ(ReadFile(path), golden);
    ExpectOrchestratorRanNoJob(*outcome);
    ASSERT_EQ(outcome->shards.size(), 2u);
    for (size_t shard = 0; shard < 2; ++shard) {
      EXPECT_EQ(outcome->shards[shard].workers, 1u) << "shard " << shard;
    }
  }
}

// Without retries the same schedules fail the campaign, naming the failed
// fork, and a clean resume finishes it byte for byte.
TEST(ChaosRecovery, ForkFailureWithoutRetriesFailsAndResumeFinishes) {
  const std::string& golden = GoldenBytes();
  for (const char* schedule : {"supervisor.fork=error", "supervisor.fork=error@2"}) {
    SCOPED_TRACE(schedule);
    std::string path = TempPath("supervisor_forkfail_exhaust.lfij");
    std::string error;
    {
      FailpointGuard guard;
      RemoveArtifacts(path, 2);
      CampaignSpec spec = ChaosSpec(path, 2);
      spec.max_retries = 0;
      spec.failpoints = schedule;
      EXPECT_FALSE(RunDriver(spec, &error).has_value());
      EXPECT_NE(error.find("last attempt spawn-failed"), std::string::npos) << error;
    }
    FailpointGuard guard;
    CampaignSpec resume;
    resume.mode = CampaignMode::kResume;
    resume.journal_path = path;
    resume.shard_count = 2;
    auto resumed = RunDriver(resume, &error);
    ASSERT_TRUE(resumed.has_value()) << error;
    EXPECT_EQ(ReadFile(path), golden);
  }
}

// Report::forks counts the forks that happened: a failed one is an attempt
// but no worker.
TEST(ShardSupervisor, FailedForkIsAnAttemptButNoWorker) {
  FailpointGuard guard;
  ASSERT_TRUE(Failpoints::Instance().Arm("supervisor.fork=error@2"));
  ShardSupervisor::Options options;
  options.backoff_ms = 1;
  ShardSupervisor supervisor(options, [](const CampaignSpec&, std::string*) { return true; });
  std::vector<CampaignSpec> children(2);
  std::string error;
  std::vector<ShardSupervisor::Report> reports;
  ASSERT_TRUE(supervisor.Run(children, &error, &reports)) << error;
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].attempts, 1u);
  EXPECT_EQ(reports[0].forks, 1u);
  EXPECT_EQ(reports[1].attempts, 2u);
  EXPECT_EQ(reports[1].forks, 1u);
  EXPECT_EQ(reports[1].last_exit, ChildExit::kClean);
}

// --- the zygote: shard children inherit the orchestrator's targets ----------

TEST(ShardZygote, ChildrenRunOnInheritedTargetsAndBuildNone) {
  // Every child scope arms pool.build=exit:9 and nothing is retried, so a
  // child that brings up a target of its own kills the run. The run must
  // instead complete on the instances the orchestrator prewarmed before its
  // first fork, and write the single-process journal byte for byte.
  std::string schedule;
  for (size_t epoch = 0; epoch < 8; ++epoch) {
    for (size_t shard = 0; shard < 4; ++shard) {
      schedule += StrFormat("%sepoch%zu.shard%zu:pool.build=exit:9", schedule.empty() ? "" : ",",
                            epoch, shard);
    }
  }
  for (const char* system : {"pbft", "bfs"}) {
    SCOPED_TRACE(system);
    std::string error;
    std::string single_path = TempPath(StrFormat("supervisor_zygote_%s_single.lfij", system));
    RemoveArtifacts(single_path, 0);
    CampaignSpec spec = ChaosSpec(single_path, 1);
    spec.system = system;
    spec.workers = 2;
    ASSERT_TRUE(RunDriver(spec, &error).has_value()) << error;
    auto single = CampaignJournal::Load(single_path, &error);
    ASSERT_TRUE(single.has_value()) << error;
    size_t first_epoch_jobs = std::ranges::count_if(
        single->records(), [](const JournalRecord& record) { return record.epoch == 0; });

    FailpointGuard guard;
    std::string path = TempPath(StrFormat("supervisor_zygote_%s.lfij", system));
    RemoveArtifacts(path, 4);
    spec.journal_path = path;
    spec.shard_count = 4;
    spec.max_retries = 0;
    spec.failpoints = schedule;
    auto outcome = RunDriver(spec, &error);
    ASSERT_TRUE(outcome.has_value()) << error;
    EXPECT_EQ(ReadFile(path), ReadFile(single_path));
    // The orchestrator's only bring-ups: one instance per job a child runs
    // at once -- its 2 workers, capped by an even deal of the first epoch.
    EXPECT_EQ(outcome->pool.builds, std::min<size_t>(2, (first_epoch_jobs + 3) / 4));
    EXPECT_EQ(outcome->pool.runs, 0u);
  }
}

TEST(ShardZygote, Table1WorkersRunSecondPhaseJobsOnInheritedTargets) {
  // The same bar for Table 1's two phases: a shard worker runs the
  // second-phase jobs it is dealt (bind's dst sweep, pbft's distributed
  // fuzz, bfs's partial transfers) on the instances it inherited, so with
  // pool.build=exit:9 armed in every shard scope the run still completes
  // and writes the single-process journal byte for byte.
  for (const char* system : {"bind", "pbft", "bfs"}) {
    SCOPED_TRACE(system);
    std::string error;
    std::string single_path = TempPath(StrFormat("supervisor_zygote_t1_%s_single.lfij", system));
    RemoveArtifacts(single_path, 0);
    CampaignSpec spec{.system = system,
                      .mode = CampaignMode::kTable1,
                      .exhaustive = true,
                      .workers = 2,
                      .journal_path = single_path};
    ASSERT_TRUE(RunDriver(spec, &error).has_value()) << error;

    FailpointGuard guard;
    std::string path = TempPath(StrFormat("supervisor_zygote_t1_%s.lfij", system));
    RemoveArtifacts(path, 3);
    spec.journal_path = path;
    spec.shard_count = 3;
    spec.max_retries = 0;
    spec.backoff_ms = 10;
    spec.failpoints =
        "shard0:pool.build=exit:9,shard1:pool.build=exit:9,shard2:pool.build=exit:9";
    auto outcome = RunDriver(spec, &error);
    ASSERT_TRUE(outcome.has_value()) << error;
    EXPECT_EQ(ReadFile(path), ReadFile(single_path));
    EXPECT_EQ(outcome->pool.runs, 0u);
  }
}

// --- the engine's per-job hang detection ------------------------------------

TEST(EngineHangDetection, HungJobReportsDeterministicHangBug) {
  FailpointGuard guard;
  std::string path = TempPath("supervisor_engine_hang.lfij");
  std::remove(path.c_str());
  CampaignSpec spec;
  spec.system = "pbft";
  spec.mode = CampaignMode::kExplore;
  spec.strategy = ExploreStrategy::kRandom;
  spec.budget = 8;
  spec.seed = 5;
  spec.workers = 1;
  spec.journal_path = path;
  spec.job_timeout_ms = 200;
  spec.failpoints = "engine.job.run=hang@3";
  std::string error;
  auto outcome = RunDriver(spec, &error);
  ASSERT_TRUE(outcome.has_value()) << error;
  bool found_hang = false;
  for (const FoundBug& bug : outcome->bugs) {
    if (bug.kind == "hang") {
      found_hang = true;
      EXPECT_EQ(bug.system, "pbft");
      EXPECT_NE(bug.where.find("unresponsive under injected fault"), std::string::npos);
    }
  }
  EXPECT_TRUE(found_hang);
  // Clear releases the parked watchdog thread; the abandoned job is skipped,
  // never executed against torn-down engine state.
  Failpoints::Instance().Clear();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

}  // namespace
}  // namespace lfi
