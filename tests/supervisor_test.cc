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
#include <thread>
#include <vector>

#include "apps/common/campaign_driver.h"
#include "apps/common/campaign_spec.h"
#include "apps/common/shard_supervisor.h"
#include "campaign_test_util.h"
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
  std::remove((journal + ".tmp").c_str());
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

#if defined(__unix__) || defined(__APPLE__)

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
  options.child_timeout_ms = 200;
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
  spec.failpoints = "epoch0.shard0:child.start=hang";
  // Generous enough that a healthy (even sanitizer-instrumented) respawn
  // finishes its epoch inside the deadline; only the parked attempt dies.
  spec.child_timeout_ms = 8000;
  std::string error;
  auto outcome = RunDriver(spec, &error);
  ASSERT_TRUE(outcome.has_value()) << error;
  EXPECT_EQ(ReadFile(path), golden);
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

TEST(ChaosRecovery, ForkFailureFallsBackToInProcessExecution) {
  const std::string& golden = GoldenBytes();
  // Total failure (no child ever spawns) and partial failure (one child is
  // up and must be killed and re-run in-process) both converge.
  for (const char* schedule : {"supervisor.fork=error", "supervisor.fork=error@2"}) {
    FailpointGuard guard;
    std::string path = TempPath("supervisor_forkfail.lfij");
    RemoveArtifacts(path, 2);
    CampaignSpec spec = ChaosSpec(path, 2);
    spec.failpoints = schedule;
    std::string error;
    auto outcome = RunDriver(spec, &error);
    ASSERT_TRUE(outcome.has_value()) << error << " schedule=" << schedule;
    EXPECT_EQ(ReadFile(path), golden) << "schedule=" << schedule;
  }
}

#endif  // defined(__unix__) || defined(__APPLE__)

// --- crash-atomic merge finalization ----------------------------------------

TEST(ChaosRecovery, MergeCrashBeforeRenameLeavesNoTornOutput) {
  FailpointGuard guard;
  // Two dealt shards of one random-strategy campaign, run in-process.
  std::string base = TempPath("supervisor_merge_in.lfij");
  std::vector<std::string> inputs;
  std::string error;
  for (size_t shard = 0; shard < 2; ++shard) {
    CampaignSpec spec;
    spec.system = "pbft";
    spec.mode = CampaignMode::kExplore;
    spec.strategy = ExploreStrategy::kRandom;
    spec.budget = 16;
    spec.seed = 3;
    spec.workers = 1;
    spec.shard_index = shard;
    spec.shard_count = 2;
    spec.journal_path = base + StrFormat(".in%zu", shard);
    std::remove(spec.journal_path.c_str());
    inputs.push_back(spec.journal_path);
    ASSERT_TRUE(RunDriver(spec, &error).has_value()) << error;
  }
  Failpoints::Instance().SetScope("");

  std::string ref_path = TempPath("supervisor_merge_ref.lfij");
  std::remove(ref_path.c_str());
  ASSERT_TRUE(MergeCampaignJournals(inputs, ref_path, &error).has_value()) << error;
  std::string ref_bytes = ReadFile(ref_path);

  // The merge dies between finalizing the tmp file and renaming it: the
  // output path must not exist (a reader never sees a torn merge), and the
  // tmp file is a complete, finalized journal.
  std::string out_path = TempPath("supervisor_merge_out.lfij");
  std::remove(out_path.c_str());
  std::remove((out_path + ".tmp").c_str());
  ASSERT_TRUE(Failpoints::Instance().Arm("merge.rename=error", &error)) << error;
  EXPECT_FALSE(MergeCampaignJournals(inputs, out_path, &error).has_value());
  EXPECT_NE(error.find("merge.rename"), std::string::npos) << error;
  EXPECT_FALSE(std::ifstream(out_path).good());
  auto tmp = CampaignJournal::Load(out_path + ".tmp", &error);
  ASSERT_TRUE(tmp.has_value()) << error;
  EXPECT_TRUE(tmp->sealed());

  // Re-running the merge cleanly converges to the reference bytes.
  Failpoints::Instance().Clear();
  std::remove((out_path + ".tmp").c_str());
  ASSERT_TRUE(MergeCampaignJournals(inputs, out_path, &error).has_value()) << error;
  EXPECT_EQ(ReadFile(out_path), ref_bytes);
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
