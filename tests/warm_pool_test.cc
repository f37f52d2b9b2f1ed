// Warm-instance job execution (core/warm_pool.h, apps/common/warm_targets.h):
// virtual-environment snapshots round-trip bit-exactly, a reset target
// serves repeated jobs indistinguishably from a fresh instance of the same
// factory, the pool survives crashed jobs, discards non-restorable
// instances, and outlives its abandoned jobs, and -- the acceptance bar --
// whole campaigns run warm produce bugs, coverage, and journal *bytes*
// identical to the --cold-start policy at any worker or shard count. Also
// pins the streamed ScenarioFingerprint to the SHA-1 of the materialized XML
// it replaced.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "apps/common/campaign_driver.h"
#include "apps/common/campaign_spec.h"
#include "apps/common/warm_targets.h"
#include "campaign_test_util.h"
#include "core/campaign_engine.h"
#include "core/exploration.h"
#include "core/scenario.h"
#include "core/warm_pool.h"
#include "util/sha1.h"
#include "util/string_util.h"
#include "vlib/vfs.h"
#include "vlib/virtual_libc.h"
#include "vlib/vnet.h"

namespace lfi {
namespace {

void ExpectSameOutcome(const CampaignOutcome& a, const CampaignOutcome& b) {
  ExpectSameBugs(a.bugs, b.bugs);
  CoverageMap::Stats sa = a.coverage.ComputeStats();
  CoverageMap::Stats sb = b.coverage.ComputeStats();
  EXPECT_EQ(sa.covered_recovery_blocks, sb.covered_recovery_blocks);
  EXPECT_EQ(sa.covered_blocks, sb.covered_blocks);
  EXPECT_EQ(a.scenarios_run, b.scenarios_run);
}

void ExpectSameResult(const JobResult& warm, const JobResult& cold) {
  ExpectSameBugs(warm.bugs, cold.bugs);
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);
  EXPECT_EQ(warm.injections, cold.injections);
  CoverageMap::Stats sw = warm.coverage.ComputeStats();
  CoverageMap::Stats sc = cold.coverage.ComputeStats();
  EXPECT_EQ(sw.covered_blocks, sc.covered_blocks);
  EXPECT_EQ(sw.covered_recovery_blocks, sc.covered_recovery_blocks);
}

// --- virtual-environment snapshots ------------------------------------------

TEST(VfsSnapshot, RestoreRollsEveryMutationBack) {
  VirtualFs fs;
  fs.MkDir("/a");
  fs.MkDir("/a/b");
  fs.WriteFile("/a/b/file", "payload");
  fs.WriteFile("/a/fifo", "", /*is_fifo=*/true);
  VirtualFs::Snapshot snapshot = fs.TakeSnapshot();

  fs.WriteFile("/a/b/file", "clobbered");
  fs.WriteFile("/a/new", "post-snapshot");
  fs.Remove("/a/fifo");
  fs.MkDir("/post");

  fs.Restore(snapshot);
  ASSERT_NE(fs.GetFile("/a/b/file"), nullptr);
  EXPECT_EQ(fs.GetFile("/a/b/file")->data, "payload");
  EXPECT_FALSE(fs.FileExists("/a/new"));
  ASSERT_NE(fs.GetFile("/a/fifo"), nullptr);
  EXPECT_TRUE(fs.GetFile("/a/fifo")->is_fifo);
  EXPECT_FALSE(fs.DirExists("/post"));
  EXPECT_TRUE(fs.DirExists("/a/b"));
  EXPECT_EQ(fs.file_count(), 2u);
}

TEST(VnetSnapshot, RestoreRollsQueuesCountersAndLossStreamBack) {
  VirtualNet net(/*seed=*/42);
  net.Bind(1);
  net.Bind(2);
  net.Send(1, 2, "queued");
  net.set_loss_probability(0.5);
  // Burn a few RNG draws so the snapshot captures mid-stream state.
  for (int i = 0; i < 5; ++i) {
    net.Send(1, 2, "warmup");
  }
  VirtualNet::Snapshot snapshot = net.TakeSnapshot();

  // Record the loss decisions the post-snapshot stream makes...
  std::vector<long> accepted;
  for (int i = 0; i < 16; ++i) {
    accepted.push_back(net.Send(1, 2, "probe"));
  }
  uint64_t delivered = net.delivered_count();
  uint64_t dropped = net.dropped_count();
  net.Bind(3);
  net.Unbind(1);

  // ...then restore and replay: bindings, queues, counters, and the loss RNG
  // must all pick up exactly where the snapshot left them.
  net.Restore(snapshot);
  EXPECT_TRUE(net.IsBound(1));
  EXPECT_FALSE(net.IsBound(3));
  std::vector<long> replayed;
  for (int i = 0; i < 16; ++i) {
    replayed.push_back(net.Send(1, 2, "probe"));
  }
  EXPECT_EQ(replayed, accepted);
  EXPECT_EQ(net.delivered_count(), delivered);
  EXPECT_EQ(net.dropped_count(), dropped);
}

TEST(LibcSnapshot, RestoreFreesPostSnapshotStateAndResetsValues) {
  VirtualFs fs;
  VirtualNet net;
  VirtualLibc libc(&fs, &net, "test");
  fs.MkDir("/d");
  void* setup_block = libc.Malloc(16);
  ASSERT_NE(setup_block, nullptr);
  libc.SetEnv("SETUP", "yes", 1);
  VirtualLibc::Snapshot snapshot = libc.TakeSnapshot();
  size_t live = libc.live_allocations();

  void* job_block = libc.Malloc(32);
  ASSERT_NE(job_block, nullptr);
  libc.SetEnv("JOB", "leaked", 1);
  libc.set_verrno(7);

  ASSERT_TRUE(libc.Restore(snapshot));
  EXPECT_EQ(libc.live_allocations(), live);
  EXPECT_EQ(libc.GetEnv("JOB"), nullptr);
  ASSERT_NE(libc.GetEnv("SETUP"), nullptr);
  EXPECT_STREQ(libc.GetEnv("SETUP"), "yes");
  EXPECT_EQ(libc.verrno(), 0);
  // The setup-era block is still live and usable after restore.
  libc.Free(setup_block);
}

TEST(LibcSnapshot, ReleasedSetupResourceMakesRestoreRefuse) {
  VirtualFs fs;
  VirtualNet net;
  VirtualLibc libc(&fs, &net, "test");
  void* setup_block = libc.Malloc(16);
  VirtualLibc::Snapshot snapshot = libc.TakeSnapshot();

  // The "job" frees a setup-era allocation: that address may be reused by the
  // host allocator, so the snapshot is non-restorable. Restore must refuse
  // (the pool then rebuilds cold) instead of resurrecting a dangling pointer.
  libc.Free(setup_block);
  EXPECT_FALSE(libc.Restore(snapshot));
}

// --- the streamed scenario fingerprint --------------------------------------

TEST(ScenarioTest, FingerprintMatchesMaterializedXml) {
  // Hand-built scenarios (the generators the campaigns actually use)...
  std::vector<Scenario> scenarios;
  scenarios.push_back(MakeCallCountScenario("malloc", 3, 0, 12));
  scenarios.push_back(MakeRandomScenario("read", -1, 5, 0.1, 99));
  // ...plus a parsed one exercising <args> subtrees, conjunction, and negate.
  std::string error;
  auto parsed = Scenario::Parse(
      "<scenario>"
      "<trigger id=\"t1\" class=\"CallCountTrigger\"><args><count>3</count></args></trigger>"
      "<trigger id=\"t2\" class=\"RandomTrigger\"/>"
      "<function name=\"malloc\" argc=\"1\" return=\"0\" errno=\"12\">"
      "<reftrigger ref=\"t1\"/><reftrigger ref=\"t2\" negate=\"true\"/></function>"
      "<function name=\"fwrite\" argc=\"4\" return=\"unused\">"
      "<reftrigger ref=\"t2\"/></function>"
      "</scenario>",
      &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  scenarios.push_back(*parsed);
  scenarios.emplace_back();  // the empty scenario

  // The streamed digest must equal the SHA-1 of the materialized canonical
  // XML -- the definition it replaced -- or sharded campaigns would deal jobs
  // to different shards than their journals recorded.
  for (size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(ScenarioFingerprint(scenarios[i]), Sha1::HexDigest(scenarios[i].ToXml()))
        << "scenario " << i;
  }
}

// --- reset targets against fresh instances ---------------------------------

// The cold-start reference: a fresh instance from the same factory, run once
// and never reset.
JobResult RunFresh(const WarmPool::Factory& factory, const CampaignJob& job) {
  return factory()->Run(job);
}

TEST(WarmTarget, GitServesRepeatedJobsIdenticallyToFreshInstances) {
  CampaignJob clean;
  clean.label = "clean run";
  clean.seed = 3;
  CampaignJob crash;  // opendir #1 = NULL: the readdir SIGSEGV bug
  crash.scenario = MakeCallCountScenario("opendir", 1, 0, 0);
  crash.label = "opendir=NULL";
  crash.seed = 3;
  JobResult cold_clean = RunFresh(GitWarmFactory(), clean);
  JobResult cold_crash = RunFresh(GitWarmFactory(), crash);
  ASSERT_FALSE(cold_crash.bugs.empty());

  auto target = GitWarmFactory()();
  // Interleave crashing and clean jobs on one instance: a crashed job must
  // leave no trace a later job can observe.
  for (int round = 0; round < 3; ++round) {
    ExpectSameResult(target->Run(crash), cold_crash);
    ASSERT_TRUE(target->Reset()) << "round " << round;
    ExpectSameResult(target->Run(clean), cold_clean);
    ASSERT_TRUE(target->Reset()) << "round " << round;
  }
}

TEST(WarmTarget, AllSystemsRoundTripACleanJob) {
  CampaignJob job;
  job.label = "clean run";
  job.seed = 5;
  struct Case {
    const char* name;
    WarmPool::Factory factory;
  };
  std::vector<Case> cases;
  cases.push_back({"git", GitWarmFactory()});
  cases.push_back({"mysql", MysqlWarmFactory()});
  cases.push_back({"bind", BindWarmFactory()});
  cases.push_back({"bind-dst", BindDstWarmFactory()});
  cases.push_back({"pbft", PbftWarmFactory(8, 2000)});
  cases.push_back({"pbft-dist", PbftDistributedWarmFactory()});
  cases.push_back({"bfs", BfsWarmFactory(2, 600)});
  cases.push_back({"bfs-mux", BfsMuxWarmFactory()});
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    JobResult cold = RunFresh(c.factory, job);
    auto target = c.factory();
    ExpectSameResult(target->Run(job), cold);
    ASSERT_TRUE(target->Reset());
    ExpectSameResult(target->Run(job), cold);
    ASSERT_TRUE(target->Reset());
  }
}

// --- pool discipline ---------------------------------------------------------

class StubTarget : public WarmTarget {
 public:
  StubTarget(int id, bool reset_ok, int run_ms = 0, std::atomic<int>* destroyed = nullptr)
      : id_(id), reset_ok_(reset_ok), run_ms_(run_ms), destroyed_(destroyed) {}
  ~StubTarget() override {
    if (destroyed_ != nullptr) {
      ++*destroyed_;
    }
  }
  JobResult Run(const CampaignJob& job) override {
    (void)job;
    std::this_thread::sleep_for(std::chrono::milliseconds(run_ms_));
    JobResult result;
    result.fingerprint = StrFormat("instance-%d", id_);
    return result;
  }
  bool Reset() override { return reset_ok_; }

 private:
  int id_;
  bool reset_ok_;
  int run_ms_;
  std::atomic<int>* destroyed_;
};

TEST(WarmPoolDiscipline, SequentialJobsReuseOneInstance) {
  int built = 0;
  WarmPool pool([&] { return std::make_unique<StubTarget>(built++, /*reset_ok=*/true); });
  CampaignJob job;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(pool.RunJob(job).fingerprint, "instance-0");
  }
  WarmPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.runs, 5u);
  EXPECT_EQ(stats.resets, 5u);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST(WarmPoolDiscipline, FailedResetDropsTheInstanceAndRebuildsCold) {
  int built = 0;
  WarmPool pool([&] { return std::make_unique<StubTarget>(built++, /*reset_ok=*/false); });
  CampaignJob job;
  // Every job still runs (on a fresh cold build) -- a non-restorable
  // instance degrades performance, never correctness.
  EXPECT_EQ(pool.RunJob(job).fingerprint, "instance-0");
  EXPECT_EQ(pool.RunJob(job).fingerprint, "instance-1");
  EXPECT_EQ(pool.RunJob(job).fingerprint, "instance-2");
  WarmPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.builds, 3u);
  EXPECT_EQ(stats.runs, 3u);
  EXPECT_EQ(stats.resets, 0u);
  EXPECT_EQ(stats.dropped, 3u);
}

TEST(WarmPoolDiscipline, FreshPolicyBuildsPerJobAndNeverResets) {
  int built = 0;
  WarmPool pool([&] { return std::make_unique<StubTarget>(built++, /*reset_ok=*/true); },
                WarmPool::Policy::kFresh);
  CampaignJob job;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(pool.RunJob(job).fingerprint, StrFormat("instance-%d", i));
  }
  WarmPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.builds, 3u);
  EXPECT_EQ(stats.runs, 3u);
  EXPECT_EQ(stats.resets, 0u);
  EXPECT_EQ(stats.dropped, 0u);
}

// The engine's watchdog abandons a hung job on a detached thread. That job
// may finish after the campaign -- and the pool its runner came from -- is
// gone; checking its instance back in must not touch freed memory.
TEST(WarmPoolDiscipline, AbandonedJobOutlivesItsPool) {
  std::atomic<int> destroyed{0};
  auto pool = std::make_unique<WarmPool>([&] {
    return std::make_unique<StubTarget>(0, /*reset_ok=*/true, /*run_ms=*/100, &destroyed);
  });
  CampaignJob job;
  job.label = "sleeper";
  ExhaustiveSource source({job});
  CampaignEngine engine({.job_timeout_ms = 10, .system = "stub"});
  ExplorationResult result = engine.Run(source, pool->AsRunner());
  ASSERT_EQ(result.bugs.size(), 1u);
  EXPECT_EQ(result.bugs[0].kind, "hang");
  pool.reset();
  // The late finisher resets its instance and re-pools it into the state the
  // runner shares; the instance dies with the runner's last copy.
  for (int i = 0; i < 500 && destroyed.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(destroyed.load(), 1);
}

// --- the acceptance bar: warm campaigns == cold campaigns, byte for byte ----

CampaignSpec ExploreSpec(const std::string& system, const std::string& journal,
                         int workers, bool cold_start) {
  return {.system = system,
          .budget = 24,
          .seed = 7,
          .workers = workers,
          .journal_path = journal,
          .cold_start = cold_start};
}

TEST(WarmCampaign, ExploreMatchesColdStartByteForByteOnAllSystems) {
  for (const char* system : {"git", "mysql", "bind", "pbft"}) {
    SCOPED_TRACE(system);
    std::string cold_path = TempPath(StrFormat("warm_%s_cold.lfij", system));
    std::remove(cold_path.c_str());
    CampaignOutcome cold = RunSpec(ExploreSpec(system, cold_path, 1, /*cold_start=*/true));
    EXPECT_EQ(cold.pool.builds, cold.pool.runs);
    std::string cold_bytes = ReadFile(cold_path);

    for (int workers : {1, 2, 8}) {
      std::string path = TempPath(StrFormat("warm_%s_w%d.lfij", system, workers));
      std::remove(path.c_str());
      CampaignOutcome warm = RunSpec(ExploreSpec(system, path, workers, /*cold_start=*/false));
      ExpectSameOutcome(cold, warm);
      EXPECT_EQ(ReadFile(path), cold_bytes) << "workers=" << workers;
    }
  }
}

TEST(WarmCampaign, Table1MatchesColdStartIncludingSelfContainedJobs) {
  // bind and pbft exercise the self-contained job.run runners (the
  // dst_lib_init malloc sweep and the distributed fuzz phase), which plug
  // into their own pools.
  for (const char* system : {"bind", "pbft"}) {
    SCOPED_TRACE(system);
    std::string cold_path = TempPath(StrFormat("warm_t1_%s_cold.lfij", system));
    std::string warm_path = TempPath(StrFormat("warm_t1_%s_warm.lfij", system));
    std::remove(cold_path.c_str());
    std::remove(warm_path.c_str());
    CampaignSpec spec{.system = system,
                      .mode = CampaignMode::kTable1,
                      .journal_path = cold_path,
                      .cold_start = true};
    CampaignOutcome cold = RunSpec(spec);
    spec.journal_path = warm_path;
    spec.cold_start = false;
    spec.workers = 4;
    CampaignOutcome warm = RunSpec(spec);
    ExpectSameOutcome(cold, warm);
    EXPECT_EQ(ReadFile(warm_path), ReadFile(cold_path));
  }
}

TEST(WarmCampaign, EpochShardedExploreMatchesColdStart) {
  // The epoch protocol's 4-shard orchestration (spawn, merge, reseed) on top
  // of warm pools: every shard child builds its own pools, and the merged
  // journal still byte-compares against the cold single-process run.
  auto epoch_spec = [](const std::string& journal, size_t shards, bool cold_start) {
    return CampaignSpec{.system = "pbft",
                        .strategy = ExploreStrategy::kCoverage,
                        .budget = 32,
                        .seed = 7,
                        .journal_path = journal,
                        .shard_count = shards,
                        .epoch_len = 2,
                        .cold_start = cold_start};
  };
  auto remove_artifacts = [](const std::string& journal, size_t shards) {
    std::remove(journal.c_str());
    for (size_t epoch = 0; epoch < 8; ++epoch) {
      std::remove((journal + StrFormat(".epoch%zu.frontier", epoch)).c_str());
      for (size_t shard = 0; shard < shards; ++shard) {
        std::remove((journal + StrFormat(".epoch%zu.shard%zu", epoch, shard)).c_str());
      }
    }
  };
  std::string cold_path = TempPath("warm_epoch_cold.lfij");
  remove_artifacts(cold_path, 0);
  CampaignOutcome cold = RunSpec(epoch_spec(cold_path, 1, /*cold_start=*/true));
  std::string cold_bytes = ReadFile(cold_path);

  std::string warm_path = TempPath("warm_epoch_4shard.lfij");
  remove_artifacts(warm_path, 4);
  CampaignOutcome warm = RunSpec(epoch_spec(warm_path, 4, /*cold_start=*/false));
  ExpectSameOutcome(cold, warm);
  EXPECT_EQ(ReadFile(warm_path), cold_bytes);
}

TEST(WarmCampaign, ColdStartIsEnvironmentNotIdentity) {
  // Journals recorded warm and cold must resume interchangeably.
  CampaignSpec spec = ExploreSpec("git", "j.lfij", 1, /*cold_start=*/true);
  CampaignSpec cold = spec;
  CampaignSpec warm = spec;
  warm.cold_start = false;
  EXPECT_TRUE(cold.ToJournalMeta() == warm.ToJournalMeta());
}

}  // namespace
}  // namespace lfi
