// BFS, the distributed client/server filesystem target: the oracle's model
// stays consistent with the store under every recoverable fault class
// (library errors at checked sites, partial transfers on the vnet fabric,
// physical loss), the two planted Table 1 bugs surface deterministically
// (the unchecked durability-barrier fopen crashes; the inode-defer id mixup
// corrupts silently and only the remount audit sees it), and the campaign
// driver's equivalence bar holds for bfs exactly as for pbft: warm == cold
// byte-identical journals at any worker count, kill-and-resume rebuilds the
// same bytes, and the 2-shard epoch run merges to the single-process file.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/bfs/bfs.h"
#include "apps/common/campaign_driver.h"
#include "apps/common/campaign_spec.h"
#include "campaign_test_util.h"
#include "core/runtime.h"
#include "core/stock_triggers.h"
#include "util/errno_codes.h"
#include "util/string_util.h"

namespace lfi {
namespace {

class BfsTest : public ::testing::Test {
 protected:
  BfsTest() { EnsureStockTriggersRegistered(); }
  VirtualFs fs_;
};

// A scenario injecting `retval`/`errno_value` into `function` at the named
// bfs call site, via the same stack trigger the analyzer emits. With `once`
// a SingletonTrigger closes the conjunction, capping it at one injection.
Scenario SiteScenario(const char* site, const char* function, int64_t retval,
                      int errno_value, bool once) {
  const AppBinary& binary = BfsBinary();
  Scenario s;
  TriggerDecl decl;
  decl.id = "site";
  decl.class_name = "CallStackTrigger";
  auto args = std::make_unique<XmlNode>("args");
  XmlNode* frame = args->AddChild("frame");
  frame->AddChild("module")->set_text(binary.image().module_name());
  frame->AddChild("offset")->set_text(StrFormat("%x", binary.SiteOffset(site)));
  decl.set_args(std::move(args));
  s.AddTrigger(std::move(decl));
  if (once) {
    TriggerDecl one;
    one.id = "once";
    one.class_name = "SingletonTrigger";
    s.AddTrigger(std::move(one));
  }
  FunctionAssoc assoc;
  assoc.function = function;
  assoc.retval = retval;
  assoc.errno_value = errno_value;
  assoc.triggers.push_back(TriggerRef{"site", false});
  if (once) {
    assoc.triggers.push_back(TriggerRef{"once", false});
  }
  s.AddFunction(std::move(assoc));
  return s;
}

TEST_F(BfsTest, CleanWorkloadCompletesConsistently) {
  VirtualNet net(1);
  BfsConfig config;
  BfsCluster cluster(&fs_, &net, config);
  ASSERT_TRUE(cluster.Start());
  int ticks = cluster.RunWorkload(2000);
  EXPECT_LT(ticks, 2000);
  EXPECT_FALSE(cluster.crashed());
  EXPECT_TRUE(cluster.AllClientsDone());
  EXPECT_EQ(cluster.CheckConsistency(), "");
  for (int i = 0; i < config.clients; ++i) {
    EXPECT_GT(cluster.client(i).completed_ops(), 0) << "client " << i;
  }
}

// Every checked call site's recovery path absorbs a single injected fault
// without the store and the oracle's model drifting apart: retries, deferred
// rewrites, tombstones, and client-visible errors all leave a state the
// remount audit accepts.
TEST_F(BfsTest, CheckedSiteFaultsRecoverConsistently) {
  struct Fault {
    const char* site;
    const char* function;
    int64_t retval;
  };
  const Fault kFaults[] = {
      {"bfs.block.fopen", "fopen", 0},   {"bfs.block.fwrite", "fwrite", 0},
      {"bfs.block.fclose", "fclose", -1}, {"bfs.read.fopen", "fopen", 0},
      {"bfs.read.fread", "fread", 0},     {"bfs.read.fclose", "fclose", -1},
      {"bfs.inode.fwrite", "fwrite", 0},  {"bfs.meta.fopen", "fopen", 0},
      {"bfs.meta.fwrite", "fwrite", 0},   {"bfs.unlink.blocks", "unlink", -1},
      {"bfs.unlink.unlink", "unlink", -1}, {"bfs.super.fclose", "fclose", -1},
      {"bfs.server.sendto", "sendto", -1}, {"bfs.server.recvfrom", "recvfrom", -1},
  };
  for (const Fault& fault : kFaults) {
    SCOPED_TRACE(fault.site);
    VirtualFs fs;
    VirtualNet net(2);
    BfsConfig config;
    BfsCluster cluster(&fs, &net, config);
    ASSERT_TRUE(cluster.Start());
    Scenario s = SiteScenario(fault.site, fault.function, fault.retval, kEIO,
                              /*once=*/true);
    Runtime runtime(s);
    cluster.server().libc().set_interposer(&runtime);
    cluster.RunWorkload(4000);
    EXPECT_FALSE(cluster.crashed()) << cluster.crash_reason();
    EXPECT_TRUE(cluster.AllClientsDone());
    EXPECT_EQ(cluster.CheckConsistency(), "");
  }
}

TEST_F(BfsTest, PartialTransfersOnTheFabricRecoverConsistently) {
  VirtualNet net(3);
  net.set_partial_send_probability(0.25);
  net.set_partial_recv_probability(0.25);
  BfsConfig config;
  BfsCluster cluster(&fs_, &net, config);
  ASSERT_TRUE(cluster.Start());
  cluster.RunWorkload(8000);
  // The faults actually fired, and the frame layer (length prefix + CRC)
  // plus the client's retry/reconnect loop absorbed every one of them.
  EXPECT_GT(net.partial_send_count() + net.partial_recv_count(), 0u);
  EXPECT_FALSE(cluster.crashed()) << cluster.crash_reason();
  EXPECT_TRUE(cluster.AllClientsDone());
  EXPECT_EQ(cluster.CheckConsistency(), "");
}

TEST_F(BfsTest, PhysicalLossRecoversConsistently) {
  VirtualNet net(4);
  net.set_loss_probability(0.3);
  BfsConfig config;
  BfsCluster cluster(&fs_, &net, config);
  ASSERT_TRUE(cluster.Start());
  cluster.RunWorkload(8000);
  EXPECT_GT(net.dropped_count(), 0u);
  EXPECT_FALSE(cluster.crashed()) << cluster.crash_reason();
  EXPECT_TRUE(cluster.AllClientsDone());
  EXPECT_EQ(cluster.CheckConsistency(), "");
}

// Planted bug #1: the durability barrier never checks fopen, so an injected
// failure hands FWrite a NULL stream and the server dies mid-FSYNC.
TEST_F(BfsTest, SuperblockFopenBugCrashes) {
  VirtualNet net(5);
  BfsConfig config;
  BfsCluster cluster(&fs_, &net, config);
  ASSERT_TRUE(cluster.Start());
  Scenario s = SiteScenario("bfs.super.fopen", "fopen", 0, kEINVAL, /*once=*/false);
  Runtime runtime(s);
  cluster.server().libc().set_interposer(&runtime);
  cluster.RunWorkload(4000);
  EXPECT_TRUE(cluster.crashed());
  EXPECT_NE(cluster.crash_reason().find("fwrite"), std::string::npos)
      << cluster.crash_reason();
}

// Planted bug #2: a failed inode write defers the rewrite under the client's
// connection handle instead of the inode number; SyncMeta() skips ids it
// does not recognize, so the store silently keeps the stale inode while
// every client gets its ACK. Nothing crashes, all clients finish -- only the
// remount audit sees the divergence.
TEST_F(BfsTest, InodeDeferBugCorruptsSilently) {
  VirtualNet net(6);
  BfsConfig config;
  BfsCluster cluster(&fs_, &net, config);
  ASSERT_TRUE(cluster.Start());
  Scenario s = SiteScenario("bfs.inode.fopen", "fopen", 0, kEIO, /*once=*/false);
  Runtime runtime(s);
  cluster.server().libc().set_interposer(&runtime);
  cluster.RunWorkload(4000);
  EXPECT_FALSE(cluster.crashed()) << cluster.crash_reason();
  EXPECT_TRUE(cluster.AllClientsDone());
  EXPECT_TRUE(cluster.Coverage().WasHit("bfs.inode.defer"));
  EXPECT_NE(cluster.CheckConsistency(), "");
}

// --- the campaign driver's equivalence bar, for bfs -------------------------

void RemoveEpochArtifacts(const std::string& journal, size_t shards) {
  std::remove(journal.c_str());
  for (size_t epoch = 0; epoch < 8; ++epoch) {
    std::remove((journal + StrFormat(".epoch%zu.frontier", epoch)).c_str());
    for (size_t shard = 0; shard < shards; ++shard) {
      std::remove((journal + StrFormat(".epoch%zu.shard%zu", epoch, shard)).c_str());
    }
  }
}

CampaignSpec BfsEpochSpec(const std::string& journal, size_t shards, int workers = 1) {
  CampaignSpec spec;
  spec.system = "bfs";
  spec.mode = CampaignMode::kExplore;
  spec.strategy = ExploreStrategy::kCoverage;
  spec.budget = 32;
  spec.seed = 7;
  spec.workers = workers;
  spec.epoch_len = 2;
  spec.journal_path = journal;
  spec.shard_count = shards;
  return spec;
}

std::optional<CampaignOutcome> RunDriver(CampaignSpec spec, std::string* error) {
  CampaignDriver driver(std::move(spec));
  return driver.Run(error);
}

void ExpectSameOutcome(const CampaignOutcome& a, const CampaignOutcome& b) {
  ASSERT_EQ(a.bugs.size(), b.bugs.size());
  for (size_t i = 0; i < a.bugs.size(); ++i) {
    EXPECT_EQ(a.bugs[i].system, b.bugs[i].system) << i;
    EXPECT_EQ(a.bugs[i].kind, b.bugs[i].kind) << i;
    EXPECT_EQ(a.bugs[i].where, b.bugs[i].where) << i;
    EXPECT_EQ(a.bugs[i].injected, b.bugs[i].injected) << i;
  }
  CoverageMap::Stats sa = a.coverage.ComputeStats();
  CoverageMap::Stats sb = b.coverage.ComputeStats();
  EXPECT_EQ(sa.covered_recovery_blocks, sb.covered_recovery_blocks);
  EXPECT_EQ(sa.covered_blocks, sb.covered_blocks);
  EXPECT_EQ(a.scenarios_run, b.scenarios_run);
}

TEST(BfsCampaign, WarmColdAndWorkerCountsAreByteIdentical) {
  std::string base_path = TempPath("bfs_explore_base.lfij");
  std::string error;
  RemoveEpochArtifacts(base_path, 0);
  auto base = RunDriver(BfsEpochSpec(base_path, 1), &error);
  ASSERT_TRUE(base.has_value()) << error;
  EXPECT_FALSE(base->bugs.empty());
  std::string base_bytes = ReadFile(base_path);

  // Ablation: every job against a freshly built cluster instead of the warm
  // snapshot/reset pool. Same journal, byte for byte.
  std::string cold_path = TempPath("bfs_explore_cold.lfij");
  RemoveEpochArtifacts(cold_path, 0);
  CampaignSpec cold = BfsEpochSpec(cold_path, 1);
  cold.cold_start = true;
  auto cold_outcome = RunDriver(cold, &error);
  ASSERT_TRUE(cold_outcome.has_value()) << error;
  ExpectSameOutcome(*base, *cold_outcome);
  EXPECT_EQ(ReadFile(cold_path), base_bytes);

  for (int workers : {2, 8}) {
    std::string path = TempPath(StrFormat("bfs_explore_w%d.lfij", workers).c_str());
    RemoveEpochArtifacts(path, 0);
    auto outcome = RunDriver(BfsEpochSpec(path, 1, workers), &error);
    ASSERT_TRUE(outcome.has_value()) << error;
    ExpectSameOutcome(*base, *outcome);
    EXPECT_EQ(ReadFile(path), base_bytes) << "workers=" << workers;
  }
}

TEST(BfsCampaign, TwoShardEpochRunMatchesSingleProcess) {
  std::string single_path = TempPath("bfs_epoch_single.lfij");
  std::string error;
  RemoveEpochArtifacts(single_path, 0);
  auto single = RunDriver(BfsEpochSpec(single_path, 1), &error);
  ASSERT_TRUE(single.has_value()) << error;
  std::string single_bytes = ReadFile(single_path);

  std::string dist_path = TempPath("bfs_epoch_dist.lfij");
  RemoveEpochArtifacts(dist_path, 2);
  auto distributed = RunDriver(BfsEpochSpec(dist_path, 2), &error);
  ASSERT_TRUE(distributed.has_value()) << error;
  ExpectSameOutcome(*single, *distributed);
  EXPECT_EQ(distributed->shards.size(), 2u);
  EXPECT_EQ(ReadFile(dist_path), single_bytes);
}

TEST(BfsCampaign, ResumeAfterKillRebuildsIdenticalBytes) {
  std::string path = TempPath("bfs_epoch_resume.lfij");
  std::string error;
  RemoveEpochArtifacts(path, 2);
  auto full = RunDriver(BfsEpochSpec(path, 2), &error);
  ASSERT_TRUE(full.has_value()) << error;
  std::string full_bytes = ReadFile(path);

  // Tear the merged journal mid-file; the sealed per-epoch shard journals
  // survive, and resume rebuilds the merged bytes without rerunning the
  // completed epochs.
  {
    std::ofstream torn(path, std::ios::binary | std::ios::trunc);
    torn.write(full_bytes.data(), static_cast<std::streamsize>(full_bytes.size() / 2));
  }
  CampaignSpec resume;
  resume.mode = CampaignMode::kResume;
  resume.journal_path = path;
  resume.shard_count = 2;
  auto resumed = RunDriver(resume, &error);
  ASSERT_TRUE(resumed.has_value()) << error;
  ExpectSameOutcome(*full, *resumed);
  EXPECT_EQ(ReadFile(path), full_bytes);
}

}  // namespace
}  // namespace lfi
