#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "apps/pbft/pbft.h"
#include "core/controller.h"
#include "core/distributed.h"
#include "core/runtime.h"
#include "core/stock_triggers.h"
#include "util/errno_codes.h"
#include "util/string_util.h"

namespace lfi {
namespace {

class PbftTest : public ::testing::Test {
 protected:
  PbftTest() { EnsureStockTriggersRegistered(); }
  VirtualFs fs_;
};

TEST_F(PbftTest, ServesRequestsWithoutFaults) {
  VirtualNet net(1);
  PbftConfig config;
  PbftCluster cluster(&fs_, &net, config);
  ASSERT_TRUE(cluster.Start());
  int ticks = cluster.RunWorkload(/*requests=*/20, /*max_ticks=*/2000);
  EXPECT_EQ(cluster.client().completed(), 20);
  EXPECT_LT(ticks, 2000);
  EXPECT_FALSE(cluster.crashed());
  // All replicas execute all requests in the same order (state digests agree).
  for (int i = 0; i < cluster.n(); ++i) {
    EXPECT_GE(cluster.replica(i).executed(), 20);
  }
}

TEST_F(PbftTest, ReplicasAgreeOnExecutionCount) {
  VirtualNet net(2);
  PbftConfig config;
  PbftCluster cluster(&fs_, &net, config);
  ASSERT_TRUE(cluster.Start());
  cluster.RunWorkload(10, 2000);
  int64_t executed = cluster.replica(0).executed();
  for (int i = 1; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.replica(i).executed(), executed);
  }
}

TEST_F(PbftTest, PeriodicCheckpointsWritten) {
  VirtualNet net(3);
  PbftConfig config;
  config.checkpoint_interval = 8;
  PbftCluster cluster(&fs_, &net, config);
  ASSERT_TRUE(cluster.Start());
  cluster.RunWorkload(10, 3000);
  EXPECT_TRUE(fs_.FileExists("/pbft/replica0.ckpt"));
}

TEST_F(PbftTest, SurvivesModeratePhysicalLoss) {
  VirtualNet net(4);
  net.set_loss_probability(0.2);
  PbftConfig config;
  PbftCluster cluster(&fs_, &net, config);
  ASSERT_TRUE(cluster.Start());
  cluster.RunWorkload(10, 8000);
  EXPECT_EQ(cluster.client().completed(), 10);
  EXPECT_FALSE(cluster.crashed());
}

TEST_F(PbftTest, LossSlowsThroughputMonotonically) {
  auto ticks_for = [&](double loss) {
    VirtualFs fs;
    VirtualNet net(7);
    net.set_loss_probability(loss);
    PbftConfig config;
    PbftCluster cluster(&fs, &net, config);
    EXPECT_TRUE(cluster.Start());
    return cluster.RunWorkload(15, 50000);
  };
  int base = ticks_for(0.0);
  int heavy = ticks_for(0.8);
  EXPECT_GT(heavy, base);
}

TEST_F(PbftTest, ShutdownWritesFinalCheckpoint) {
  VirtualNet net(5);
  PbftConfig config;
  PbftCluster cluster(&fs_, &net, config);
  ASSERT_TRUE(cluster.Start());
  cluster.RunWorkload(5, 2000);
  cluster.replica(1).Shutdown();
  EXPECT_TRUE(fs_.FileExists("/pbft/replica1.final"));
}

TEST_F(PbftTest, ShutdownFopenBugCrashes) {
  VirtualNet net(6);
  PbftConfig config;
  PbftCluster cluster(&fs_, &net, config);
  ASSERT_TRUE(cluster.Start());
  cluster.RunWorkload(5, 2000);

  const AppBinary& binary = PbftBinary();
  Scenario s;
  TriggerDecl decl;
  decl.id = "site";
  decl.class_name = "CallStackTrigger";
  auto args = std::make_unique<XmlNode>("args");
  XmlNode* frame = args->AddChild("frame");
  frame->AddChild("module")->set_text(binary.image().module_name());
  frame->AddChild("offset")->set_text(StrFormat("%x", binary.SiteOffset("pbft.shutdown.fopen")));
  decl.args = std::shared_ptr<XmlNode>(args.release());
  s.AddTrigger(std::move(decl));
  FunctionAssoc assoc;
  assoc.function = "fopen";
  assoc.retval = 0;
  assoc.errno_value = kEINVAL;
  assoc.triggers.push_back(TriggerRef{"site", false});
  s.AddFunction(std::move(assoc));

  TestController controller(s);
  TestOutcome outcome = controller.RunTest(&cluster.replica(0).libc(), [&] {
    cluster.replica(0).Shutdown();
    return true;
  });
  EXPECT_EQ(outcome.status, ExitStatus::kCrash);
  EXPECT_NE(outcome.crash_where.find("fwrite"), std::string::npos);
}

// The release/debug asymmetry of the view-change bug.
class PbftViewChangeBug : public ::testing::TestWithParam<bool> {};

TEST_P(PbftViewChangeBug, DebugBuildHaltsReleaseBuildCrashes) {
  bool debug_build = GetParam();
  bool saw_release_crash = false;
  bool saw_debug_halt = false;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    VirtualFs fs;
    VirtualNet net(seed);
    PbftConfig config;
    config.debug_build = debug_build;
    PbftCluster cluster(&fs, &net, config);
    ASSERT_TRUE(cluster.Start());

    Scenario dist;
    TriggerDecl decl;
    decl.id = "dist";
    decl.class_name = "DistributedTrigger";
    dist.AddTrigger(decl);
    for (const char* fn : {"sendto", "recvfrom"}) {
      FunctionAssoc assoc;
      assoc.function = fn;
      assoc.retval = -1;
      assoc.errno_value = kEIO;
      assoc.triggers.push_back(TriggerRef{"dist", false});
      dist.AddFunction(assoc);
    }
    RandomLossController controller(0.35, seed);
    std::vector<std::unique_ptr<Runtime>> runtimes;
    for (int i = 0; i < cluster.n(); ++i) {
      cluster.replica(i).libc().SetService(DistributedController::kServiceName, &controller);
      runtimes.push_back(std::make_unique<Runtime>(dist));
      cluster.replica(i).libc().set_interposer(runtimes.back().get());
    }
    cluster.RunWorkload(30, 4000);
    if (cluster.crashed()) {
      EXPECT_FALSE(debug_build) << "debug build must not crash: "
                                << cluster.crash_reason();
      saw_release_crash = true;
      break;
    }
    for (int i = 0; i < cluster.n(); ++i) {
      if (cluster.replica(i).halted()) {
        saw_debug_halt = true;
      }
    }
    if (debug_build && saw_debug_halt) {
      break;
    }
  }
  if (debug_build) {
    EXPECT_TRUE(saw_debug_halt);
  } else {
    EXPECT_TRUE(saw_release_crash);
  }
}

INSTANTIATE_TEST_SUITE_P(Builds, PbftViewChangeBug, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "debug" : "release";
                         });

TEST_F(PbftTest, ViewChangeReplacesPrimary) {
  // Black out the primary's communication entirely: the backups elect a new
  // primary and the system keeps serving requests.
  VirtualNet net(8);
  PbftConfig config;
  PbftCluster cluster(&fs_, &net, config);
  ASSERT_TRUE(cluster.Start());

  Scenario dist;
  TriggerDecl decl;
  decl.id = "dist";
  decl.class_name = "DistributedTrigger";
  dist.AddTrigger(decl);
  for (const char* fn : {"sendto", "recvfrom"}) {
    FunctionAssoc assoc;
    assoc.function = fn;
    assoc.retval = -1;
    assoc.errno_value = kEIO;
    assoc.triggers.push_back(TriggerRef{"dist", false});
    dist.AddFunction(assoc);
  }
  BlackoutController controller("replica0");
  std::vector<std::unique_ptr<Runtime>> runtimes;
  for (int i = 0; i < cluster.n(); ++i) {
    cluster.replica(i).libc().SetService(DistributedController::kServiceName, &controller);
    runtimes.push_back(std::make_unique<Runtime>(dist));
    cluster.replica(i).libc().set_interposer(runtimes.back().get());
  }
  cluster.RunWorkload(10, 8000);
  EXPECT_GE(cluster.client().completed(), 10);
  EXPECT_GT(cluster.replica(1).view(), 0);  // a view change happened
}


// --- hostile datagrams ---------------------------------------------------------

// Datagrams are bytes from another process. Every truncation and field-level
// garbling of a well-formed message must be survivable -- no undefined
// behaviour under ASan/UBSan -- and the intact message must still be acted on.
class PbftHostileDatagrams : public ::testing::Test {
 protected:
  static constexpr int kR0 = kPbftBasePort, kR1 = kPbftBasePort + 1, kR2 = kPbftBasePort + 2,
                       kR3 = kPbftBasePort + 3;

  PbftHostileDatagrams() : net_(1), cluster_(&fs_, &net_, PbftConfig()) {
    EXPECT_TRUE(cluster_.Start());
    snapshot_ = cluster_.TakeSnapshot();
    net_snapshot_ = net_.TakeSnapshot();
  }

  // Back to the just-started cluster: view 0, nothing in flight. With
  // `client_waiting` the client has request 1 outstanding (and lost).
  void Reset(bool client_waiting) {
    ASSERT_TRUE(cluster_.Restore(snapshot_));
    if (client_waiting) {
      cluster_.client().Step();
    }
    net_.Restore(net_snapshot_);
  }

  // Delivers `payload` from `src` (an authenticated peer port) to `dst`,
  // steps the destination once, and makes whatever it sent receivable.
  void Deliver(int src, int dst, std::string_view payload) {
    net_.Send(src, dst, std::string(payload));
    net_.AdvanceTick();
    if (dst == kPbftClientPort) {
      cluster_.client().Step();
    } else {
      cluster_.replica(dst - kPbftBasePort).Step();
    }
    net_.AdvanceTick();
  }

  // Datagrams now queued anywhere on the fabric.
  size_t Traffic() const {
    size_t n = 0;
    for (int port = kPbftClientPort; port <= kR3; ++port) {
      n += net_.QueueDepth(port);
    }
    return n;
  }

  VirtualFs fs_;
  VirtualNet net_;
  PbftCluster cluster_;
  PbftCluster::Snapshot snapshot_;
  VirtualNet::Snapshot net_snapshot_;
};

TEST_F(PbftHostileDatagrams, TruncatedAndGarbledMessagesAreSurvived) {
  const std::string d = "abcdef0123456789";
  struct Message {
    std::string text;
    int src;
    int dst;
    std::set<size_t> numeric;  // fields the receiver parses as numbers
  };
  const std::vector<Message> messages = {
      {"REQ|0|1#8999#op|8999|0", kPbftClientPort, kR0, {3}},
      {"PP|0|1|" + d + "|1#8999#op", kR0, kR1, {1, 2}},
      {"P|0|0|" + d + "|2", kR2, kR1, {1, 2, 4}},
      {"C|0|0|" + d + "|2", kR2, kR1, {1, 2, 4}},
      {"FETCH|0|2", kR2, kR1, {1, 2}},
      {"STATE|16|" + d + "|0", kR2, kR1, {1, 3}},
      {"VC|1|2", kR2, kR1, {1, 2}},
      {"NV|1|1:" + d + ":1#8999#op;", kR1, kR2, {1}},
      {"REPLY|0|1|0|" + d, kR0, kPbftClientPort, {2, 3}},
  };
  // Neither a message type nor a number the protocol could carry.
  const std::vector<std::string> rejected = {"",   "x",          "-",
                                             " ",  "1x",         "0x",
                                             "-1", "2147483647", "9223372036854775807",
                                             "99999999999999999999"};
  for (const Message& m : messages) {
    bool to_client = m.dst == kPbftClientPort;
    for (size_t k = 0; k < m.text.size(); ++k) {
      Reset(to_client);
      Deliver(m.src, m.dst, std::string_view(m.text).substr(0, k));
    }
    std::vector<std::string> fields = Split(m.text, '|');
    for (size_t i = 0; i < fields.size(); ++i) {
      for (const std::string& junk : rejected) {
        std::vector<std::string> garbled = fields;
        garbled[i] = junk;
        Reset(to_client);
        Deliver(m.src, m.dst, Join(garbled, "|"));
        if (i == 0 || m.numeric.count(i) != 0) {
          // Unknown type or unusable number: dropped whole, nothing sent.
          EXPECT_EQ(Traffic(), 0u) << Join(garbled, "|");
        }
      }
      for (const char* junk : {"1|2", "||"}) {
        std::vector<std::string> garbled = fields;
        garbled[i] = junk;
        Reset(to_client);
        Deliver(m.src, m.dst, Join(garbled, "|"));
      }
    }
  }
}

TEST_F(PbftHostileDatagrams, WholeMessagesAreActedOn) {
  const std::string d = "abcdef0123456789";
  // REQ to the primary: ordered and pre-prepared to every backup.
  Reset(false);
  Deliver(kPbftClientPort, kR0, "REQ|0|1#8999#op|8999|0");
  EXPECT_GE(net_.QueueDepth(kR1), 1u);
  // PP to a backup: it multicasts its PREPARE.
  Reset(false);
  Deliver(kR0, kR1, "PP|0|1|" + d + "|1#8999#op");
  EXPECT_GE(net_.QueueDepth(kR2), 1u);
  // P, C and FETCH for a sequence at or below the stable checkpoint: the
  // lagging sender is answered with a state transfer.
  for (const std::string& lagging :
       {"P|0|0|" + d + "|2", "C|0|0|" + d + "|2", std::string("FETCH|0|2")}) {
    Reset(false);
    Deliver(kR2, kR1, lagging);
    EXPECT_EQ(net_.QueueDepth(kR2), 1u) << lagging;
  }
  // STATE ahead of ours: adopted.
  Reset(false);
  Deliver(kR2, kR1, "STATE|16|" + d + "|0");
  EXPECT_EQ(cluster_.replica(1).executed(), 16);
  // VIEW-CHANGE votes from 2f+1 replicas: the view changes.
  Reset(false);
  Deliver(kR0, kR1, "VC|1|0");
  Deliver(kR2, kR1, "VC|1|2");
  Deliver(kR3, kR1, "VC|1|3");
  EXPECT_EQ(cluster_.replica(1).view(), 1);
  // NEW-VIEW from the new primary: adopted, the carried request re-prepared.
  Reset(false);
  Deliver(kR1, kR2, "NV|1|1:" + d + ":1#8999#op;");
  EXPECT_EQ(cluster_.replica(2).view(), 1);
  EXPECT_GE(net_.QueueDepth(kR3), 1u);
  // f+1 matching REPLYs complete the client's outstanding request.
  Reset(true);
  Deliver(kR0, kPbftClientPort, "REPLY|0|1|0|" + d);
  Deliver(kR1, kPbftClientPort, "REPLY|0|1|1|" + d);
  EXPECT_EQ(cluster_.client().completed(), 1);
}

}  // namespace
}  // namespace lfi
