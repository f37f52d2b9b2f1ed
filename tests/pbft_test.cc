#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "apps/pbft/pbft.h"
#include "apps/pbft/wire.h"
#include "core/controller.h"
#include "core/distributed.h"
#include "core/runtime.h"
#include "core/stock_triggers.h"
#include "util/errno_codes.h"
#include "util/rng.h"
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
  decl.set_args(std::move(args));
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

// Only replica 0 is interposed in a campaign, so no journal sees how
// replicas 1-3 and the client behave: their traffic reaches a journal only
// through replica 0's call counts. Pin that traffic directly -- the ticks a
// seeded 20-request workload takes, every datagram the fabric carried or
// lost, and each process's progress -- at three physical-loss rates.
TEST(PbftTraffic, SeededWorkloadsMoveExactlyThePinnedTraffic) {
  struct Pin {
    double loss;
    uint64_t seed;
    const char* traffic;  // ticks delivered dropped completed | view changes | executions
  };
  const Pin kPins[] = {
      {0.0, 1, "101 4767 0 20 | 0 0 0 0 | 20 20 20 20"},
      {0.0, 2, "101 4767 0 20 | 0 0 0 0 | 20 20 20 20"},
      {0.0, 3, "101 4767 0 20 | 0 0 0 0 | 20 20 20 20"},
      {0.2, 1, "133 1127 293 20 | 0 0 0 0 | 20 20 20 20"},
      {0.2, 2, "150 1587 364 20 | 0 0 0 0 | 20 20 20 20"},
      {0.2, 3, "142 1283 314 20 | 0 0 0 0 | 20 20 20 20"},
      {0.5, 1, "331 1023 1105 20 | 2 2 2 2 | 21 21 21 21"},
      {0.5, 2, "338 1054 1017 20 | 1 1 1 1 | 20 20 20 20"},
      {0.5, 3, "304 1022 987 20 | 1 1 1 1 | 20 20 20 20"},
  };
  for (const Pin& pin : kPins) {
    VirtualFs fs;
    VirtualNet net(pin.seed);
    net.set_loss_probability(pin.loss);
    PbftCluster cluster(&fs, &net, PbftConfig());
    ASSERT_TRUE(cluster.Start());
    int ticks = cluster.RunWorkload(20, 3000);
    std::string traffic = StrFormat("%d %llu %llu %d |", ticks,
                                    static_cast<unsigned long long>(net.delivered_count()),
                                    static_cast<unsigned long long>(net.dropped_count()),
                                    cluster.client().completed());
    for (int i = 0; i < cluster.n(); ++i) {
      traffic += StrFormat(" %d", cluster.replica(i).view_changes());
    }
    traffic += " |";
    for (int i = 0; i < cluster.n(); ++i) {
      traffic += StrFormat(" %lld", static_cast<long long>(cluster.replica(i).executed()));
    }
    EXPECT_FALSE(cluster.crashed());
    EXPECT_EQ(traffic, pin.traffic) << "loss " << pin.loss << ", seed " << pin.seed;
  }
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
    net_.Send(src, dst, payload);
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

// A replica id is a wire number like any other, so an authenticated peer may
// name any id up to kMaxWireNumber. Each distinct id is one vote, however
// large, and a repeated id is not a second one.
TEST_F(PbftHostileDatagrams, VotesNamingLargeReplicaIdsCountOnce) {
  const std::string d = "abcdef0123456789";
  const int64_t kHuge = pbft_wire::kMaxWireNumber;
  const std::vector<std::vector<int64_t>> kIdSets = {
      {63, 64, 1000}, {64, 1000, kHuge}, {1000, kHuge, 63}};
  for (const std::vector<int64_t>& ids : kIdSets) {
    SCOPED_TRACE(StrFormat("ids %lld %lld %lld", static_cast<long long>(ids[0]),
                           static_cast<long long>(ids[1]), static_cast<long long>(ids[2])));
    auto vote = [&](const char* type, int64_t id) {
      return StrFormat("%s|0|1|%s|%lld", type, d.c_str(), static_cast<long long>(id));
    };
    // Prepares: the second distinct id makes 2f and the replica commits.
    Reset(false);
    Deliver(kR2, kR1, vote("P", ids[0]));
    Deliver(kR3, kR1, vote("P", ids[0]));
    EXPECT_EQ(Traffic(), 0u);
    Deliver(kR3, kR1, vote("P", ids[1]));
    EXPECT_EQ(net_.QueueDepth(kR2), 1u);  // its COMMIT
    // Commits: the replica's own plus two distinct ids make 2f+1.
    Reset(false);
    Deliver(kR0, kR1, "PP|0|1|" + d + "|1#8999#op");
    Deliver(kR2, kR1, vote("C", ids[0]));
    Deliver(kR3, kR1, vote("C", ids[0]));
    EXPECT_EQ(cluster_.replica(1).executed(), 0);
    Deliver(kR3, kR1, vote("C", ids[1]));
    EXPECT_EQ(cluster_.replica(1).executed(), 1);
    // View-change votes: three distinct ids make 2f+1.
    Reset(false);
    Deliver(kR0, kR1, StrFormat("VC|1|%lld", static_cast<long long>(ids[0])));
    Deliver(kR2, kR1, StrFormat("VC|1|%lld", static_cast<long long>(ids[0])));
    Deliver(kR2, kR1, StrFormat("VC|1|%lld", static_cast<long long>(ids[1])));
    EXPECT_EQ(cluster_.replica(1).view(), 0);
    Deliver(kR3, kR1, StrFormat("VC|1|%lld", static_cast<long long>(ids[2])));
    EXPECT_EQ(cluster_.replica(1).view(), 1);
    // Replies: two distinct ids make f+1.
    Reset(true);
    auto reply = [&](int64_t id) {
      return StrFormat("REPLY|0|1|%lld|%s", static_cast<long long>(id), d.c_str());
    };
    Deliver(kR0, kPbftClientPort, reply(ids[0]));
    Deliver(kR1, kPbftClientPort, reply(ids[0]));
    EXPECT_EQ(cluster_.client().completed(), 0);
    Deliver(kR2, kPbftClientPort, reply(ids[1]));
    EXPECT_EQ(cluster_.client().completed(), 1);
  }
}

// Sequence numbers are wire numbers too: a message naming the largest one
// adds one log entry for it, whatever else the log holds.
TEST_F(PbftHostileDatagrams, FarSequenceAddsOneLogEntry) {
  const std::string d = "abcdef0123456789";
  auto log_size = [&](int replica) {
    return cluster_.TakeSnapshot().replicas[static_cast<size_t>(replica)].log.size();
  };
  const std::string kFar = std::to_string(pbft_wire::kMaxWireNumber);
  const std::vector<std::pair<int, std::string>> kMessages = {
      {kR0, "PP|0|" + kFar + "|" + d + "|1#8999#op"},
      {kR2, "P|0|" + kFar + "|" + d + "|2"},
      {kR2, "C|0|" + kFar + "|" + d + "|2"},
  };
  for (const auto& [src, msg] : kMessages) {
    Reset(false);
    EXPECT_EQ(log_size(1), 0u);
    Deliver(src, kR1, msg);
    EXPECT_EQ(log_size(1), 1u) << msg;
    Deliver(src, kR1, msg);
    EXPECT_EQ(log_size(1), 1u) << msg;
    // Next to a near sequence, on either side of it in arrival order.
    Deliver(kR0, kR1, "PP|0|1|" + d + "|1#8999#op");
    EXPECT_EQ(log_size(1), 2u) << msg;
    Deliver(kR0, kR1, "PP|0|2|" + d + "|2#8999#op");
    EXPECT_EQ(log_size(1), 3u) << msg;
  }
}

// A stable checkpoint drops every entry at or below it and keeps every entry
// above it, near or far, with its payload: a FETCH for a kept sequence is
// still answered with its PRE-PREPARE, one below it with a state transfer.
TEST_F(PbftHostileDatagrams, CheckpointTruncatesTheLogAtTheStableSequence) {
  Reset(false);
  auto log_size = [&] { return cluster_.TakeSnapshot().replicas[1].log.size(); };
  auto digest = [](int64_t seq) { return StrFormat("%016lld", static_cast<long long>(seq)); };
  auto pre_prepare = [&](int64_t seq) {
    return StrFormat("PP|0|%lld|%s|%lld#8999#op", static_cast<long long>(seq),
                     digest(seq).c_str(), static_cast<long long>(seq));
  };
  const int64_t kKept[] = {17, 18, 40, pbft_wire::kMaxWireNumber};
  for (int64_t seq : kKept) {
    Deliver(kR0, kR1, pre_prepare(seq));
  }
  // Sequences 1-16, each committed by two more replicas and executed; the
  // 16th execution is the first checkpoint.
  for (int64_t seq = 1; seq <= 16; ++seq) {
    Deliver(kR0, kR1, pre_prepare(seq));
    for (int voter : {2, 3}) {
      Deliver(kPbftBasePort + voter, kR1,
              StrFormat("C|0|%lld|%s|%d", static_cast<long long>(seq), digest(seq).c_str(),
                        voter));
    }
    ASSERT_EQ(cluster_.replica(1).executed(), seq);
    EXPECT_EQ(log_size(), seq < 16 ? 4u + static_cast<size_t>(seq) : 4u) << "seq " << seq;
  }
  auto answers = [&](const std::string& fetch) {
    std::vector<std::string> received;
    char buf[2048];
    while (net_.Receive(kR2, buf, sizeof buf, nullptr) >= 0) {
    }
    Deliver(kR2, kR1, fetch);
    long n;
    while ((n = net_.Receive(kR2, buf, sizeof buf, nullptr)) >= 0) {
      received.emplace_back(buf, static_cast<size_t>(n));
    }
    return received;
  };
  auto holds_prefix = [](const std::vector<std::string>& msgs, const std::string& prefix) {
    return std::any_of(msgs.begin(), msgs.end(),
                       [&](const std::string& m) { return m.rfind(prefix, 0) == 0; });
  };
  for (int64_t seq : kKept) {
    std::string prefix = StrFormat("PP|0|%lld|", static_cast<long long>(seq));
    EXPECT_TRUE(holds_prefix(answers(StrFormat("FETCH|%lld|2", static_cast<long long>(seq))),
                             prefix))
        << prefix;
  }
  for (int64_t seq : {1, 16}) {
    std::vector<std::string> got = answers(StrFormat("FETCH|%d|2", static_cast<int>(seq)));
    EXPECT_TRUE(holds_prefix(got, "STATE|16|")) << "seq " << seq;
    EXPECT_FALSE(holds_prefix(got, "PP|")) << "seq " << seq;
  }
}

// --- wire codec ----------------------------------------------------------------

// The bytes of one outgoing message.
template <typename... Fields>
std::string WireBytes(const Fields&... fields) {
  return std::string(pbft_wire::Wire(fields...).view());
}

TEST(PbftWire, EveryMessageShapeIsByteEqualToItsPrintfForm) {
  using pbft_wire::AppendJoined;
  const std::vector<int> ints = {0, 1, INT_MAX, -1, INT_MIN};
  const std::vector<int64_t> seqs = {0, 1, INT64_MAX, INT64_MIN};
  // %s of a c_str() and %.*s of a view both stop at the first NUL.
  const std::vector<std::string> texts = {"", "abcdef0123456789", std::string("ab\0cd", 5),
                                          std::string(300, 'z'), "7#8999#op"};
  for (int v : ints) {
    for (int64_t seq : seqs) {
      const long long lseq = seq;
      for (const std::string& t : texts) {
        const std::string_view view = t;
        const int len = static_cast<int>(view.size());
        EXPECT_EQ(WireBytes("C", v, seq, t, v),
                  StrFormat("C|%d|%lld|%s|%d", v, lseq, t.c_str(), v));
        EXPECT_EQ(WireBytes("C", v, seq, view, v),
                  StrFormat("C|%d|%lld|%.*s|%d", v, lseq, len, view.data(), v));
        EXPECT_EQ(WireBytes("P", v, seq, t, v),
                  StrFormat("P|%d|%lld|%s|%d", v, lseq, t.c_str(), v));
        EXPECT_EQ(WireBytes("P", v, seq, view, v),
                  StrFormat("P|%d|%lld|%.*s|%d", v, lseq, len, view.data(), v));
        EXPECT_EQ(WireBytes("PP", v, seq, t, t),
                  StrFormat("PP|%d|%lld|%s|%s", v, lseq, t.c_str(), t.c_str()));
        EXPECT_EQ(WireBytes("REPLY", v, view, v, t),
                  StrFormat("REPLY|%d|%.*s|%d|%s", v, len, view.data(), v, t.c_str()));
        EXPECT_EQ(WireBytes("REQ", 0, view, v, 1),
                  StrFormat("REQ|0|%.*s|%d|1", len, view.data(), v));
        EXPECT_EQ(WireBytes("REQ", 0, t, v, 0), StrFormat("REQ|0|%s|%d|0", t.c_str(), v));
        EXPECT_EQ(WireBytes("STATE", seq, t, v),
                  StrFormat("STATE|%lld|%s|%d", lseq, t.c_str(), v));
        EXPECT_EQ(WireBytes("NV", v, t), StrFormat("NV|%d|%s", v, t.c_str()));
        std::string carried = "1:x:y;";
        AppendJoined(&carried, ':', seq, t, t);
        carried.push_back(';');
        EXPECT_EQ(carried, "1:x:y;" + StrFormat("%lld:%s:%s;", lseq, t.c_str(), t.c_str()));
      }
      EXPECT_EQ(WireBytes("FETCH", seq, v), StrFormat("FETCH|%lld|%d", lseq, v));
      std::string payload;
      AppendJoined(&payload, '#', seq, v, "op");
      EXPECT_EQ(payload, StrFormat("%lld#%d#op", lseq, v));
    }
    for (int w : ints) {
      EXPECT_EQ(WireBytes("VC", v, w), StrFormat("VC|%d|%d", v, w));
      EXPECT_EQ(WireBytes("pbft-session-key", v, w),
                StrFormat("pbft-session-key|%d|%d", v, w));
    }
  }
}

// What WireNumber accepted before it had a fast path: ParseInt within the cap.
std::optional<int64_t> ParseIntWireNumber(std::string_view field) {
  std::optional<int64_t> v = ParseInt(field);
  if (!v || *v < 0 || *v > pbft_wire::kMaxWireNumber) {
    return std::nullopt;
  }
  return v;
}

TEST(PbftWire, WireNumberFastPathAgreesWithParseInt) {
  using pbft_wire::WireNumber;
  const std::vector<std::pair<std::string, std::optional<int64_t>>> hostile = {
      {"", std::nullopt},
      {"0", 0},
      {"007", 7},
      {"1073741824", 1073741824},
      {"1073741825", std::nullopt},
      {"9999999999", std::nullopt},
      {"12345678901", std::nullopt},
      {"0x10", 16},
      {" 7", 7},
      {"7 ", 7},
      {"+3", 3},
      {"-0", 0},
      {std::string("1\0", 2), 1},
      {"-1", std::nullopt},
      {"1x", std::nullopt},
  };
  for (const auto& [field, want] : hostile) {
    EXPECT_EQ(WireNumber(field), want) << "field \"" << field << "\"";
    EXPECT_EQ(WireNumber(field), ParseIntWireNumber(field)) << "field \"" << field << "\"";
  }
  // Every field of up to three characters over an alphabet of digits, signs,
  // blanks, hex markers and NUL.
  const std::string alphabet("019x +-a\0", 9);
  std::vector<std::string> fields = {""};
  for (size_t begin = 0, length = 0; length < 3; ++length) {
    size_t end = fields.size();
    for (size_t i = begin; i < end; ++i) {
      for (char c : alphabet) {
        fields.push_back(fields[i] + c);
      }
    }
    begin = end;
  }
  for (const std::string& field : fields) {
    EXPECT_EQ(WireNumber(field), ParseIntWireNumber(field)) << "field \"" << field << "\"";
  }
}

// --- one-pass decode against the split decode ----------------------------------

// The decode DecodeWire replaced, kept as its oracle: split the datagram at
// every '|', compare the type against each tag in turn, and parse each
// numeric field with WireNumber -- what PbftReplica::HandleMessage and
// PbftClient::Step did, mapped onto the fields DecodeWire reports.
pbft_wire::WireFields SplitDecode(std::string_view msg) {
  using pbft_wire::WireNumber;
  using pbft_wire::WireType;
  std::string_view parts[5];
  size_t count = SplitViews(msg, '|', parts);
  std::string_view type = parts[0];
  pbft_wire::WireFields m;
  if (type == "REQ" && count >= 4) {
    auto client_port = WireNumber(parts[3]);
    if (client_port) {
      m.type = WireType::kRequest;
      m.payload = parts[2];
      m.port = *client_port;
      m.forwarded = count >= 5 && parts[4] == "1";
    }
  } else if (type == "PP" && count >= 5) {
    auto view = WireNumber(parts[1]);
    auto seq = WireNumber(parts[2]);
    if (view && seq) {
      m.type = WireType::kPrePrepare;
      m.view = *view;
      m.seq = *seq;
      m.digest = parts[3];
      m.payload = parts[4];
    }
  } else if ((type == "P" || type == "C") && count >= 5) {
    auto view = WireNumber(parts[1]);
    auto seq = WireNumber(parts[2]);
    auto replica = WireNumber(parts[4]);
    if (view && seq && replica) {
      m.type = type == "P" ? WireType::kPrepare : WireType::kCommit;
      m.view = *view;
      m.seq = *seq;
      m.digest = parts[3];
      m.replica = *replica;
    }
  } else if (type == "FETCH" && count >= 3) {
    auto seq = WireNumber(parts[1]);
    auto requester = WireNumber(parts[2]);
    if (seq && requester) {
      m.type = WireType::kFetch;
      m.seq = *seq;
      m.replica = *requester;
    }
  } else if (type == "STATE" && count >= 4) {
    auto executed = WireNumber(parts[1]);
    auto view = WireNumber(parts[3]);
    if (executed && view) {
      m.type = WireType::kState;
      m.seq = *executed;
      m.digest = parts[2];
      m.view = *view;
    }
  } else if (type == "VC" && count >= 3) {
    auto view = WireNumber(parts[1]);
    auto replica = WireNumber(parts[2]);
    if (view && replica) {
      m.type = WireType::kViewChange;
      m.view = *view;
      m.replica = *replica;
    }
  } else if (type == "NV" && count >= 3) {
    auto view = WireNumber(parts[1]);
    if (view) {
      m.type = WireType::kNewView;
      m.view = *view;
      m.payload = parts[2];
    }
  } else if (type == "REPLY" && count >= 4) {  // the client's check
    auto ts = WireNumber(parts[2]);
    auto replica = WireNumber(parts[3]);
    if (ts && replica) {
      m.type = WireType::kReply;
      m.seq = *ts;
      m.replica = *replica;
    }
  }
  return m;
}

// Every decoded field, text fields as the exact bytes they view: the same
// offset into the datagram and the same length.
std::string Describe(const pbft_wire::WireFields& m, std::string_view msg) {
  auto text = [&](std::string_view field) {
    if (field.data() == nullptr || field.empty()) {
      return std::string("-");
    }
    return StrFormat("@%td+%zu", field.data() - msg.data(), field.size());
  };
  return StrFormat("type=%d view=%lld seq=%lld replica=%lld port=%lld forwarded=%d digest=%s "
                   "payload=%s",
                   static_cast<int>(m.type), static_cast<long long>(m.view),
                   static_cast<long long>(m.seq), static_cast<long long>(m.replica),
                   static_cast<long long>(m.port), m.forwarded ? 1 : 0, text(m.digest).c_str(),
                   text(m.payload).c_str());
}

// Hex form of a datagram for failure messages (the corpus holds NULs).
std::string Hex(std::string_view msg) {
  std::string out;
  for (unsigned char c : msg) {
    out += StrFormat("%02x", c);
  }
  return out;
}

TEST(PbftWire, OnePassDecodeAgreesWithSplitDecode) {
  using pbft_wire::WireType;
  const std::string d = "abcdef0123456789";
  const std::string nul("ab\0cd", 5);
  // Every message shape the replicas and the client send, with honest and
  // out-of-range numbers and texts holding a NUL, plus their honest forms.
  std::vector<std::string> seeds = {
      "REQ|0|1#8999#op|8999|0", "REQ|0|1#8999#op|8999|1", "PP|0|1|" + d + "|1#8999#op",
      "P|0|3|" + d + "|2",      "C|1|12|" + d + "|3",     "FETCH|4|2",
      "STATE|16|" + d + "|0",   "VC|1|2",                 "NV|1|1:" + d + ":1#8999#op;",
      "REPLY|0|1|0|" + d};
  const std::vector<std::string> honest = seeds;
  for (int v : {0, 7, INT_MAX, -1, INT_MIN}) {
    for (int64_t seq : {int64_t{0}, int64_t{12}, INT64_MAX, INT64_MIN}) {
      for (const std::string& t : {std::string(), d, nul, std::string("7#8999#op")}) {
        for (const std::string& m :
             {WireBytes("C", v, seq, t, v), WireBytes("P", v, seq, t, v),
              WireBytes("PP", v, seq, t, t), WireBytes("REPLY", v, t, v, t),
              WireBytes("REQ", 0, t, v, 1), WireBytes("REQ", 0, t, v, 0),
              WireBytes("STATE", seq, t, v), WireBytes("NV", v, t), WireBytes("FETCH", seq, v),
              WireBytes("VC", v, seq)}) {
          seeds.push_back(m);
        }
      }
    }
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());

  std::vector<std::string> corpus = seeds;
  corpus.push_back(WireBytes("PP", 0, 1, std::string(300, 'z'), std::string(300, 'z')));
  for (const std::string& seed : seeds) {
    for (size_t i = 0; i <= seed.size(); ++i) {
      corpus.push_back(seed.substr(0, i));                                        // cut
      corpus.push_back(seed.substr(0, i) + std::string(1, '\0') + seed.substr(i));  // a NUL
      if (i < seed.size()) {
        for (int bit = 0; bit < 8; ++bit) {
          std::string flipped = seed;
          flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
          corpus.push_back(flipped);
        }
        if (seed[i] == '|') {
          corpus.push_back(seed.substr(0, i) + seed.substr(i + 1));         // a missing '|'
          corpus.push_back(seed.substr(0, i) + "||" + seed.substr(i + 1));  // a doubled one
        }
      }
    }
    // Each field replaced by a number WireNumber judges on its general path,
    // or by a run of fields.
    std::vector<std::string> fields = Split(seed, '|');
    for (size_t i = 0; i < fields.size(); ++i) {
      for (const std::string& junk :
           {std::string("12345678901"), std::string("00000000001"), std::string("99999999999"),
            std::string("1073741824"), std::string("1073741825"), std::string("4294967296"),
            std::string("+5"), std::string("-5"), std::string("-0"), std::string(" 5"),
            std::string("5 "), std::string("\t5\n"), std::string("0x10"), std::string("0X1f"),
            std::string("0x"), std::string("5\0"), std::string("\0"), std::string(""),
            std::string("1|2"), std::string("||")}) {
        std::vector<std::string> garbled = fields;
        garbled[i] = junk;
        corpus.push_back(Join(garbled, "|"));
      }
    }
    // More fields than any type reads.
    for (const char* extra : {"|", "|1", "|x|y", "|1|2|3|4|5"}) {
      corpus.push_back(seed + extra);
    }
  }
  // Seeded noise over the bytes a message is made of.
  const std::string alphabet("CPREQFTSVNYAL|0123456789x+- \0#:", 31);
  Rng rng(27);
  for (int i = 0; i < 20000; ++i) {
    std::string msg;
    size_t len = rng.NextBelow(40);
    if (rng.Chance(0.5)) {
      msg = honest[rng.NextBelow(honest.size())].substr(0, rng.NextBelow(8));
    }
    for (size_t k = 0; k < len; ++k) {
      msg.push_back(alphabet[rng.NextBelow(alphabet.size())]);
    }
    corpus.push_back(msg);
  }

  size_t acted = 0;
  std::set<WireType> types;
  for (const std::string& msg : corpus) {
    pbft_wire::WireFields want = SplitDecode(msg);
    pbft_wire::WireFields got = pbft_wire::DecodeWire(msg);
    ASSERT_EQ(Describe(got, msg), Describe(want, msg)) << "datagram " << Hex(msg);
    if (got.type != WireType::kDrop) {
      ++acted;
      types.insert(got.type);
    }
  }
  // The corpus exercises both decisions, every message type included.
  EXPECT_GT(corpus.size(), 150000u);
  EXPECT_GT(acted, 1000u);
  EXPECT_LT(acted, corpus.size() / 2);
  EXPECT_EQ(types.size(), 9u);
}

}  // namespace
}  // namespace lfi
