#include <gtest/gtest.h>

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

// --- wire codec ----------------------------------------------------------------

TEST(PbftWire, EveryMessageShapeIsByteEqualToItsPrintfForm) {
  using pbft_wire::AppendJoined;
  using pbft_wire::WireMessage;
  const std::vector<int> ints = {0, 1, INT_MAX, -1, INT_MIN};
  const std::vector<int64_t> seqs = {0, 1, INT64_MAX, INT64_MIN};
  // %s of a c_str() and %.*s of a view both stop at the first NUL.
  const std::vector<std::string> texts = {"", "abcdef0123456789", std::string("ab\0cd", 5),
                                          std::string(300, 'z'), "7#8999#op"};
  std::string out = std::string(500, '!');  // a used buffer: rebuilt from empty
  for (int v : ints) {
    for (int64_t seq : seqs) {
      const long long lseq = seq;
      for (const std::string& t : texts) {
        const std::string_view view = t;
        const int len = static_cast<int>(view.size());
        EXPECT_EQ(WireMessage(&out, "C", v, seq, t, v),
                  StrFormat("C|%d|%lld|%s|%d", v, lseq, t.c_str(), v));
        EXPECT_EQ(WireMessage(&out, "C", v, seq, view, v),
                  StrFormat("C|%d|%lld|%.*s|%d", v, lseq, len, view.data(), v));
        EXPECT_EQ(WireMessage(&out, "P", v, seq, t, v),
                  StrFormat("P|%d|%lld|%s|%d", v, lseq, t.c_str(), v));
        EXPECT_EQ(WireMessage(&out, "P", v, seq, view, v),
                  StrFormat("P|%d|%lld|%.*s|%d", v, lseq, len, view.data(), v));
        EXPECT_EQ(WireMessage(&out, "PP", v, seq, t, t),
                  StrFormat("PP|%d|%lld|%s|%s", v, lseq, t.c_str(), t.c_str()));
        EXPECT_EQ(WireMessage(&out, "REPLY", v, view, v, t),
                  StrFormat("REPLY|%d|%.*s|%d|%s", v, len, view.data(), v, t.c_str()));
        EXPECT_EQ(WireMessage(&out, "REQ", 0, view, v, 1),
                  StrFormat("REQ|0|%.*s|%d|1", len, view.data(), v));
        EXPECT_EQ(WireMessage(&out, "REQ", 0, t, v, 0), StrFormat("REQ|0|%s|%d|0", t.c_str(), v));
        EXPECT_EQ(WireMessage(&out, "STATE", seq, t, v),
                  StrFormat("STATE|%lld|%s|%d", lseq, t.c_str(), v));
        EXPECT_EQ(WireMessage(&out, "NV", v, t), StrFormat("NV|%d|%s", v, t.c_str()));
        std::string carried = "1:x:y;";
        AppendJoined(&carried, ':', seq, t, t);
        carried.push_back(';');
        EXPECT_EQ(carried, "1:x:y;" + StrFormat("%lld:%s:%s;", lseq, t.c_str(), t.c_str()));
      }
      EXPECT_EQ(WireMessage(&out, "FETCH", seq, v), StrFormat("FETCH|%lld|%d", lseq, v));
      std::string payload;
      AppendJoined(&payload, '#', seq, v, "op");
      EXPECT_EQ(payload, StrFormat("%lld#%d#op", lseq, v));
    }
    for (int w : ints) {
      EXPECT_EQ(WireMessage(&out, "VC", v, w), StrFormat("VC|%d|%d", v, w));
      EXPECT_EQ(WireMessage(&out, "pbft-session-key", v, w),
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

}  // namespace
}  // namespace lfi
