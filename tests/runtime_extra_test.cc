// Additional runtime/composition/log edge cases: trigger instance sharing,
// parametrization, negation composition laws, distributed-controller
// bookkeeping, and log/replay details.

#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/distributed.h"
#include "core/runtime.h"
#include "core/scenario.h"
#include "core/stock_triggers.h"
#include "util/errno_codes.h"
#include "vlib/virtual_libc.h"

namespace lfi {
namespace {

class RuntimeExtraTest : public ::testing::Test {
 protected:
  RuntimeExtraTest() : libc_(&fs_, &net_, "proc") {
    EnsureStockTriggersRegistered();
    fs_.MkDir("/d");
    fs_.WriteFile("/d/f", "0123456789");
  }

  Scenario MustParse(const std::string& xml) {
    std::string error;
    auto s = Scenario::Parse(xml, &error);
    EXPECT_TRUE(s.has_value()) << error;
    return s ? *std::move(s) : Scenario();
  }

  VirtualFs fs_;
  VirtualNet net_;
  VirtualLibc libc_;
};

TEST_F(RuntimeExtraTest, OneInstanceSharedAcrossAssociationsKeepsOneState) {
  // A single singleton instance referenced from two function associations
  // fires exactly once in total, not once per function.
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="once" class="SingletonTrigger"/>
  <function name="read" return="-1" errno="EIO"><reftrigger ref="once"/></function>
  <function name="close" return="-1" errno="EIO"><reftrigger ref="once"/></function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  int fd = libc_.Open("/d/f", kORdOnly);
  char buf[1];
  EXPECT_EQ(libc_.Read(fd, buf, 1), -1);  // consumed the singleton
  EXPECT_EQ(libc_.Close(fd), 0);          // nothing left for close
  libc_.set_interposer(nullptr);
  EXPECT_EQ(runtime.injections(), 1u);
}

TEST_F(RuntimeExtraTest, SharedCallCountTriggerCountsEachFunctionOnItsOwn) {
  // One CallCountTrigger decl serves lseek and read, which reach their third
  // call at different points: each must fire on its own third call, in every
  // lookup mode. A count cached per trigger instance (say, the id of the
  // first function it saw) would fire read on lseek's count instead.
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="third" class="CallCountTrigger"><args><count>3</count></args></trigger>
  <function name="lseek" return="-1" errno="EIO"><reftrigger ref="third"/></function>
  <function name="read" return="-1" errno="EIO"><reftrigger ref="third"/></function>
</scenario>)");
  for (int mode = 0; mode < 3; ++mode) {
    SCOPED_TRACE(mode);
    Runtime::Options options;
    options.linear_lookup = mode == 1;
    options.string_keyed_reference = mode == 2;
    Runtime runtime(s, options);
    VirtualLibc libc(&fs_, &net_, "proc");
    int fd = libc.Open("/d/f", kORdOnly);
    ASSERT_GE(fd, 0);
    libc.set_interposer(&runtime);
    char buf[1];
    EXPECT_EQ(libc.Lseek(fd, 0, kSeekSet), 0);   // lseek #1
    EXPECT_EQ(libc.Lseek(fd, 0, kSeekSet), 0);   // lseek #2
    EXPECT_EQ(libc.Read(fd, buf, 1), 1);         // read #1
    EXPECT_EQ(libc.Lseek(fd, 0, kSeekSet), -1);  // lseek #3: fires
    EXPECT_EQ(libc.Read(fd, buf, 1), 1);         // read #2, lseek already at 3
    EXPECT_EQ(libc.Read(fd, buf, 1), -1);        // read #3: fires
    EXPECT_EQ(libc.Read(fd, buf, 1), 1);         // read #4
    EXPECT_EQ(libc.Lseek(fd, 0, kSeekSet), 0);   // lseek #4
    libc.set_interposer(nullptr);
    ASSERT_EQ(runtime.log().records().size(), 2u);
    EXPECT_EQ(runtime.log().records()[0].function, "lseek");
    EXPECT_EQ(runtime.log().records()[0].call_number, 3u);
    EXPECT_EQ(runtime.log().records()[1].function, "read");
    EXPECT_EQ(runtime.log().records()[1].call_number, 3u);
  }
}

TEST_F(RuntimeExtraTest, TwoInstancesOfSameClassAreIndependent) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="a" class="SingletonTrigger"/>
  <trigger id="b" class="SingletonTrigger"/>
  <function name="read" return="-1" errno="EIO"><reftrigger ref="a"/></function>
  <function name="close" return="-1" errno="EIO"><reftrigger ref="b"/></function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  int fd = libc_.Open("/d/f", kORdOnly);
  char buf[1];
  EXPECT_EQ(libc_.Read(fd, buf, 1), -1);
  EXPECT_EQ(libc_.Close(fd), -1);  // b is its own singleton
  libc_.set_interposer(nullptr);
  EXPECT_EQ(runtime.injections(), 2u);
}

TEST_F(RuntimeExtraTest, DoubleNegationIsIdentity) {
  // NOT(NOT(always)) == always: two negated always-false triggers in
  // conjunction vote yes.
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="never1" class="RandomTrigger"><args><probability>0.0</probability></args></trigger>
  <trigger id="never2" class="RandomTrigger"><args><probability>0.0</probability></args></trigger>
  <function name="close" return="-1" errno="EIO">
    <reftrigger ref="never1" negate="true"/>
    <reftrigger ref="never2" negate="true"/>
  </function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  int fd = libc_.Open("/d/f", kORdOnly);
  EXPECT_EQ(libc_.Close(fd), -1);
  libc_.set_interposer(nullptr);
}

TEST_F(RuntimeExtraTest, InjectionWithoutErrnoLeavesErrnoUntouched) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="always" class="RandomTrigger"><args><probability>1.0</probability></args></trigger>
  <function name="close" return="-1"><reftrigger ref="always"/></function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_verrno(kEPERM);  // sentinel
  libc_.set_interposer(&runtime);
  int fd = libc_.Open("/d/f", kORdOnly);
  EXPECT_EQ(libc_.Close(fd), -1);
  EXPECT_EQ(libc_.verrno(), kEPERM);  // untouched
  libc_.set_interposer(nullptr);
}

TEST_F(RuntimeExtraTest, LogSequenceNumbersAreMonotonic) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="always" class="RandomTrigger"><args><probability>1.0</probability></args></trigger>
  <function name="close" return="-1" errno="EIO"><reftrigger ref="always"/></function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  for (int i = 0; i < 5; ++i) {
    int fd = libc_.Open("/d/f", kORdOnly);
    libc_.Close(fd);
    libc_.set_interposer(nullptr);
    libc_.Close(fd);  // really close it
    libc_.set_interposer(&runtime);
  }
  libc_.set_interposer(nullptr);
  ASSERT_EQ(runtime.log().size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(runtime.log().records()[i].sequence, i + 1);
    EXPECT_EQ(runtime.log().records()[i].call_number, i + 1);
  }
}

TEST_F(RuntimeExtraTest, ReplayScenarioOutOfRangeIsEmpty) {
  InjectionLog log;
  Scenario replay = log.ReplayScenario(42);
  EXPECT_TRUE(replay.triggers().empty());
  EXPECT_TRUE(replay.functions().empty());
}

TEST_F(RuntimeExtraTest, InjectionCapEndsARetryLoopAsAHangThatReplays) {
  // Every read fails with EINTR and the workload retries forever: the
  // injection that reaches the cap ends the run as a hang, and the libc
  // intercepts again afterwards.
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="always" class="RandomTrigger"><args><probability>1.0</probability></args></trigger>
  <function name="read" return="-1" errno="EINTR"><reftrigger ref="always"/></function>
</scenario>)");
  auto retry_forever = [&] {
    int fd = libc_.Open("/d/f", kORdOnly);
    char buf[4];
    while (libc_.Read(fd, buf, sizeof buf) < 0 && libc_.verrno() == kEINTR) {
    }
    return true;
  };
  TestController controller(s);
  TestOutcome outcome = controller.RunTest(&libc_, retry_forever);
  EXPECT_EQ(outcome.status, ExitStatus::kCrash);
  EXPECT_EQ(outcome.crash_kind, CrashKind::kHang);
  EXPECT_STREQ(CrashKindName(outcome.crash_kind), "hang");
  EXPECT_EQ(outcome.injections, Runtime::kMaxInjectionsPerRun);
  EXPECT_EQ(outcome.crash_where, "livelock under injected faults: read");

  // The full replay collapses the capped log into one association whose
  // call-count trigger lists every failed call, and hits the cap again.
  Scenario replay = controller.runtime()->log().FullReplayScenario();
  EXPECT_EQ(replay.functions().size(), 1u);
  TestController replayer(replay);
  TestOutcome replayed = replayer.RunTest(&libc_, retry_forever);
  EXPECT_EQ(replayed.crash_kind, CrashKind::kHang);
  EXPECT_EQ(replayed.crash_where, outcome.crash_where);

  TestController once(MustParse(R"(
<scenario>
  <trigger id="first" class="CallCountTrigger"><args><count>1</count></args></trigger>
  <function name="close" return="-1" errno="EIO"><reftrigger ref="first"/></function>
</scenario>)"));
  EXPECT_EQ(once.RunTest(&libc_, [&] { return libc_.Close(libc_.Open("/d/f", kORdOnly)) == -1; })
                .status,
            ExitStatus::kNormal);
}

TEST_F(RuntimeExtraTest, ControllerRunsAreIndependent) {
  // Each RunTest builds a fresh runtime: singleton state does not leak
  // between tests, and call counts restart.
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="first" class="CallCountTrigger"><args><count>1</count></args></trigger>
  <function name="close" return="-1" errno="EIO"><reftrigger ref="first"/></function>
</scenario>)");
  TestController controller(s);
  for (int round = 0; round < 3; ++round) {
    TestOutcome outcome = controller.RunTest(&libc_, [&] {
      int fd = libc_.Open("/d/f", kORdOnly);
      bool injected = libc_.Close(fd) == -1;
      return injected;  // "success" means we saw the injection
    });
    EXPECT_EQ(outcome.status, ExitStatus::kNormal) << "round " << round;
    EXPECT_EQ(outcome.injections, 1u) << "round " << round;
  }
}

TEST_F(RuntimeExtraTest, DistributedControllersCountConsultations) {
  RandomLossController random_controller(0.5, 7);
  BlackoutController blackout("nodeX");
  ArgVec args;
  for (int i = 0; i < 10; ++i) {
    random_controller.ShouldInject("n", "sendto", args);
    blackout.ShouldInject("n", "sendto", args);
  }
  EXPECT_EQ(random_controller.consultations(), 10u);
  EXPECT_EQ(blackout.consultations(), 10u);
}

TEST_F(RuntimeExtraTest, RotatingBlackoutIgnoresUnknownNodes) {
  RotatingBlackoutController controller({"a", "b"}, 2);
  ArgVec args;
  EXPECT_FALSE(controller.ShouldInject("stranger", "sendto", args));
  EXPECT_TRUE(controller.ShouldInject("a", "sendto", args));
  EXPECT_TRUE(controller.ShouldInject("a", "sendto", args));  // burst of 2 done
  EXPECT_FALSE(controller.ShouldInject("a", "sendto", args));
  EXPECT_TRUE(controller.ShouldInject("b", "sendto", args));
}

TEST_F(RuntimeExtraTest, EmptyRotationNeverInjects) {
  RotatingBlackoutController controller({}, 5);
  ArgVec args;
  EXPECT_FALSE(controller.ShouldInject("a", "sendto", args));
}

TEST_F(RuntimeExtraTest, ScenarioWithNoTriggersNeverInjects) {
  Scenario s = MustParse(R"(
<scenario>
  <function name="close" return="-1" errno="EIO"/>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  int fd = libc_.Open("/d/f", kORdOnly);
  EXPECT_EQ(libc_.Close(fd), 0);  // an empty conjunction does not fire
  libc_.set_interposer(nullptr);
}

TEST_F(RuntimeExtraTest, ProgramStateTriggerUnknownVariableIsFalse) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="ps" class="ProgramStateTrigger">
    <args><var>does_not_exist</var><op>eq</op><value>0</value></args>
  </trigger>
  <function name="close" return="-1" errno="EIO"><reftrigger ref="ps"/></function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  int fd = libc_.Open("/d/f", kORdOnly);
  EXPECT_EQ(libc_.Close(fd), 0);
  libc_.set_interposer(nullptr);
}

}  // namespace
}  // namespace lfi
