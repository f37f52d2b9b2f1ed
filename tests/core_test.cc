#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/custom_triggers.h"
#include "core/distributed.h"
#include "core/runtime.h"
#include "core/scenario.h"
#include "core/stock_triggers.h"
#include "util/errno_codes.h"
#include "vlib/virtual_libc.h"

namespace lfi {
namespace {

class CoreTest : public ::testing::Test {
 protected:
  CoreTest() : libc_(&fs_, &net_, "app") {
    EnsureStockTriggersRegistered();
    EnsureCustomTriggersRegistered();
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

// --- scenario language ---------------------------------------------------------

TEST_F(CoreTest, ParsePaperExample) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="readTrig2" class="ReadPipe">
    <args>
      <low>1024</low>
      <high>4096</high>
    </args>
  </trigger>
  <trigger id="mutexTrig" class="WithMutex" />
  <function name="read" argc="3" return="-1" errno="EINVAL">
    <reftrigger ref="readTrig2" />
    <reftrigger ref="mutexTrig" />
  </function>
  <function name="pthread_mutex_lock" return="unused" errno="unused">
    <reftrigger ref="mutexTrig" />
  </function>
  <function name="pthread_mutex_unlock" return="unused" errno="unused">
    <reftrigger ref="mutexTrig" />
  </function>
</scenario>)");
  ASSERT_EQ(s.triggers().size(), 2u);
  EXPECT_EQ(s.triggers()[0].class_name, "ReadPipe");
  ASSERT_NE(s.triggers()[0].args(), nullptr);
  ASSERT_EQ(s.functions().size(), 3u);
  EXPECT_EQ(s.functions()[0].function, "read");
  EXPECT_EQ(s.functions()[0].argc, 3);
  EXPECT_EQ(s.functions()[0].retval, -1);
  EXPECT_EQ(s.functions()[0].errno_value, kEINVAL);
  EXPECT_EQ(s.functions()[0].triggers.size(), 2u);
  EXPECT_TRUE(s.functions()[1].unused);
}

TEST_F(CoreTest, ParseAcceptsRetvalSpelling) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="t" class="SingletonTrigger"/>
  <function name="fopen" retval="0" errno="EINVAL">
    <reftrigger ref="t"/>
  </function>
</scenario>)");
  EXPECT_EQ(s.functions()[0].retval, 0);
  EXPECT_FALSE(s.functions()[0].unused);
}

TEST_F(CoreTest, ParseRejectsUndeclaredRef) {
  std::string error;
  auto s = Scenario::Parse(R"(
<scenario>
  <function name="read" return="-1"><reftrigger ref="ghost"/></function>
</scenario>)",
                           &error);
  EXPECT_FALSE(s.has_value());
  EXPECT_NE(error.find("ghost"), std::string::npos);
}

TEST_F(CoreTest, ParseRejectsDuplicateTriggerIds) {
  std::string error;
  auto s = Scenario::Parse(R"(
<scenario>
  <trigger id="t" class="SingletonTrigger"/>
  <trigger id="t" class="RandomTrigger"/>
</scenario>)",
                           &error);
  EXPECT_FALSE(s.has_value());
}

TEST_F(CoreTest, ScenarioXmlRoundTrip) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="a" class="RandomTrigger"><args><probability>0.5</probability></args></trigger>
  <trigger id="b" class="SingletonTrigger"/>
  <function name="read" argc="3" return="-1" errno="EIO">
    <reftrigger ref="a"/>
    <reftrigger ref="b" negate="true"/>
  </function>
</scenario>)");
  Scenario reparsed = MustParse(s.ToXml());
  ASSERT_EQ(reparsed.triggers().size(), 2u);
  ASSERT_EQ(reparsed.functions().size(), 1u);
  EXPECT_EQ(reparsed.functions()[0].errno_value, kEIO);
  ASSERT_EQ(reparsed.functions()[0].triggers.size(), 2u);
  EXPECT_TRUE(reparsed.functions()[0].triggers[1].negate);
  EXPECT_EQ(reparsed.triggers()[0].args()->ChildText("probability"), "0.5");
}

// A decl's <args> spelling is taken once, when the complete element is
// attached: equality and the journal encoder read it, never the live tree.
TEST_F(CoreTest, TriggerArgsSpelledOnceComplete) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="a" class="RandomTrigger"><args><probability>0.5</probability></args></trigger>
  <trigger id="b" class="SingletonTrigger"/>
</scenario>)");
  const TriggerDecl& a = s.triggers()[0];
  EXPECT_EQ(a.args_xml(), a.args()->ToString());
  EXPECT_EQ(a.args_xml(), "<args>\n  <probability>0.5</probability>\n</args>\n");
  EXPECT_EQ(s.triggers()[1].args(), nullptr);
  EXPECT_EQ(s.triggers()[1].args_xml(), "");
  EXPECT_TRUE(a == TriggerDecl("a", "RandomTrigger", a.args()));
  EXPECT_FALSE(a == TriggerDecl("a", "RandomTrigger"));

  // The full replay of one (function, retval, errno) group collects every
  // logged call into one trigger's <args>; the spelling lists them all.
  InjectionLog log;
  for (uint64_t call : {3, 7}) {
    InjectionRecord record;
    record.sequence = call;
    record.function = "read";
    record.retval = -1;
    record.errno_value = kEIO;
    record.call_number = call;
    log.Record(std::move(record));
  }
  Scenario replay = log.FullReplayScenario();
  ASSERT_EQ(replay.triggers().size(), 1u);
  EXPECT_EQ(replay.triggers()[0].args_xml(),
            "<args>\n  <count>3</count>\n  <count>7</count>\n</args>\n");
  EXPECT_EQ(replay.triggers()[0].args_xml(), replay.triggers()[0].args()->ToString());
}

// --- registry -------------------------------------------------------------------

TEST_F(CoreTest, RegistryKnowsStockTriggers) {
  auto& reg = TriggerRegistry::Instance();
  for (const char* name :
       {"CallStackTrigger", "ProgramStateTrigger", "CallCountTrigger", "SingletonTrigger",
        "RandomTrigger", "DistributedTrigger", "ReadPipe", "WithMutex",
        "ReadPipe1K4KwithMutex", "CloseAfterMutexUnlock"}) {
    EXPECT_TRUE(reg.Knows(name)) << name;
    EXPECT_NE(reg.Create(name), nullptr) << name;
  }
  EXPECT_EQ(reg.Create("NoSuchTrigger"), nullptr);
}

DECLARE_TRIGGER(TestOnlyTrigger) {
 public:
  bool Eval(VirtualLibc*, const std::string&, const ArgSpan&) override { return true; }
};
LFI_REGISTER_TRIGGER(TestOnlyTrigger);

TEST_F(CoreTest, UserTriggersRegisterByClassName) {
  EXPECT_TRUE(TriggerRegistry::Instance().Knows("TestOnlyTrigger"));
}

// --- runtime: injection mechanics ------------------------------------------------

TEST_F(CoreTest, CallCountInjection) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="c" class="CallCountTrigger"><args><count>3</count></args></trigger>
  <function name="read" return="-1" errno="EINTR"><reftrigger ref="c"/></function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);

  int fd = libc_.Open("/d/f", kORdOnly);
  char buf[2];
  EXPECT_EQ(libc_.Read(fd, buf, 2), 2);   // call 1
  EXPECT_EQ(libc_.Read(fd, buf, 2), 2);   // call 2
  EXPECT_EQ(libc_.Read(fd, buf, 2), -1);  // call 3: injected
  EXPECT_EQ(libc_.verrno(), kEINTR);
  EXPECT_EQ(libc_.Read(fd, buf, 2), 2);   // call 4: passes again
  libc_.set_interposer(nullptr);

  ASSERT_EQ(runtime.log().size(), 1u);
  EXPECT_EQ(runtime.log().records()[0].call_number, 3u);
  EXPECT_EQ(runtime.log().records()[0].function, "read");
  EXPECT_EQ(runtime.injections(), 1u);
}

TEST_F(CoreTest, SingletonFiresOnce) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="once" class="SingletonTrigger"/>
  <function name="malloc" return="0" errno="ENOMEM"><reftrigger ref="once"/></function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  EXPECT_EQ(libc_.Malloc(8), nullptr);
  EXPECT_EQ(libc_.verrno(), kENOMEM);
  void* p = libc_.Malloc(8);
  EXPECT_NE(p, nullptr);
  libc_.Free(p);
  libc_.set_interposer(nullptr);
}

TEST_F(CoreTest, ConjunctionRequiresAllTriggers) {
  // random(p=1) AND singleton: exactly one injection even though random
  // always votes yes.
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="always" class="RandomTrigger"><args><probability>1.0</probability></args></trigger>
  <trigger id="once" class="SingletonTrigger"/>
  <function name="close" return="-1" errno="EIO">
    <reftrigger ref="always"/>
    <reftrigger ref="once"/>
  </function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  int fd1 = libc_.Open("/d/f", kORdOnly);
  int fd2 = libc_.Open("/d/f", kORdOnly);
  EXPECT_EQ(libc_.Close(fd1), -1);
  EXPECT_EQ(libc_.Close(fd2), 0);
  libc_.set_interposer(nullptr);
  EXPECT_EQ(runtime.injections(), 1u);
}

TEST_F(CoreTest, DisjunctionAcrossFunctionElements) {
  // Two <function name="read"> elements: call 2 OR call 4 fails.
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="c2" class="CallCountTrigger"><args><count>2</count></args></trigger>
  <trigger id="c4" class="CallCountTrigger"><args><count>4</count></args></trigger>
  <function name="read" return="-1" errno="EIO"><reftrigger ref="c2"/></function>
  <function name="read" return="-1" errno="EINTR"><reftrigger ref="c4"/></function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  int fd = libc_.Open("/d/f", kORdOnly);
  char buf[1];
  EXPECT_EQ(libc_.Read(fd, buf, 1), 1);
  EXPECT_EQ(libc_.Read(fd, buf, 1), -1);
  EXPECT_EQ(libc_.verrno(), kEIO);
  EXPECT_EQ(libc_.Read(fd, buf, 1), 1);
  EXPECT_EQ(libc_.Read(fd, buf, 1), -1);
  EXPECT_EQ(libc_.verrno(), kEINTR);
  libc_.set_interposer(nullptr);
  EXPECT_EQ(runtime.injections(), 2u);
}

TEST_F(CoreTest, NegationInverts) {
  // NOT(singleton): fires on every call except the first.
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="once" class="SingletonTrigger"/>
  <function name="close" return="-1" errno="EIO">
    <reftrigger ref="once" negate="true"/>
  </function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  int fd1 = libc_.Open("/d/f", kORdOnly);
  int fd2 = libc_.Open("/d/f", kORdOnly);
  EXPECT_EQ(libc_.Close(fd1), 0);   // singleton true -> negated false
  EXPECT_EQ(libc_.Close(fd2), -1);  // singleton false -> negated true
  libc_.set_interposer(nullptr);
}

TEST_F(CoreTest, ShortCircuitSkipsLaterTriggers) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="never" class="RandomTrigger"><args><probability>0.0</probability></args></trigger>
  <trigger id="counter" class="CallCountTrigger"><args><count>1</count></args></trigger>
  <function name="close" return="-1">
    <reftrigger ref="never"/>
    <reftrigger ref="counter"/>
  </function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  int fd = libc_.Open("/d/f", kORdOnly);
  EXPECT_EQ(libc_.Close(fd), 0);
  libc_.set_interposer(nullptr);
  // Only the first trigger was evaluated.
  EXPECT_EQ(runtime.trigger_evaluations(), 1u);
}

TEST_F(CoreTest, UnusedAssociationNeverInjects) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="always" class="RandomTrigger"><args><probability>1.0</probability></args></trigger>
  <function name="close" return="unused" errno="unused"><reftrigger ref="always"/></function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  int fd = libc_.Open("/d/f", kORdOnly);
  EXPECT_EQ(libc_.Close(fd), 0);
  libc_.set_interposer(nullptr);
  EXPECT_EQ(runtime.injections(), 0u);
  EXPECT_GT(runtime.trigger_evaluations(), 0u);
}

TEST_F(CoreTest, DisarmedRuntimeEvaluatesButDoesNotInject) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="always" class="RandomTrigger"><args><probability>1.0</probability></args></trigger>
  <function name="read" return="-1" errno="EIO"><reftrigger ref="always"/></function>
</scenario>)");
  Runtime runtime(s);
  runtime.set_armed(false);
  libc_.set_interposer(&runtime);
  int fd = libc_.Open("/d/f", kORdOnly);
  char buf[1];
  EXPECT_EQ(libc_.Read(fd, buf, 1), 1);
  libc_.set_interposer(nullptr);
  EXPECT_GT(runtime.trigger_evaluations(), 0u);
  EXPECT_EQ(runtime.injections(), 0u);
}

TEST_F(CoreTest, UnknownTriggerClassReportedAndInert) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="x" class="DoesNotExist"/>
  <function name="read" return="-1"><reftrigger ref="x"/></function>
</scenario>)");
  Runtime runtime(s);
  EXPECT_FALSE(runtime.error().empty());
  libc_.set_interposer(&runtime);
  int fd = libc_.Open("/d/f", kORdOnly);
  char buf[1];
  EXPECT_EQ(libc_.Read(fd, buf, 1), 1);  // no injection
  libc_.set_interposer(nullptr);
}

// --- stock triggers ---------------------------------------------------------------

TEST_F(CoreTest, CallStackTriggerMatchesModuleAndOffset) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="site" class="CallStackTrigger">
    <args><frame><module>myapp</module><offset>a8</offset></frame></args>
  </trigger>
  <function name="fopen" return="0" errno="EINVAL"><reftrigger ref="site"/></function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);

  {
    ScopedFrame frame(&libc_.stack(), "myapp", "save_checkpoint");
    frame.set_offset(0xa8);
    EXPECT_EQ(libc_.FOpen("/d/f", "r"), nullptr);  // injected
    frame.set_offset(0xb0);
    VFile* f = libc_.FOpen("/d/f", "r");
    EXPECT_NE(f, nullptr);  // different site: no injection
    libc_.FClose(f);
  }
  // No frame at all: no injection.
  VFile* f = libc_.FOpen("/d/f", "r");
  EXPECT_NE(f, nullptr);
  libc_.FClose(f);
  libc_.set_interposer(nullptr);
}

TEST_F(CoreTest, CallStackTriggerMatchesAnyActiveFrame) {
  // "whether the intercepted call was made ... via ap_process_request_internal".
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="viaHandler" class="CallStackTrigger">
    <args><frame><function>process_request</function></frame></args>
  </trigger>
  <function name="read" return="-1" errno="EIO"><reftrigger ref="viaHandler"/></function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  int fd = libc_.Open("/d/f", kORdOnly);
  char buf[1];
  EXPECT_EQ(libc_.Read(fd, buf, 1), 1);  // outside handler
  {
    ScopedFrame outer(&libc_.stack(), "httpd", "process_request");
    ScopedFrame inner(&libc_.stack(), "httpd", "read_body");
    EXPECT_EQ(libc_.Read(fd, buf, 1), -1);  // deep inside handler
  }
  libc_.set_interposer(nullptr);
}

TEST_F(CoreTest, CallStackTriggerMatchesModuleFunctionAndOffsetAlike) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="site" class="CallStackTrigger">
    <args><frame><module>myapp</module><function>load_config</function><offset>40</offset></frame></args>
  </trigger>
  <function name="read" return="-1" errno="EIO"><reftrigger ref="site"/></function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  int fd = libc_.Open("/d/f", kORdOnly);
  char buf[1];
  struct Case {
    const char* module;
    const char* function;
    uint32_t offset;
    long want;
  };
  for (const Case& c : {Case{"myapp", "load_config", 0x40, -1}, Case{"other", "load_config", 0x40, 1},
                        Case{"myapp", "load_cfg", 0x40, 1}, Case{"myapp", "load_config", 0x48, 1}}) {
    ScopedFrame frame(&libc_.stack(), c.module, c.function);
    frame.set_offset(c.offset);
    EXPECT_EQ(libc_.Read(fd, buf, 1), c.want) << c.module << " " << c.function << " " << c.offset;
  }
  libc_.set_interposer(nullptr);
}

TEST_F(CoreTest, InjectionRecordOwnsItsStackAfterFramesUnwind) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="site" class="CallStackTrigger">
    <args><frame><function>parse_config_section</function><offset>24</offset></frame></args>
  </trigger>
  <function name="read" return="-1" errno="EIO"><reftrigger ref="site"/></function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  int fd = libc_.Open("/d/f", kORdOnly);
  {
    // Heap-allocated names (longer than any small-string buffer) that die
    // right after the frames do: the record must hold copies, not pointers
    // into them, or ASan flags the reads below.
    std::string module = "config-loader-module";
    std::string outer_fn = "load_configuration_files";
    std::string inner_fn = "parse_config_section";
    ScopedFrame outer(&libc_.stack(), module.c_str(), outer_fn.c_str());
    outer.set_offset(0x10);
    {
      ScopedFrame inner(&libc_.stack(), module.c_str(), inner_fn.c_str());
      inner.set_offset(0x24);
      char buf[1];
      EXPECT_EQ(libc_.Read(fd, buf, 1), -1);
    }
  }
  libc_.set_interposer(nullptr);
  EXPECT_TRUE(libc_.stack().empty());
  ASSERT_EQ(runtime.log().size(), 1u);
  std::vector<StackFrame> want = {{"config-loader-module", "load_configuration_files", 0x10},
                                  {"config-loader-module", "parse_config_section", 0x24}};
  EXPECT_EQ(runtime.log().records()[0].stack, want);
}

TEST_F(CoreTest, ProgramStateTriggerComparesGlobal) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="busy" class="ProgramStateTrigger">
    <args><var>thread_count</var><op>gt</op><value>64</value></args>
  </trigger>
  <function name="fcntl" return="-1" errno="EDEADLK"><reftrigger ref="busy"/></function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  int fd = libc_.Open("/d/f", kORdOnly);
  libc_.SetGlobal("thread_count", 10);
  EXPECT_EQ(libc_.Fcntl(fd, kFGetLk, 0), 0);
  libc_.SetGlobal("thread_count", 65);
  EXPECT_EQ(libc_.Fcntl(fd, kFGetLk, 0), -1);
  EXPECT_EQ(libc_.verrno(), kEDEADLK);
  libc_.set_interposer(nullptr);
}

TEST_F(CoreTest, ProgramStateTriggerComparesTwoGlobals) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="full" class="ProgramStateTrigger">
    <args><var>numConnections</var><op>eq</op><var2>maxConnections</var2></args>
  </trigger>
  <function name="socket" return="-1" errno="EMFILE"><reftrigger ref="full"/></function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  libc_.SetGlobal("numConnections", 5);
  libc_.SetGlobal("maxConnections", 10);
  EXPECT_GE(libc_.Socket(), 0);
  libc_.SetGlobal("numConnections", 10);
  EXPECT_EQ(libc_.Socket(), -1);
  libc_.set_interposer(nullptr);
}

TEST_F(CoreTest, RandomTriggerRespectsProbability) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="r" class="RandomTrigger">
    <args><probability>0.25</probability><seed>777</seed></args>
  </trigger>
  <function name="close" return="-1" errno="EIO"><reftrigger ref="r"/></function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  int failures = 0;
  const int kTrials = 4000;
  for (int i = 0; i < kTrials; ++i) {
    int fd = libc_.Open("/d/f", kORdOnly);
    if (libc_.Close(fd) == -1) {
      ++failures;
      libc_.set_interposer(nullptr);
      libc_.Close(fd);
      libc_.set_interposer(&runtime);
    }
  }
  libc_.set_interposer(nullptr);
  double rate = static_cast<double>(failures) / kTrials;
  EXPECT_NEAR(rate, 0.25, 0.03);
}

TEST_F(CoreTest, ReadPipeTriggerChecksFdTypeAndSize) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="rp" class="ReadPipe">
    <args><low>4</low><high>8</high></args>
  </trigger>
  <function name="read" argc="3" return="-1" errno="EINVAL"><reftrigger ref="rp"/></function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  char buf[16];
  // Regular file: no injection regardless of size.
  int fd = libc_.Open("/d/f", kORdOnly);
  EXPECT_EQ(libc_.Read(fd, buf, 6), 6);
  // Pipe with size in range: injected.
  int pipefd[2];
  ASSERT_EQ(libc_.Pipe(pipefd), 0);
  libc_.Write(pipefd[1], "abcdefgh", 8);
  EXPECT_EQ(libc_.Read(pipefd[0], buf, 6), -1);
  EXPECT_EQ(libc_.verrno(), kEINVAL);
  // Pipe with size out of range: passes.
  EXPECT_EQ(libc_.Read(pipefd[0], buf, 16), 8);
  libc_.set_interposer(nullptr);
}

TEST_F(CoreTest, ReadPipeWithMutexComposition) {
  // The §4.2 composition: ReadPipe AND WithMutex.
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="readTrig2" class="ReadPipe">
    <args><low>1024</low><high>4096</high></args>
  </trigger>
  <trigger id="mutexTrig" class="WithMutex"/>
  <function name="read" argc="3" return="-1" errno="EINVAL">
    <reftrigger ref="readTrig2"/>
    <reftrigger ref="mutexTrig"/>
  </function>
  <function name="pthread_mutex_lock" return="unused" errno="unused">
    <reftrigger ref="mutexTrig"/>
  </function>
  <function name="pthread_mutex_unlock" return="unused" errno="unused">
    <reftrigger ref="mutexTrig"/>
  </function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);

  int pipefd[2];
  ASSERT_EQ(libc_.Pipe(pipefd), 0);
  std::string payload(2048, 'x');
  libc_.Write(pipefd[1], payload.data(), payload.size());
  char buf[4096];

  // Without the mutex: no injection.
  EXPECT_EQ(libc_.Read(pipefd[0], buf, 2048), 2048);

  // Holding the mutex: injection.
  VMutex m{"m", 0};
  libc_.MutexLock(&m);
  libc_.Write(pipefd[1], payload.data(), payload.size());
  libc_.Lseek(pipefd[0], 0, kSeekSet);
  EXPECT_EQ(libc_.Read(pipefd[0], buf, 2048), -1);
  EXPECT_EQ(libc_.verrno(), kEINVAL);
  libc_.MutexUnlock(&m);

  // After unlock: no injection again.
  EXPECT_EQ(libc_.Read(pipefd[0], buf, 2048), 2048);
  libc_.set_interposer(nullptr);
}

TEST_F(CoreTest, Paper31MonolithicTriggerBehavesLikeComposition) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="t" class="ReadPipe1K4KwithMutex"/>
  <function name="read" argc="3" return="-1" errno="EINVAL"><reftrigger ref="t"/></function>
  <function name="pthread_mutex_lock" return="unused" errno="unused"><reftrigger ref="t"/></function>
  <function name="pthread_mutex_unlock" return="unused" errno="unused"><reftrigger ref="t"/></function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  int pipefd[2];
  ASSERT_EQ(libc_.Pipe(pipefd), 0);
  std::string payload(1024, 'y');
  libc_.Write(pipefd[1], payload.data(), payload.size());
  char buf[4096];
  VMutex m{"m", 0};
  libc_.MutexLock(&m);
  EXPECT_EQ(libc_.Read(pipefd[0], buf, 1024), -1);
  libc_.MutexUnlock(&m);
  EXPECT_EQ(libc_.Read(pipefd[0], buf, 1024), 1024);
  libc_.set_interposer(nullptr);
}

TEST_F(CoreTest, DistributedTriggerConsultsController) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="dist" class="DistributedTrigger"/>
  <function name="sendto" return="-1" errno="EIO"><reftrigger ref="dist"/></function>
</scenario>)");
  Runtime runtime(s);
  BlackoutController controller("app");
  libc_.SetService(DistributedController::kServiceName, &controller);
  libc_.set_interposer(&runtime);
  int sock = libc_.Socket();
  libc_.BindSocket(sock, 9);
  EXPECT_EQ(libc_.SendTo(sock, "x", 1, 10), -1);  // node "app" is blacked out
  EXPECT_GT(controller.consultations(), 0u);
  libc_.set_interposer(nullptr);

  VirtualLibc other(&fs_, &net_, "other");
  other.SetService(DistributedController::kServiceName, &controller);
  Runtime runtime2(s);
  other.set_interposer(&runtime2);
  int sock2 = other.Socket();
  other.BindSocket(sock2, 11);
  EXPECT_EQ(other.SendTo(sock2, "x", 1, 10), 1);  // other node passes
  other.set_interposer(nullptr);
}

TEST_F(CoreTest, RotatingBlackoutRotatesAfterBurst) {
  RotatingBlackoutController controller({"r1", "r2"}, 3);
  ArgVec args;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(controller.ShouldInject("r1", "sendto", args));
  }
  // Burst exhausted: target moved to r2.
  EXPECT_FALSE(controller.ShouldInject("r1", "sendto", args));
  EXPECT_TRUE(controller.ShouldInject("r2", "sendto", args));
}

// --- log & replay ------------------------------------------------------------------

TEST_F(CoreTest, LogCapturesStackAndSideEffects) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="c" class="CallCountTrigger"><args><count>1</count></args></trigger>
  <function name="fopen" return="0" errno="EMFILE"><reftrigger ref="c"/></function>
</scenario>)");
  Runtime runtime(s);
  libc_.set_interposer(&runtime);
  {
    ScopedFrame frame(&libc_.stack(), "myapp", "init");
    frame.set_offset(0x40);
    EXPECT_EQ(libc_.FOpen("/d/f", "r"), nullptr);
  }
  libc_.set_interposer(nullptr);
  ASSERT_EQ(runtime.log().size(), 1u);
  const InjectionRecord& rec = runtime.log().records()[0];
  EXPECT_EQ(rec.errno_value, kEMFILE);
  ASSERT_EQ(rec.stack.size(), 1u);
  EXPECT_EQ(rec.stack[0].module, "myapp");
  EXPECT_EQ(rec.stack[0].offset, 0x40u);
  std::string text = runtime.log().ToString();
  EXPECT_NE(text.find("fopen"), std::string::npos);
  EXPECT_NE(text.find("EMFILE"), std::string::npos);
  EXPECT_NE(text.find("myapp!init+0x40"), std::string::npos);
}

TEST_F(CoreTest, ReplayScenarioReproducesInjection) {
  // Inject randomly, then replay the logged injection deterministically.
  Scenario random_scenario = MustParse(R"(
<scenario>
  <trigger id="r" class="RandomTrigger"><args><probability>0.2</probability><seed>5</seed></args></trigger>
  <function name="read" return="-1" errno="EIO"><reftrigger ref="r"/></function>
</scenario>)");
  Runtime runtime(random_scenario);
  libc_.set_interposer(&runtime);
  int fd = libc_.Open("/d/f", kORdOnly);
  char buf[1];
  int first_failure = -1;
  for (int i = 0; i < 100; ++i) {
    libc_.Lseek(fd, 0, kSeekSet);
    if (libc_.Read(fd, buf, 1) == -1 && first_failure < 0) {
      first_failure = i;
      break;
    }
  }
  libc_.set_interposer(nullptr);
  ASSERT_GE(first_failure, 0);
  ASSERT_EQ(runtime.log().size(), 1u);

  Scenario replay = runtime.log().ReplayScenario(0);
  Runtime replay_runtime(replay);
  libc_.ResetCallCounts();  // fresh-process semantics for the replay run
  libc_.set_interposer(&replay_runtime);
  int observed_failure = -1;
  for (int i = 0; i <= first_failure; ++i) {
    libc_.Lseek(fd, 0, kSeekSet);
    if (libc_.Read(fd, buf, 1) == -1) {
      observed_failure = i;
      break;
    }
  }
  libc_.set_interposer(nullptr);
  EXPECT_EQ(observed_failure, first_failure);
}

// --- controller ------------------------------------------------------------------------

TEST_F(CoreTest, ControllerReportsNormalExit) {
  TestController controller(MustParse("<scenario/>"));
  TestOutcome outcome = controller.RunTest(&libc_, [] { return true; });
  EXPECT_EQ(outcome.status, ExitStatus::kNormal);
  EXPECT_EQ(outcome.injections, 0u);
}

TEST_F(CoreTest, ControllerCatchesCrash) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="c" class="CallCountTrigger"><args><count>1</count></args></trigger>
  <function name="opendir" return="0" errno="ENOMEM"><reftrigger ref="c"/></function>
</scenario>)");
  TestController controller(s);
  TestOutcome outcome = controller.RunTest(&libc_, [this] {
    // Buggy code: readdir(opendir(...)) without checking (the Git bug).
    VDir* d = libc_.OpenDir("/d");
    libc_.ReadDir(d);
    return true;
  });
  EXPECT_EQ(outcome.status, ExitStatus::kCrash);
  EXPECT_EQ(outcome.crash_kind, CrashKind::kSegfault);
  EXPECT_EQ(outcome.injections, 1u);
  // Interposer restored even after the crash.
  EXPECT_EQ(libc_.interposer(), nullptr);
}

TEST_F(CoreTest, ControllerReportsWorkloadError) {
  TestController controller(MustParse("<scenario/>"));
  TestOutcome outcome = controller.RunTest(&libc_, [] { return false; });
  EXPECT_EQ(outcome.status, ExitStatus::kWorkloadError);
}

TEST_F(CoreTest, LinearLookupAblationBehavesIdentically) {
  Scenario s = MustParse(R"(
<scenario>
  <trigger id="c" class="CallCountTrigger"><args><count>2</count></args></trigger>
  <function name="read" return="-1" errno="EIO"><reftrigger ref="c"/></function>
</scenario>)");
  Runtime::Options linear;
  linear.linear_lookup = true;
  Runtime runtime(s, linear);
  libc_.set_interposer(&runtime);
  int fd = libc_.Open("/d/f", kORdOnly);
  char buf[1];
  EXPECT_EQ(libc_.Read(fd, buf, 1), 1);
  EXPECT_EQ(libc_.Read(fd, buf, 1), -1);
  libc_.set_interposer(nullptr);
}

}  // namespace
}  // namespace lfi
