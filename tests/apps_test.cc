#include <gtest/gtest.h>

#include "apps/bind/bind.h"
#include "apps/git/git.h"
#include "apps/httpd/httpd.h"
#include "apps/mysql/mysql.h"
#include "core/controller.h"
#include "core/runtime.h"
#include "core/stock_triggers.h"
#include "util/errno_codes.h"
#include "util/string_util.h"
#include "vlib/sim_crash.h"

namespace lfi {
namespace {

Scenario SiteScenarioFor(const AppBinary& binary, const char* site_name, int64_t retval,
                         int errno_value) {
  const CallSiteSpec* spec = binary.FindSite(site_name);
  EXPECT_NE(spec, nullptr) << site_name;
  Scenario s;
  TriggerDecl decl;
  decl.id = "site";
  decl.class_name = "CallStackTrigger";
  auto args = std::make_unique<XmlNode>("args");
  XmlNode* frame = args->AddChild("frame");
  frame->AddChild("module")->set_text(binary.image().module_name());
  frame->AddChild("offset")->set_text(StrFormat("%x", binary.SiteOffset(site_name)));
  decl.set_args(std::move(args));
  s.AddTrigger(std::move(decl));
  FunctionAssoc assoc;
  assoc.function = spec->function;
  assoc.retval = retval;
  assoc.errno_value = errno_value;
  assoc.triggers.push_back(TriggerRef{"site", false});
  s.AddFunction(std::move(assoc));
  return s;
}

// --- mini-Git -----------------------------------------------------------------

class GitTest : public ::testing::Test {
 protected:
  GitTest() : git_(&fs_, &net_, "/repo") { EnsureStockTriggersRegistered(); }
  VirtualFs fs_;
  VirtualNet net_;
  MiniGit git_;
};

TEST_F(GitTest, DefaultTestSuitePasses) { EXPECT_TRUE(git_.RunDefaultTestSuite()); }

TEST_F(GitTest, ObjectStoreRoundTrip) {
  ASSERT_TRUE(git_.Init());
  auto id = git_.WriteObject("blob", "content\n");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(id->size(), 40u);
  std::string type;
  auto back = git_.ReadObject(*id, &type);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "content\n");
  EXPECT_EQ(type, "blob");
}

TEST_F(GitTest, ObjectIdsAreContentAddressed) {
  ASSERT_TRUE(git_.Init());
  auto a = git_.WriteObject("blob", "same");
  auto b = git_.WriteObject("blob", "same");
  auto c = git_.WriteObject("blob", "different");
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(*a, *b);
  EXPECT_NE(*a, *c);
}

TEST_F(GitTest, CommitAdvancesHead) {
  ASSERT_TRUE(git_.Init());
  EXPECT_FALSE(git_.HeadCommit().has_value());
  ASSERT_TRUE(git_.Add("f", "1\n"));
  auto c1 = git_.Commit("one");
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(git_.HeadCommit().value(), *c1);
  ASSERT_TRUE(git_.Add("f", "2\n"));
  auto c2 = git_.Commit("two");
  ASSERT_TRUE(c2.has_value());
  EXPECT_NE(*c1, *c2);
  // c2 records c1 as parent.
  auto body = git_.ReadObject(*c2);
  ASSERT_TRUE(body.has_value());
  EXPECT_NE(body->find("parent " + *c1), std::string::npos);
}

TEST_F(GitTest, FsckDetectsCorruption) {
  ASSERT_TRUE(git_.Init());
  ASSERT_TRUE(git_.Add("f", "x"));
  ASSERT_TRUE(git_.Commit("c").has_value());
  EXPECT_TRUE(git_.Fsck());
  fs_.WriteFile("/repo/.git/refs/heads/master", "not-a-hash");
  EXPECT_FALSE(git_.Fsck());
}

TEST_F(GitTest, OpendirBugCrashesUnderInjection) {
  ASSERT_TRUE(git_.Init());
  TestController controller(
      SiteScenarioFor(GitBinary(), "git.branches.opendir", 0, kENOMEM));
  TestOutcome outcome = controller.RunTest(&git_.libc(), [&] {
    git_.ListBranches();
    return true;
  });
  EXPECT_EQ(outcome.status, ExitStatus::kCrash);
  EXPECT_EQ(outcome.crash_kind, CrashKind::kSegfault);
  EXPECT_NE(outcome.crash_where.find("readdir"), std::string::npos);
}

TEST_F(GitTest, XmergeMalloc567CrashesUnderInjection) {
  ASSERT_TRUE(git_.Init());
  auto base = git_.WriteObject("blob", "a\nb\n");
  auto ours = git_.WriteObject("blob", "a\nB\n");
  auto theirs = git_.WriteObject("blob", "A\nb\n");
  ASSERT_TRUE(base && ours && theirs);
  TestController controller(
      SiteScenarioFor(GitBinary(), "git.xmerge.malloc567", 0, kENOMEM));
  TestOutcome outcome = controller.RunTest(&git_.libc(), [&] {
    git_.Merge(*base, *ours, *theirs);
    return true;
  });
  EXPECT_EQ(outcome.status, ExitStatus::kCrash);
  EXPECT_NE(outcome.crash_where.find("xmerge.c:567"), std::string::npos);
}

TEST_F(GitTest, PatienceMallocCrashesUnderInjection) {
  ASSERT_TRUE(git_.Init());
  auto a = git_.WriteObject("blob", "a\nb\nc\n");
  auto b = git_.WriteObject("blob", "a\nx\nc\n");
  ASSERT_TRUE(a && b);
  TestController controller(
      SiteScenarioFor(GitBinary(), "git.xpatience.malloc191", 0, kENOMEM));
  TestOutcome outcome = controller.RunTest(&git_.libc(), [&] {
    git_.PatienceDiffBlobs(*a, *b);
    return true;
  });
  EXPECT_EQ(outcome.status, ExitStatus::kCrash);
  EXPECT_NE(outcome.crash_where.find("xpatience.c:191"), std::string::npos);
}

TEST_F(GitTest, SetenvBugCorruptsRepository) {
  ASSERT_TRUE(git_.Init());
  ASSERT_TRUE(git_.Add("f", "data"));
  ASSERT_TRUE(git_.Commit("first").has_value());
  ASSERT_TRUE(git_.Fsck());
  TestController controller(SiteScenarioFor(GitBinary(), "git.hook.setenv", -1, kENOMEM));
  TestOutcome outcome = controller.RunTest(&git_.libc(), [&] {
    git_.Add("f", "more");
    return git_.Commit("second").has_value();
  });
  // No crash -- the failure is silent...
  EXPECT_NE(outcome.status, ExitStatus::kCrash);
  EXPECT_GT(outcome.injections, 0u);
  // ...but the hook ran with an incomplete environment and destroyed a ref.
  EXPECT_FALSE(git_.Fsck());
}

TEST_F(GitTest, MyersDiffMinimalScript) {
  std::vector<std::string> a = {"a", "b", "c", "a", "b", "b", "a"};
  std::vector<std::string> b = {"c", "b", "a", "b", "a", "c"};
  auto edits = MyersDiff(a, b);
  int dels = 0;
  int ins = 0;
  for (const auto& e : edits) {
    dels += e.kind == DiffEdit::Kind::kDelete;
    ins += e.kind == DiffEdit::Kind::kInsert;
  }
  EXPECT_EQ(dels + ins, 5);  // the canonical Myers example: D = 5
}

TEST_F(GitTest, MyersDiffEmptyInputs) {
  EXPECT_TRUE(MyersDiff({}, {}).empty());
  auto only_inserts = MyersDiff({}, {"x", "y"});
  ASSERT_EQ(only_inserts.size(), 2u);
  EXPECT_EQ(only_inserts[0].kind, DiffEdit::Kind::kInsert);
  auto only_deletes = MyersDiff({"x"}, {});
  ASSERT_EQ(only_deletes.size(), 1u);
  EXPECT_EQ(only_deletes[0].kind, DiffEdit::Kind::kDelete);
}

TEST_F(GitTest, MergeNonConflicting) {
  ASSERT_TRUE(git_.Init());
  auto base = git_.WriteObject("blob", "1\n2\n3\n4\n");
  auto ours = git_.WriteObject("blob", "one\n2\n3\n4\n");
  auto theirs = git_.WriteObject("blob", "1\n2\n3\nfour\n");
  auto merged = git_.Merge(*base, *ours, *theirs);
  ASSERT_TRUE(merged.has_value());
  EXPECT_FALSE(merged->conflict);
  EXPECT_EQ(JoinLines(merged->lines), "one\n2\n3\nfour\n");
}

TEST_F(GitTest, MergeConflictMarkers) {
  ASSERT_TRUE(git_.Init());
  auto base = git_.WriteObject("blob", "x\n");
  auto ours = git_.WriteObject("blob", "ours\n");
  auto theirs = git_.WriteObject("blob", "theirs\n");
  auto merged = git_.Merge(*base, *ours, *theirs);
  ASSERT_TRUE(merged.has_value());
  EXPECT_TRUE(merged->conflict);
  std::string text = JoinLines(merged->lines);
  EXPECT_NE(text.find("<<<<<<<"), std::string::npos);
  EXPECT_NE(text.find(">>>>>>>"), std::string::npos);
}

// --- mini-MySQL ----------------------------------------------------------------

class MysqlTest : public ::testing::Test {
 protected:
  MysqlTest() : mysql_(&fs_, &net_, "/mysql") {
    EnsureStockTriggersRegistered();
    fs_.WriteFile("/mysql/share/errmsg.sys", "OK\nCan't create table\nDuplicate key\n");
  }
  VirtualFs fs_;
  VirtualNet net_;
  MiniMysql mysql_;
};

TEST_F(MysqlTest, StartupLoadsErrmsg) {
  ASSERT_TRUE(mysql_.Startup());
  EXPECT_EQ(mysql_.GetErrMsg(1), "Can't create table");
}

TEST_F(MysqlTest, MissingErrmsgHandledCleanly) {
  fs_.Remove("/mysql/share/errmsg.sys");
  EXPECT_FALSE(mysql_.Startup());  // bug #25097 is fixed: clean failure
}

TEST_F(MysqlTest, ErrmsgReadFailureCrashes) {
  TestController controller(
      SiteScenarioFor(MysqlBinary(), "mysql.errmsg.read", -1, kEIO));
  TestOutcome outcome = controller.RunTest(&mysql_.libc(), [&] { return mysql_.Startup(); });
  EXPECT_EQ(outcome.status, ExitStatus::kCrash);
  EXPECT_EQ(outcome.crash_kind, CrashKind::kSegfault);
  EXPECT_NE(outcome.crash_where.find("errmsg"), std::string::npos);
}

TEST_F(MysqlTest, MiCreateSucceedsNormally) {
  EXPECT_EQ(mysql_.MiCreate("t1"), 0);
  EXPECT_TRUE(fs_.FileExists("/mysql/t1.MYD.0"));
}

TEST_F(MysqlTest, MiCreateCloseFailureDoubleUnlocks) {
  TestController controller(
      SiteScenarioFor(MysqlBinary(), "mysql.mi_create.close", -1, kEIO));
  TestOutcome outcome =
      controller.RunTest(&mysql_.libc(), [&] { return mysql_.MiCreate("t2") == 0; });
  EXPECT_EQ(outcome.status, ExitStatus::kCrash);
  EXPECT_EQ(outcome.crash_kind, CrashKind::kDoubleUnlock);
}

TEST_F(MysqlTest, MergeBigAbortsOnCheckedScanFailure) {
  // A failure in the (checked) scan phase aborts without reaching mi_create.
  Scenario s = SiteScenarioFor(MysqlBinary(), "mysql.merge.close", -1, kEIO);
  TestController controller(s);
  TestOutcome outcome = controller.RunTest(&mysql_.libc(), [&] { return mysql_.MergeBig(); });
  EXPECT_EQ(outcome.status, ExitStatus::kWorkloadError);
}

TEST_F(MysqlTest, OltpReadsAndWrites) {
  ASSERT_TRUE(mysql_.OltpInit(100));
  auto row = mysql_.OltpRead(7);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->substr(0, 9), "00000007|");
  ASSERT_TRUE(mysql_.OltpWrite(7, "00000007|updated"));
  row = mysql_.OltpRead(7);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->substr(0, 16), "00000007|updated");
  EXPECT_FALSE(mysql_.OltpRead(100).has_value());  // out of range
}

TEST_F(MysqlTest, OltpTransactionMix) {
  ASSERT_TRUE(mysql_.OltpInit(50));
  Rng rng(3);
  EXPECT_TRUE(mysql_.OltpTransaction(&rng, /*read_only=*/true));
  EXPECT_TRUE(mysql_.OltpTransaction(&rng, /*read_only=*/false));
}

TEST_F(MysqlTest, GlobalsPublished) {
  mysql_.SetThreadCount(65);
  mysql_.SetShutdownInProgress(true);
  EXPECT_EQ(mysql_.libc().GetGlobal("thread_count").value(), 65);
  EXPECT_EQ(mysql_.libc().GetGlobal("shutdown_in_progress").value(), 1);
}

// --- mini-BIND -------------------------------------------------------------------

class BindTest : public ::testing::Test {
 protected:
  BindTest() : bind_(&fs_, &net_, "/etc/bind") { EnsureStockTriggersRegistered(); }
  VirtualFs fs_;
  VirtualNet net_;
  MiniBind bind_;
};

TEST_F(BindTest, DefaultTestSuitePasses) { EXPECT_TRUE(bind_.RunDefaultTestSuite()); }

TEST_F(BindTest, ZoneLoadingAndResolution) {
  fs_.WriteFile("/etc/bind/z", "a.example 1.1.1.1\nb.example 2.2.2.2\n");
  ASSERT_TRUE(bind_.LoadZone("/etc/bind/z"));
  EXPECT_EQ(bind_.Resolve("a.example").value(), "1.1.1.1");
  EXPECT_FALSE(bind_.Resolve("missing.example").has_value());
}

TEST_F(BindTest, QueriesOverNetwork) {
  fs_.WriteFile("/etc/bind/z", "host.example 9.9.9.9\n");
  ASSERT_TRUE(bind_.LoadZone("/etc/bind/z"));
  ASSERT_TRUE(bind_.StartServer(53));
  VirtualLibc client(&fs_, &net_, "client");
  int fd = client.Socket();
  ASSERT_EQ(client.BindSocket(fd, 1234), 0);
  ASSERT_GT(client.SendTo(fd, "Q host.example", 14, 53), 0);
  EXPECT_EQ(bind_.PumpQueries(), 1);
  char buf[128];
  long n = client.RecvFrom(fd, buf, sizeof buf, nullptr);
  ASSERT_GT(n, 0);
  EXPECT_EQ(std::string(buf, static_cast<size_t>(n)), "A 9.9.9.9");
}

TEST_F(BindTest, StatsChannelRendersXml) {
  std::string stats = bind_.HandleStatsRequest();
  EXPECT_NE(stats.find("<queries>"), std::string::npos);
}

TEST_F(BindTest, StatsChannelCrashesWhenWriterAllocationFails) {
  TestController controller(
      SiteScenarioFor(BindBinary(), "bind.stats.newwriter", 0, kENOMEM));
  TestOutcome outcome = controller.RunTest(&bind_.libc(), [&] {
    bind_.HandleStatsRequest();
    return true;
  });
  EXPECT_EQ(outcome.status, ExitStatus::kCrash);
  EXPECT_EQ(outcome.crash_kind, CrashKind::kSegfault);
  EXPECT_NE(outcome.crash_where.find("xmlTextWriterWriteElement"), std::string::npos);
}

TEST_F(BindTest, DstLibInitSucceedsNormally) {
  EXPECT_TRUE(bind_.DstLibInit());
  EXPECT_TRUE(bind_.dst_initialized());
  bind_.DstLibDestroy();
  EXPECT_FALSE(bind_.dst_initialized());
}

TEST_F(BindTest, DstRecoveryFromFailedMallocAborts) {
  // Every one of the 17 allocations is checked; the recovery is the bug.
  Scenario s;
  TriggerDecl decl;
  decl.id = "nth";
  decl.class_name = "CallCountTrigger";
  auto args = std::make_unique<XmlNode>("args");
  args->AddChild("count")->set_text("5");
  decl.set_args(std::move(args));
  s.AddTrigger(std::move(decl));
  FunctionAssoc assoc;
  assoc.function = "malloc";
  assoc.retval = 0;
  assoc.errno_value = kENOMEM;
  assoc.triggers.push_back(TriggerRef{"nth", false});
  s.AddFunction(std::move(assoc));

  TestController controller(s);
  TestOutcome outcome = controller.RunTest(&bind_.libc(), [&] { return bind_.DstLibInit(); });
  EXPECT_EQ(outcome.status, ExitStatus::kCrash);
  EXPECT_EQ(outcome.crash_kind, CrashKind::kAssert);
  EXPECT_NE(outcome.crash_where.find("dst_lib_destroy"), std::string::npos);
}

TEST_F(BindTest, JournalCleanup) {
  fs_.WriteFile("/etc/bind/a.jnl", "x");
  fs_.WriteFile("/etc/bind/b.jnl", "y");
  fs_.WriteFile("/etc/bind/keep.zone", "z");
  EXPECT_EQ(bind_.CleanJournalFiles(), 2);
  EXPECT_TRUE(fs_.FileExists("/etc/bind/keep.zone"));
}

// --- mini-httpd ----------------------------------------------------------------------

class HttpdTest : public ::testing::Test {
 protected:
  HttpdTest() : httpd_(&fs_, &net_, "/www") {
    EnsureStockTriggersRegistered();
    fs_.MkDir("/www/ext");
    httpd_.InstallDefaultSite();
  }
  VirtualFs fs_;
  VirtualNet net_;
  MiniHttpd httpd_;
};

TEST_F(HttpdTest, ServesStaticContent) {
  std::string body = httpd_.ProcessRequest({"/index.html", kMethodGet, ""});
  EXPECT_NE(body.find("static content line 0"), std::string::npos);
  EXPECT_EQ(httpd_.requests_served(), 1u);
}

TEST_F(HttpdTest, Serves404ForMissing) {
  EXPECT_EQ(httpd_.ProcessRequest({"/nope.html", kMethodGet, ""}), "404 Not Found");
}

TEST_F(HttpdTest, ServesPhp) {
  std::string body = httpd_.ProcessRequest({"/page.php", kMethodPost, "seed"});
  EXPECT_NE(body.find("<html>"), std::string::npos);
  EXPECT_EQ(body.size(), 53u);  // <html> + 40-hex digest + </html>
}

TEST_F(HttpdTest, ExtModuleRoutesThroughModExt) {
  EXPECT_EQ(httpd_.ProcessRequest({"/ext/data.bin", kMethodGet, ""}), "ext ok");
}

TEST_F(HttpdTest, MethodNumberPublishedForStateTrigger) {
  httpd_.ProcessRequest({"/index.html", kMethodPost, "body"});
  EXPECT_EQ(httpd_.libc().GetGlobal("request.method_number").value(), kMethodPost);
  httpd_.ProcessRequest({"/index.html", kMethodGet, ""});
  EXPECT_EQ(httpd_.libc().GetGlobal("request.method_number").value(), kMethodGet);
}

TEST_F(HttpdTest, PostOnlyInjectionViaStateTrigger) {
  // §7.4 trigger 4: inject only when the request is a POST.
  Scenario s;
  TriggerDecl decl;
  decl.id = "post";
  decl.class_name = "ProgramStateTrigger";
  auto args = std::make_unique<XmlNode>("args");
  args->AddChild("var")->set_text("request.method_number");
  args->AddChild("op")->set_text("eq");
  args->AddChild("value")->set_text("1");
  decl.set_args(std::move(args));
  s.AddTrigger(std::move(decl));
  FunctionAssoc assoc;
  assoc.function = "apr_file_read";
  assoc.retval = -1;
  assoc.errno_value = kEIO;
  assoc.triggers.push_back(TriggerRef{"post", false});
  s.AddFunction(std::move(assoc));

  Runtime runtime(s);
  httpd_.libc().set_interposer(&runtime);
  EXPECT_NE(httpd_.ProcessRequest({"/index.html", kMethodGet, ""}), "500 Internal Server Error");
  EXPECT_EQ(httpd_.ProcessRequest({"/index.html", kMethodPost, ""}),
            "500 Internal Server Error");
  httpd_.libc().set_interposer(nullptr);
}

// --- binary/site-table consistency -----------------------------------------------------

TEST(AppBinaries, SiteOffsetsResolve) {
  for (const AppBinary* binary :
       {&GitBinary(), &MysqlBinary(), &BindBinary(), &HttpdBinary()}) {
    for (const CallSiteSpec& site : binary->sites()) {
      uint32_t offset = binary->SiteOffset(site.site_name);
      ASSERT_NE(offset, 0xffffffffu) << site.site_name;
      Instruction instr;
      ASSERT_TRUE(binary->image().Decode(offset, &instr)) << site.site_name;
      EXPECT_EQ(instr.op, Op::kCall) << site.site_name;
      EXPECT_EQ(instr.flags, kCallImport) << site.site_name;
      EXPECT_EQ(binary->image().imports()[static_cast<size_t>(instr.imm)], site.function)
          << site.site_name;
      const ImageSymbol* sym = binary->image().SymbolContaining(offset);
      ASSERT_NE(sym, nullptr) << site.site_name;
      EXPECT_EQ(sym->name, site.enclosing) << site.site_name;
    }
  }
}

TEST(AppBinaries, Table4Populations) {
  auto count = [](const AppBinary& binary, const char* function) {
    return binary.SitesFor(function).size();
  };
  EXPECT_EQ(count(GitBinary(), "malloc"), 25u);
  EXPECT_EQ(count(GitBinary(), "close"), 127u);
  EXPECT_EQ(count(GitBinary(), "readlink"), 7u);
  EXPECT_EQ(count(BindBinary(), "malloc"), 17u);
  EXPECT_EQ(count(BindBinary(), "unlink"), 6u);
  EXPECT_EQ(count(BindBinary(), "open"), 6u);
  EXPECT_EQ(count(BindBinary(), "close"), 39u);
}

}  // namespace
}  // namespace lfi
