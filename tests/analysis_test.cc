#include <gtest/gtest.h>

#include "analysis/callsite_analyzer.h"
#include "analysis/cfg.h"
#include "analysis/dataflow.h"
#include "apps/bfs/bfs.h"
#include "apps/common/app_binary.h"
#include "apps/bind/bind.h"
#include "apps/git/git.h"
#include "apps/mysql/mysql.h"
#include "apps/pbft/pbft.h"
#include "core/analysis_cache.h"
#include "image/assembler.h"
#include "util/sha1.h"
#include "util/string_util.h"
#include "vlib/library_profiles.h"

namespace lfi {
namespace {

Image Asm(const std::string& body) {
  AsmError error;
  auto image = Assemble(body, &error);
  EXPECT_TRUE(image.has_value()) << error.message << " at line " << error.line;
  return std::move(*image);
}

// Convenience: analyze the single call site of `function` in `image`.
CallSiteReport AnalyzeOne(const Image& image, const std::string& function,
                          const std::set<int64_t>& error_codes) {
  CallSiteAnalyzer analyzer;
  auto reports = analyzer.Analyze(image, function, error_codes);
  EXPECT_EQ(reports.size(), 1u);
  return reports.empty() ? CallSiteReport{} : reports[0];
}

TEST(Cfg, StraightLine) {
  Image image = Asm(R"(
module m
func f
  call read
  movi r1, 0
  movi r2, 0
  ret
end
)");
  PartialCfg cfg = BuildPartialCfg(image, kInstrSize);
  EXPECT_EQ(cfg.nodes().size(), 3u);  // movi, movi, ret
  const CfgNode* entry = cfg.node(kInstrSize);
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->succs.size(), 1u);
}

TEST(Cfg, BranchBothWays) {
  Image image = Asm(R"(
module m
func f
  call read
  cmpi r0, -1
  je .err
  movi r1, 0
  ret
.err:
  movi r1, 1
  ret
end
)");
  PartialCfg cfg = BuildPartialCfg(image, kInstrSize);
  const CfgNode* branch = cfg.node(2 * kInstrSize);
  ASSERT_NE(branch, nullptr);
  EXPECT_EQ(branch->succs.size(), 2u);
  EXPECT_EQ(cfg.nodes().size(), 6u);
}

TEST(Cfg, WindowLimitRespected) {
  std::string body = "module m\nfunc f\n  call read\n";
  for (int i = 0; i < 300; ++i) {
    body += "  nop\n";
  }
  body += "  ret\nend\n";
  Image image = Asm(body);
  PartialCfg cfg = BuildPartialCfg(image, kInstrSize, 100);
  EXPECT_LE(cfg.nodes().size(), 100u);
}

TEST(Cfg, LoopDoesNotDiverge) {
  Image image = Asm(R"(
module m
func f
  call read
.loop:
  addi r1, 1
  cmpi r1, 10
  jl .loop
  ret
end
)");
  PartialCfg cfg = BuildPartialCfg(image, kInstrSize);
  EXPECT_EQ(cfg.nodes().size(), 4u);
}

TEST(Dataflow, DirectEqualityCheck) {
  Image image = Asm(R"(
module m
func f
  call read
  cmpi r0, -1
  je .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_TRUE(flow.chk_eq.count(-1));
  EXPECT_FALSE(flow.has_ineq_check);
}

TEST(Dataflow, InequalityCheck) {
  Image image = Asm(R"(
module m
func f
  call read
  cmpi r0, 0
  jl .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_TRUE(flow.has_ineq_check);
  EXPECT_TRUE(flow.chk_ineq.count(0));
}

TEST(Dataflow, SignTestIsInequality) {
  Image image = Asm(R"(
module m
func f
  call read
  test r0, r0
  js .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_TRUE(flow.has_ineq_check);
}

TEST(Dataflow, TestWithJeIsZeroEquality) {
  Image image = Asm(R"(
module m
func f
  call malloc
  test r0, r0
  je .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_TRUE(flow.chk_eq.count(0));
  EXPECT_FALSE(flow.has_ineq_check);
}

TEST(Dataflow, CopyThroughRegister) {
  Image image = Asm(R"(
module m
func f
  call read
  mov r6, r0
  movi r0, 7
  cmpi r6, -1
  je .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_TRUE(flow.chk_eq.count(-1));
}

TEST(Dataflow, SpillAndReloadThroughStack) {
  Image image = Asm(R"(
module m
func f
  call read
  store [sp+8], r0
  call write
  load r2, [sp+8]
  cmpi r2, -1
  je .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  // The copy survived the second call on the stack even though r0 was
  // clobbered.
  EXPECT_TRUE(flow.chk_eq.count(-1));
}

TEST(Dataflow, CallClobbersRetReg) {
  Image image = Asm(R"(
module m
func f
  call read
  call write
  cmpi r0, -1
  je .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  // The compare checks write()'s return, not read()'s: no check recorded.
  EXPECT_TRUE(flow.chk_eq.empty());
}

TEST(Dataflow, CalleeSavedSurvivesCall) {
  Image image = Asm(R"(
module m
func f
  call read
  mov r7, r0
  call write
  cmpi r7, -1
  je .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_TRUE(flow.chk_eq.count(-1));
}

TEST(Dataflow, ArithmeticKillsValue) {
  Image image = Asm(R"(
module m
func f
  call read
  addi r0, 5
  cmpi r0, -1
  je .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_TRUE(flow.chk_eq.empty());
}

TEST(Dataflow, OverwriteKillsValue) {
  Image image = Asm(R"(
module m
func f
  call read
  movi r0, 3
  cmpi r0, -1
  je .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_TRUE(flow.chk_eq.empty());
}

TEST(Dataflow, LoopReachesFixpoint) {
  Image image = Asm(R"(
module m
func f
  call read
  mov r6, r0
.loop:
  mov r7, r6
  addi r1, 1
  cmpi r1, 4
  jl .loop
  cmpi r7, -1
  je .err
  ret
.err:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_TRUE(flow.chk_eq.count(-1));
  EXPECT_GT(flow.iterations, 0);
}

TEST(Dataflow, MultipleChecksOnDifferentPaths) {
  Image image = Asm(R"(
module m
func f
  call read
  cmpi r0, -1
  je .a
  cmpi r0, 0
  je .b
  ret
.a:
  ret
.b:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_TRUE(flow.chk_eq.count(-1));
  EXPECT_TRUE(flow.chk_eq.count(0));
}

TEST(Dataflow, CheckReachedOnlyThroughAChainOfConditionalJumps) {
  // One compare sets the flags that three successive conditional jumps
  // read. The jl is two jumps past the compare, so only a walk along the
  // chain sees that the value is also compared by inequality.
  Image image = Asm(R"(
module m
func f
  call read
  cmpi r0, 5
  je .a
  jne .b
  jl .c
  ret
.a:
  ret
.b:
  ret
.c:
  ret
end
)");
  DataflowResult flow = AnalyzeReturnValueFlow(BuildPartialCfg(image, kInstrSize));
  EXPECT_EQ(flow.chk_eq, std::set<int64_t>{5});
  EXPECT_EQ(flow.chk_ineq, std::set<int64_t>{5});
  EXPECT_TRUE(flow.has_ineq_check);
}

TEST(Dataflow, CheckNearTheEdgeOfThePostCallWindow) {
  // The window holds the paper's 100 post-call instructions. A check whose
  // jump is the window's last instruction is seen; the same check one
  // instruction later is not.
  auto check_after = [](size_t padding) {
    std::string body = "module m\nfunc f\n  call read\n";
    for (size_t i = 0; i < padding; ++i) {
      body += "  nop\n";
    }
    body += "  cmpi r0, -1\n  je .err\n  ret\n.err:\n  ret\nend\n";
    return AnalyzeReturnValueFlow(BuildPartialCfg(Asm(body), kInstrSize));
  };
  EXPECT_EQ(check_after(98).chk_eq, std::set<int64_t>{-1});
  EXPECT_TRUE(check_after(99).chk_eq.empty());
}

TEST(Dataflow, LoopRequeuesANodeOnlyWhenItsInSetGrows) {
  // The back edge carries a new copy (r1) into the loop head, whose IN set
  // grows from {r0} to {r0, r1}. The growth reaches every node but the
  // back-edge jmp, which already saw r1 from the join's mov, so the 9 nodes
  // take 9 + 8 = 17 iterations. Both arms of the inner diamond reach the
  // join before it is processed; a worklist that queued it twice would
  // count 19.
  Image image = Asm(R"(
module m
func f
  call read
.loop:
  cmpi r1, -1
  je .out
  test r2, r2
  js .x
  jmp .join
.x:
  movi r3, 0
.join:
  mov r1, r0
  jmp .loop
.out:
  ret
end
)");
  PartialCfg cfg = BuildPartialCfg(image, kInstrSize);
  ASSERT_EQ(cfg.nodes().size(), 9u);
  DataflowResult flow = AnalyzeReturnValueFlow(cfg);
  EXPECT_EQ(flow.chk_eq, std::set<int64_t>{-1});
  EXPECT_EQ(flow.iterations, 17);
}

// --- Algorithm 1 classification ------------------------------------------------

TEST(CallSiteAnalyzer, FindsAllSites) {
  Image image = Asm(R"(
module m
func f
  call read
  call write
  call read
  ret
end
)");
  auto sites = CallSiteAnalyzer::FindCallSites(image, "read");
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0].offset, 0u);
  EXPECT_EQ(sites[1].offset, 2 * kInstrSize);
  EXPECT_EQ(sites[0].enclosing, "f");
  EXPECT_EQ(sites[0].module, "m");
}

TEST(CallSiteAnalyzer, NoSitesForUnimportedFunction) {
  Image image = Asm("module m\nfunc f\n  ret\nend\n");
  EXPECT_TRUE(CallSiteAnalyzer::FindCallSites(image, "read").empty());
}

TEST(CallSiteAnalyzer, FullyCheckedByEquality) {
  Image image = Asm(R"(
module m
func f
  call read
  cmpi r0, -1
  je .err
  ret
.err:
  ret
end
)");
  auto report = AnalyzeOne(image, "read", {-1});
  EXPECT_EQ(report.check_class, CheckClass::kFull);
  EXPECT_TRUE(report.missing_codes.empty());
}

TEST(CallSiteAnalyzer, FullyCheckedByInequality) {
  Image image = Asm(R"(
module m
func f
  call read
  cmpi r0, 0
  jl .err
  ret
.err:
  ret
end
)");
  // Inequality covers the whole error range (Algorithm 1 line 6).
  auto report = AnalyzeOne(image, "read", {-1, 0});
  EXPECT_EQ(report.check_class, CheckClass::kFull);
}

TEST(CallSiteAnalyzer, PartiallyChecked) {
  Image image = Asm(R"(
module m
func f
  call read
  cmpi r0, -1
  je .err
  ret
.err:
  ret
end
)");
  auto report = AnalyzeOne(image, "read", {-1, 0});
  EXPECT_EQ(report.check_class, CheckClass::kPartial);
  EXPECT_EQ(report.missing_codes, std::set<int64_t>{0});
}

TEST(CallSiteAnalyzer, CompletelyUnchecked) {
  Image image = Asm(R"(
module m
func f
  call read
  movi r1, 0
  ret
end
)");
  auto report = AnalyzeOne(image, "read", {-1});
  EXPECT_EQ(report.check_class, CheckClass::kNone);
  EXPECT_EQ(report.missing_codes, std::set<int64_t>{-1});
}

TEST(CallSiteAnalyzer, CheckOutsideErrorSetIsStillUnchecked) {
  // Algorithm 1 lines 10-11: checking codes outside E does not count.
  Image image = Asm(R"(
module m
func f
  call read
  cmpi r0, 17
  je .x
  ret
.x:
  ret
end
)");
  auto report = AnalyzeOne(image, "read", {-1});
  EXPECT_EQ(report.check_class, CheckClass::kNone);
}

TEST(CallSiteAnalyzer, StatsPopulated) {
  Image image = Asm(R"(
module m
func f
  call read
  cmpi r0, -1
  je .e
  ret
.e:
  ret
end
)");
  CallSiteAnalyzer analyzer;
  AnalyzerStats stats;
  analyzer.Analyze(image, "read", {-1}, &stats);
  EXPECT_EQ(stats.call_sites, 1u);
  EXPECT_GT(stats.instructions_visited, 0u);
  EXPECT_GT(stats.dataflow_iterations, 0);
}

TEST(CallSiteAnalyzer, IterationsGrowLinearlyWithSiteCount) {
  // §7.2: analysis cost scales with the number of call sites. Synthetic
  // binaries of 16 to 1,024 sites (checked by equality, by inequality, or
  // not at all; ten to a function) cost the same number of dataflow
  // iterations per site, at most two per CFG node.
  std::vector<double> per_site;
  for (int sites : {16, 64, 256, 1024}) {
    AppBinaryBuilder b(StrFormat("synthetic-%d", sites));
    for (int i = 0; i < sites; ++i) {
      const CheckPattern patterns[] = {CheckPattern::kCheckEqAll, CheckPattern::kCheckIneq,
                                       CheckPattern::kNoCheck};
      b.AddSite({StrFormat("s%05d", i), StrFormat("fn_%d", i / 10), "read", patterns[i % 3],
                 {-1}});
    }
    AppBinary binary = b.Build();
    AnalyzerStats stats;
    CallSiteAnalyzer().Analyze(binary.image(), "read", {-1}, &stats);
    ASSERT_EQ(stats.call_sites, static_cast<size_t>(sites));
    EXPECT_LE(static_cast<size_t>(stats.dataflow_iterations), 2 * stats.instructions_visited)
        << sites << " sites";
    per_site.push_back(static_cast<double>(stats.dataflow_iterations) / sites);
  }
  for (double cost : per_site) {
    EXPECT_GE(cost, 0.8 * per_site.back());
    EXPECT_LE(cost, 1.25 * per_site.back());
  }
}

TEST(CallSiteAnalyzer, IndirectCallsIgnored) {
  // An indirect call between the site and the check is treated as opaque
  // (clobbers caller-saved registers) but does not break the CFG.
  Image image = Asm(R"(
module m
func f
  call read
  mov r6, r0
  callr r3
  cmpi r6, -1
  je .e
  ret
.e:
  ret
end
)");
  auto report = AnalyzeOne(image, "read", {-1});
  EXPECT_EQ(report.check_class, CheckClass::kFull);
}

// --- Reports of the real targets ----------------------------------------------

struct Target {
  const char* name;
  const AppBinary& (*binary)();
};

const Target kTargets[] = {
    {"git", GitBinary}, {"mysql", MysqlBinary}, {"bind", BindBinary},
    {"pbft", PbftBinary}, {"bfs", BfsBinary},
};

std::string Literals(const std::set<int64_t>& set) {
  std::string out;
  for (int64_t v : set) {
    out += StrFormat("%lld,", static_cast<long long>(v));
  }
  return out;
}

// Every field of `report` that the campaigns read, as one line.
std::string ReportLine(const CallSiteReport& r) {
  return StrFormat("%s|%u|%s|%s|%s|eq=%s|ineq=%s|%d|missing=%s\n", r.site.module.c_str(),
                   r.site.offset, r.site.function.c_str(), r.site.enclosing.c_str(),
                   CheckClassName(r.check_class), Literals(r.checked_eq).c_str(),
                   Literals(r.checked_ineq).c_str(), r.has_ineq_check ? 1 : 0,
                   Literals(r.missing_codes).c_str());
}

// The analysis's output contract: every report of every target under the
// libc and libxml2 profiles, in the order AnalysisCache::Reports builds them,
// hashed. A CFG or dataflow change that moves any report (a site, its class,
// a checked literal or a missing code) changes the digest.
TEST(TargetReports, DigestOfEveryReportIsPinned) {
  CallSiteAnalyzer analyzer;
  Sha1 sha;
  size_t reports = 0;
  for (const Target& target : kTargets) {
    for (const FaultProfile& profile : {LibcProfile(), LibxmlProfile()}) {
      for (const auto& [name, fn] : profile.functions()) {
        for (const CallSiteReport& r :
             analyzer.Analyze(target.binary().image(), name, fn.ErrorCodes())) {
          sha.Update(ReportLine(r));
          ++reports;
        }
      }
    }
  }
  EXPECT_EQ(reports, 303u);
  EXPECT_EQ(Sha1::ToHex(sha.Finish()), "1e9352a96ac18b3759db53b7742f8eb7de0c0284");
}

// AnalysisCache finds every profiled function's call sites in one pass over
// the text; its reports are the per-function analyses, in profile order.
TEST(TargetReports, OnePassSiteScanAgreesWithPerFunctionScan) {
  CallSiteAnalyzer analyzer;
  for (const Target& target : kTargets) {
    const Image& image = target.binary().image();
    std::vector<std::vector<CallSite>> by_import = CallSiteAnalyzer::FindImportCallSites(image);
    ASSERT_EQ(by_import.size(), image.imports().size()) << target.name;
    for (size_t i = 0; i < by_import.size(); ++i) {
      std::vector<CallSite> want = CallSiteAnalyzer::FindCallSites(image, image.imports()[i]);
      ASSERT_EQ(by_import[i].size(), want.size()) << target.name << " " << image.imports()[i];
      for (size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(by_import[i][k].offset, want[k].offset);
        EXPECT_EQ(by_import[i][k].function, want[k].function);
        EXPECT_EQ(by_import[i][k].enclosing, want[k].enclosing);
        EXPECT_EQ(by_import[i][k].module, want[k].module);
      }
    }
    for (const FaultProfile& profile : {LibcProfile(), LibxmlProfile()}) {
      std::string want;
      for (const auto& [name, fn] : profile.functions()) {
        for (const CallSiteReport& r : analyzer.Analyze(image, name, fn.ErrorCodes())) {
          want += ReportLine(r);
        }
      }
      std::string got;
      for (const CallSiteReport& r : AnalysisCache::Instance().Reports(image, profile)) {
        got += ReportLine(r);
      }
      EXPECT_EQ(got, want) << target.name << " under " << profile.library();
    }
  }
}

// §7.2: the analysis is cheap because the worklist processes each post-call
// node once, and again only when the node's IN set grows. On every target it
// takes at most two dataflow iterations per CFG node.
TEST(TargetReports, DataflowIterationsAtMostTwicePerNode) {
  CallSiteAnalyzer analyzer;
  for (const Target& target : kTargets) {
    for (const FaultProfile& profile : {LibcProfile(), LibxmlProfile()}) {
      AnalyzerStats stats;
      for (const auto& [name, fn] : profile.functions()) {
        analyzer.Analyze(target.binary().image(), name, fn.ErrorCodes(), &stats);
      }
      EXPECT_LE(static_cast<size_t>(stats.dataflow_iterations), 2 * stats.instructions_visited)
          << target.name << " under " << profile.library();
    }
  }
}

}  // namespace
}  // namespace lfi
