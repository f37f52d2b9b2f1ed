#include <gtest/gtest.h>

#include "analysis/callsite_analyzer.h"
#include "core/runtime.h"
#include "core/scenario_gen.h"
#include "core/stock_triggers.h"
#include "image/assembler.h"
#include "util/errno_codes.h"
#include "vlib/library_profiles.h"
#include "vlib/virtual_libc.h"

namespace lfi {
namespace {

// A small "application binary" with one checked and one unchecked fopen call,
// plus a partially-checked pthread_mutex_lock (E = {EDEADLK, EINVAL}).
constexpr const char* kAppAsm = R"(
module demo-app
func good_path
  call fopen
  test r0, r0
  je .err
  ret
.err:
  movi r0, 0
  ret
end
func bad_path
  call fopen
  mov r1, r0
  call fwrite
  ret
end
func partial_lock
  call pthread_mutex_lock
  cmpi r0, 35
  je .dead
  ret
.dead:
  ret
end
)";

class ScenarioGenTest : public ::testing::Test {
 protected:
  ScenarioGenTest() {
    EnsureStockTriggersRegistered();
    auto image = Assemble(kAppAsm);
    EXPECT_TRUE(image.has_value());
    image_ = *image;
    profile_ = LibcProfile();
  }

  Image image_;
  FaultProfile profile_;
};

TEST_F(ScenarioGenTest, UncheckedSiteGetsScenario) {
  CallSiteAnalyzer analyzer;
  auto reports =
      analyzer.Analyze(image_, "fopen", profile_.Find("fopen")->ErrorCodes());
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].check_class, CheckClass::kFull);
  EXPECT_EQ(reports[1].check_class, CheckClass::kNone);

  GeneratedScenarios scenarios = GenerateScenarios(reports, profile_);
  ASSERT_EQ(scenarios.unchecked.triggers().size(), 1u);
  ASSERT_EQ(scenarios.unchecked.functions().size(), 1u);
  EXPECT_TRUE(scenarios.partial.triggers().empty());

  const TriggerDecl& decl = scenarios.unchecked.triggers()[0];
  EXPECT_EQ(decl.class_name, "CallStackTrigger");
  ASSERT_NE(decl.args(), nullptr);
  const XmlNode* frame = decl.args()->Child("frame");
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->ChildText("module"), "demo-app");

  const FunctionAssoc& assoc = scenarios.unchecked.functions()[0];
  EXPECT_EQ(assoc.function, "fopen");
  EXPECT_EQ(assoc.retval, 0);  // fopen fails with NULL
  EXPECT_NE(assoc.errno_value, 0);
}

TEST_F(ScenarioGenTest, PartialSiteInjectsMissingCode) {
  CallSiteAnalyzer analyzer;
  auto reports = analyzer.Analyze(image_, "pthread_mutex_lock",
                                  profile_.Find("pthread_mutex_lock")->ErrorCodes());
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_EQ(reports[0].check_class, CheckClass::kPartial);

  GeneratedScenarios scenarios = GenerateScenarios(reports, profile_);
  ASSERT_EQ(scenarios.partial.functions().size(), 1u);
  // EDEADLK (35) is checked; the missing EINVAL must be injected.
  EXPECT_EQ(scenarios.partial.functions()[0].retval, kEINVAL);
}

TEST_F(ScenarioGenTest, GeneratedScenarioParsesAndLoads) {
  CallSiteAnalyzer analyzer;
  auto reports =
      analyzer.Analyze(image_, "fopen", profile_.Find("fopen")->ErrorCodes());
  GeneratedScenarios scenarios = GenerateScenarios(reports, profile_);
  std::string xml = scenarios.unchecked.ToXml();
  std::string error;
  auto parsed = Scenario::Parse(xml, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  Runtime runtime(*parsed);
  EXPECT_TRUE(runtime.error().empty()) << runtime.error();
}

TEST_F(ScenarioGenTest, GeneratedScenarioFiresAtTheRightSite) {
  CallSiteAnalyzer analyzer;
  auto reports =
      analyzer.Analyze(image_, "fopen", profile_.Find("fopen")->ErrorCodes());
  GeneratedScenarios scenarios = GenerateScenarios(reports, profile_);
  uint32_t bad_site_offset = 0;
  for (const auto& r : reports) {
    if (r.check_class == CheckClass::kNone) {
      bad_site_offset = r.site.offset;
    }
  }

  VirtualFs fs;
  VirtualNet net;
  VirtualLibc libc(&fs, &net, "demo-app");
  fs.MkDir("/d");
  fs.WriteFile("/d/f", "x");

  Runtime runtime(scenarios.unchecked);
  libc.set_interposer(&runtime);
  {
    // Simulated execution of the *checked* site: no injection.
    ScopedFrame frame(&libc.stack(), "demo-app", "good_path");
    frame.set_offset(0);  // the checked call site is at offset 0
    VFile* f = libc.FOpen("/d/f", "r");
    EXPECT_NE(f, nullptr);
    libc.FClose(f);
  }
  {
    // Simulated execution of the *unchecked* site: injection.
    ScopedFrame frame(&libc.stack(), "demo-app", "bad_path");
    frame.set_offset(bad_site_offset);
    EXPECT_EQ(libc.FOpen("/d/f", "r"), nullptr);
  }
  libc.set_interposer(nullptr);
  EXPECT_EQ(runtime.injections(), 1u);
}

TEST_F(ScenarioGenTest, SiteScenarioForFullyCheckedSiteStillTargetsIt) {
  CallSiteAnalyzer analyzer;
  auto reports =
      analyzer.Analyze(image_, "fopen", profile_.Find("fopen")->ErrorCodes());
  // GenerateSiteScenario works site by site regardless of class.
  Scenario one = GenerateSiteScenario(reports[0], profile_);
  EXPECT_EQ(one.triggers().size(), 1u);
  EXPECT_EQ(one.functions().size(), 1u);
}

TEST_F(ScenarioGenTest, UnknownFunctionProducesNothing) {
  CallSiteReport report;
  report.site.module = "m";
  report.site.function = "not_in_profile";
  report.check_class = CheckClass::kNone;
  Scenario s = GenerateSiteScenario(report, profile_);
  EXPECT_TRUE(s.triggers().empty());
  EXPECT_TRUE(s.functions().empty());
}

}  // namespace
}  // namespace lfi
