// Golden outcome guard: a fixed random exploration of every journaled target
// must keep producing the exact same journal bytes. Performance work on the
// app layers (call-site resolution, live frames, the pbft wire codec) is only
// correct if it leaves every outcome unchanged, and a journal digest pins all
// of it at once: which injections ran, where, what each run found, and the
// coverage it reached. The digests do not depend on the worker count.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "apps/common/campaign_driver.h"
#include "campaign_test_util.h"
#include "util/sha1.h"

namespace lfi {
namespace {

struct Golden {
  const char* system;
  const char* journal_sha1;
};

class GoldenOutcome : public ::testing::TestWithParam<Golden> {};

// explore <system> --strategy random --budget 64 --seed 7
TEST_P(GoldenOutcome, RandomExploreJournalBytes) {
  const Golden& golden = GetParam();
  for (int workers : {1, 4}) {
    std::string path = TempPath(std::string("golden_") + golden.system + ".lfij");
    std::remove(path.c_str());
    CampaignSpec spec;
    spec.system = golden.system;
    spec.mode = CampaignMode::kExplore;
    spec.strategy = ExploreStrategy::kRandom;
    spec.budget = 64;
    spec.seed = 7;
    spec.workers = workers;
    spec.journal_path = path;
    RunSpec(spec);
    EXPECT_EQ(Sha1::HexDigest(ReadFile(path)), golden.journal_sha1) << workers << " workers";
    std::remove(path.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Targets, GoldenOutcome,
    ::testing::Values(Golden{"pbft", "88024fa34fb2c358c46d98f81d49173b699e6ec5"},
                      Golden{"bfs", "436b48f524042ca5f3ef82a4a74b23526d80aaca"},
                      Golden{"git", "dd003c109a61a2a848e9335319ac1e625a33a402"},
                      Golden{"mysql", "88dabaf5780e2900760277ffcbbd5abd45e1f287"},
                      Golden{"bind", "aa2036698a889aed8cc7ef97ecd5ee11d36075fe"}),
    [](const ::testing::TestParamInfo<Golden>& info) { return std::string(info.param.system); });

}  // namespace
}  // namespace lfi
