// Golden outcome guard: a fixed random exploration of every journaled target
// must keep producing the exact same journal bytes. Performance work on the
// app layers (call-site resolution, live frames, the pbft wire codec) is only
// correct if it leaves every outcome unchanged, and a journal digest pins all
// of it at once: which injections ran, where, what each run found, and the
// coverage it reached. The digests do not depend on the worker count.
// Budget 64 pins all five targets. Budget 400 pins all five too: for git,
// mysql and bind it is campaign_bench small-sweep's spec, whose journals the
// merge point encodes fastest and whose inert-job share is largest; for pbft
// and bfs it is the pbft-random workload's spec and the recording replay
// replays, so every datagram those workloads push through the pbft wire
// codec and the virtual fabric is pinned by its outcome.

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
  size_t budget;
  const char* journal_sha1;
};

class GoldenOutcome : public ::testing::TestWithParam<Golden> {};

// explore <system> --strategy random --budget <budget> --seed 7
TEST_P(GoldenOutcome, RandomExploreJournalBytes) {
  const Golden& golden = GetParam();
  for (int workers : {1, 4}) {
    std::string path = TempPath(std::string("golden_") + golden.system + "_" +
                                std::to_string(golden.budget) + ".lfij");
    std::remove(path.c_str());
    CampaignSpec spec;
    spec.system = golden.system;
    spec.mode = CampaignMode::kExplore;
    spec.strategy = ExploreStrategy::kRandom;
    spec.budget = golden.budget;
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
    ::testing::Values(Golden{"pbft", 64, "88024fa34fb2c358c46d98f81d49173b699e6ec5"},
                      Golden{"bfs", 64, "436b48f524042ca5f3ef82a4a74b23526d80aaca"},
                      Golden{"git", 64, "dd003c109a61a2a848e9335319ac1e625a33a402"},
                      Golden{"mysql", 64, "88dabaf5780e2900760277ffcbbd5abd45e1f287"},
                      Golden{"bind", 64, "aa2036698a889aed8cc7ef97ecd5ee11d36075fe"}),
    [](const ::testing::TestParamInfo<Golden>& info) { return std::string(info.param.system); });

INSTANTIATE_TEST_SUITE_P(
    SmallSweepBudget, GoldenOutcome,
    ::testing::Values(Golden{"git", 400, "cb9fd2727ca4912525034134c29be13adf3e63b6"},
                      Golden{"mysql", 400, "9f968e04d21717da18a0bda79c83120200bf9eaa"},
                      Golden{"bind", 400, "b35d91d90332e918955da3033733a3002039010e"}),
    [](const ::testing::TestParamInfo<Golden>& info) { return std::string(info.param.system); });

INSTANTIATE_TEST_SUITE_P(
    NetworkBudget, GoldenOutcome,
    ::testing::Values(Golden{"pbft", 400, "1cb65a5842e8b68d87085bd84c7158a0921c227a"},
                      Golden{"bfs", 400, "f374f76208a0664555f9f4d31fd8690a60668f25"}),
    [](const ::testing::TestParamInfo<Golden>& info) { return std::string(info.param.system); });

}  // namespace
}  // namespace lfi
