// The feedback-driven exploration pipeline: ScenarioSource streaming,
// injection-log replay through the engine, seed reproducibility at 1/2/8
// workers, and the coverage-guided strategy's win over the exhaustive list.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "apps/git/git.h"
#include "campaign_test_util.h"
#include "core/campaign_engine.h"
#include "core/controller.h"
#include "core/exploration.h"
#include "core/injection_log.h"
#include "core/journal.h"
#include "core/stock_triggers.h"
#include "util/errno_codes.h"
#include "vlib/library_profiles.h"
#include "vlib/virtual_libc.h"

namespace lfi {
namespace {

// --- ExhaustiveSource streaming -------------------------------------------

TEST(ExhaustiveSource, StreamsInOrderAndHonoursTheBudget) {
  std::vector<CampaignJob> jobs(10);
  for (size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].label = "job-" + std::to_string(i);
  }
  ExhaustiveSource source(std::move(jobs), /*budget=*/7);
  std::vector<std::string> labels;
  for (size_t expected : {3u, 3u, 1u, 0u}) {
    std::vector<CampaignJob> batch = source.NextBatch(3);
    EXPECT_EQ(batch.size(), expected);
    for (const CampaignJob& job : batch) {
      labels.push_back(job.label);
    }
  }
  ASSERT_EQ(labels.size(), 7u);
  for (size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(labels[i], "job-" + std::to_string(i));
  }
}

// --- injection-log replay --------------------------------------------------

// A fault found by random injection, replayed deterministically from its log
// record: the replay must crash at the same site with the same single
// injection (the paper's R2-style "reproduce exactly that injection").
TEST(InjectionLogReplay, ReplayedScenarioReproducesTheCrashSiteThroughTheEngine) {
  EnsureStockTriggersRegistered();

  // Expose the Table 1 readdir bug by failing every opendir.
  Scenario every_opendir = MakeRandomScenario("opendir", 0, kEMFILE, 1.0, /*seed=*/1);
  InjectionLog log;
  std::string crash_where;
  {
    VirtualFs fs;
    VirtualNet net;
    MiniGit git(&fs, &net, "/repo");
    TestController controller(every_opendir, SeededOptions(1));
    TestOutcome outcome = controller.RunTest(&git.libc(), [&] {
      git.Init();
      git.ListBranches();
      return true;
    });
    ASSERT_TRUE(outcome.crashed());
    crash_where = outcome.crash_where;
    ASSERT_FALSE(controller.runtime()->log().empty());
    log = controller.runtime()->log();
  }

  // The last record is the injection the process died on.
  Scenario replay = log.ReplayScenario(log.size() - 1);
  ASSERT_FALSE(replay.functions().empty());

  CampaignJob job;
  job.scenario = replay;
  job.label = "replay";
  ExhaustiveSource source({job});
  CampaignEngine engine;
  ExplorationResult result = engine.Run(source, [](const CampaignJob& self) {
    JobResult result;
    VirtualFs fs;
    VirtualNet net;
    MiniGit git(&fs, &net, "/repo");
    TestController controller(self.scenario, SeededOptions(self.seed));
    TestOutcome outcome = controller.RunTest(&git.libc(), [&] {
      git.Init();
      git.ListBranches();
      return true;
    });
    if (outcome.crashed()) {
      result.bugs.push_back(
          {"git", CrashKindName(outcome.crash_kind), outcome.crash_where, self.label});
    }
    result.injections = outcome.injections;
    return result;
  });
  ASSERT_EQ(result.bugs.size(), 1u);
  EXPECT_EQ(result.bugs[0].where, crash_where);
}

// --- seed reproducibility at 1/2/8 workers --------------------------------

TEST(Exploration, RandomSweepReproducibleAcrossWorkerCounts) {
  CampaignSpec spec{.system = "mysql", .strategy = ExploreStrategy::kRandom, .budget = 24,
                    .seed = 7};
  CampaignOutcome one = RunSpec(spec);
  EXPECT_EQ(one.scenarios_run, 24u);

  ExpectSameBugs(one.bugs, RunSpec(spec).bugs);  // rerun: bit-stable
  spec.workers = 2;
  ExpectSameBugs(one.bugs, RunSpec(spec).bugs);
  spec.workers = 8;
  CampaignOutcome eight = RunSpec(spec);
  ExpectSameBugs(one.bugs, eight.bugs);
  // The whole observation stream, not just the bug list, must match.
  EXPECT_EQ(one.coverage.hits(), eight.coverage.hits());
}

TEST(Exploration, CoverageGuidedReproducibleAcrossWorkerCounts) {
  CampaignSpec spec{.system = "pbft", .strategy = ExploreStrategy::kCoverage, .budget = 12,
                    .seed = 3};
  CampaignOutcome one = RunSpec(spec);
  spec.workers = 2;
  ExpectSameBugs(one.bugs, RunSpec(spec).bugs);
  spec.workers = 8;
  // Journaling the run must not perturb it: same bugs, same coverage, one
  // journal record per scheduled scenario (tests/journal_test.cc covers the
  // resume/replay/shard workflows in depth).
  spec.journal_path = TempPath("exploration_journaled.xml");
  std::remove(spec.journal_path.c_str());
  CampaignOutcome eight = RunSpec(spec);
  ExpectSameBugs(one.bugs, eight.bugs);
  EXPECT_EQ(one.coverage.hits(), eight.coverage.hits());
  auto journal = CampaignJournal::Load(spec.journal_path);
  ASSERT_TRUE(journal.has_value());
  EXPECT_EQ(journal->records().size(), eight.scenarios_run);
}

// --- the acceptance bar: coverage-guided >= exhaustive on pbft -------------

TEST(Exploration, CoverageGuidedCoversAtLeastExhaustiveOnPbft) {
  CampaignOutcome exhaustive = RunSpec({.system = "pbft"});
  ASSERT_GT(exhaustive.scenarios_run, 0u);

  // Same budget as the exhaustive list: the guided strategy must never do
  // worse than the paper's one-shot generation.
  CampaignSpec guided_spec{.system = "pbft", .strategy = ExploreStrategy::kCoverage,
                           .budget = exhaustive.scenarios_run};
  CampaignOutcome guided = RunSpec(guided_spec);
  EXPECT_GE(guided.coverage.ComputeStats().covered_recovery_blocks,
            exhaustive.coverage.ComputeStats().covered_recovery_blocks);

  // With headroom the feedback loop pushes past the analyzer's list: checked
  // sites (whose recovery paths the static classification never flags) and
  // mutations of fruitful scenarios reach recovery blocks the exhaustive
  // strategy cannot, at any budget.
  guided_spec.budget = 16;
  CampaignOutcome wider = RunSpec(guided_spec);
  EXPECT_GT(wider.coverage.ComputeStats().covered_recovery_blocks,
            exhaustive.coverage.ComputeStats().covered_recovery_blocks);
  // 16 > the number of distinct sites, so the exploit (mutation) queue must
  // have produced the overflow scenarios.
  EXPECT_EQ(wider.scenarios_run, 16u);
}

}  // namespace
}  // namespace lfi
