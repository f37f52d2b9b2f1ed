// The parallel campaign engine: serial equivalence, deterministic merges,
// the max_bugs gate, and per-scenario seed reproducibility.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/git/git.h"
#include "campaign_test_util.h"
#include "core/analysis_cache.h"
#include "core/campaign_engine.h"
#include "core/controller.h"
#include "core/exploration.h"
#include "core/stock_triggers.h"
#include "util/errno_codes.h"
#include "util/work_queue.h"
#include "vlib/library_profiles.h"
#include "vlib/virtual_libc.h"

namespace lfi {
namespace {

// Streams `jobs` through an engine with `options`, every job on `runner`.
std::vector<FoundBug> RunJobs(std::vector<CampaignJob> jobs, CampaignEngine::Options options,
                              const CampaignEngine::ResultRunner& runner) {
  ExhaustiveSource source(std::move(jobs));
  return CampaignEngine(options).Run(source, runner).bugs;
}

// Labelled jobs "job-0" .. "job-<count-1>".
std::vector<CampaignJob> LabelledJobs(int count) {
  std::vector<CampaignJob> jobs(count);
  for (int i = 0; i < count; ++i) {
    jobs[i].label = "job-" + std::to_string(i);
  }
  return jobs;
}

// --- worker pool ----------------------------------------------------------

TEST(WorkerPool, RunsEveryJobExactlyOnce) {
  constexpr size_t kJobs = 257;
  std::vector<std::atomic<int>> counts(kJobs);
  WorkerPool::ParallelFor(4, kJobs, [&](size_t job, int worker) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, 4);
    counts[job].fetch_add(1);
  });
  for (size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "job " << i;
  }
}

TEST(WorkerPool, PropagatesTheFirstException) {
  EXPECT_THROW(WorkerPool::ParallelFor(4, 64,
                                       [&](size_t job, int) {
                                         if (job == 13) {
                                           throw std::runtime_error("boom");
                                         }
                                       }),
               std::runtime_error);
}

TEST(WorkerPool, StealingDrainsImbalancedQueues) {
  // One worker's jobs are slow; the others must steal to finish the batch.
  std::atomic<int> done{0};
  WorkerPool::ParallelFor(4, 32, [&](size_t job, int) {
    if (job % 4 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 32);
}

// --- deterministic job-order merge ----------------------------------------

TEST(CampaignEngine, JobOrderDecidesDedupWinnerRegardlessOfCompletionOrder) {
  // Two jobs expose the same crash site. Job 0 is slow, so with 2 workers
  // job 1 finishes first -- but the job-order merge must still attribute the
  // bug to job 0, exactly like the serial loop would.
  for (int workers : {1, 2, 8}) {
    std::vector<FoundBug> bugs =
        RunJobs(LabelledJobs(2), {.workers = workers}, [](const CampaignJob& job) {
          if (job.label == "job-0") {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
          JobResult result;
          result.bugs.push_back({"sys", "SIGSEGV", "shared-site", job.label});
          return result;
        });
    ASSERT_EQ(bugs.size(), 1u) << "workers=" << workers;
    EXPECT_EQ(bugs[0].injected, "job-0") << "workers=" << workers;
  }
}

TEST(CampaignEngine, MaxBugsGatesSaturableJobsDeterministically) {
  // Jobs 0-1 always report; jobs 2-9 are fuzz-style jobs gated by max_bugs.
  // After the first two bugs the gated jobs must contribute nothing, no
  // matter how many workers raced ahead.
  for (int workers : {1, 4}) {
    std::vector<CampaignJob> jobs = LabelledJobs(10);
    for (int i = 2; i < 10; ++i) {
      jobs[i].skip_when_saturated = true;
    }
    std::vector<FoundBug> bugs =
        RunJobs(std::move(jobs), {.workers = workers, .max_bugs = 2}, [](const CampaignJob& job) {
          JobResult result;
          result.bugs.push_back({"sys", "SIGSEGV", "site-" + job.label.substr(4), job.label});
          return result;
        });
    ASSERT_EQ(bugs.size(), 2u) << "workers=" << workers;
    EXPECT_EQ(bugs[0].where, "site-0");
    EXPECT_EQ(bugs[1].where, "site-1");
  }
}

// --- campaign equivalence: parallel == serial baseline --------------------

std::vector<FoundBug> Table1Bugs(const char* system, int workers, bool exhaustive = false) {
  return RunSpec({.system = system,
                  .mode = CampaignMode::kTable1,
                  .exhaustive = exhaustive,
                  .workers = workers})
      .bugs;
}

TEST(CampaignEngine, PbftCampaignIdenticalAcrossWorkerCounts) {
  std::vector<FoundBug> serial = Table1Bugs("pbft", 1);
  ASSERT_EQ(serial.size(), 2u);
  ExpectSameBugs(serial, Table1Bugs("pbft", 2));
  ExpectSameBugs(serial, Table1Bugs("pbft", 8));
}

TEST(CampaignEngine, FullCampaignIdenticalAcrossWorkerCounts) {
  std::vector<FoundBug> serial = Table1Bugs("all", 1);
  EXPECT_EQ(serial.size(), 12u);
  ExpectSameBugs(serial, Table1Bugs("all", 4));
  // Exhaustive mode drops the historical fuzz cutoff, so every fuzz job past
  // saturation runs too and every worker count executes the same job set.
  std::vector<FoundBug> exhaustive = Table1Bugs("all", 1, /*exhaustive=*/true);
  EXPECT_EQ(exhaustive.size(), 12u);
  for (int workers : {2, 4, 8}) {
    SCOPED_TRACE(workers);
    ExpectSameBugs(exhaustive, Table1Bugs("all", workers, /*exhaustive=*/true));
  }
}

// --- per-scenario seed reproducibility ------------------------------------

// A random scenario with no <seed> in its <args>: the stream comes entirely
// from Runtime::Options::seed via Trigger::Reseed.
Scenario RandomScenarioWithoutDeclaredSeed() {
  Scenario s;
  TriggerDecl decl;
  decl.id = "rand";
  decl.class_name = "RandomTrigger";
  auto args = std::make_unique<XmlNode>("args");
  args->AddChild("probability")->set_text("0.5");
  decl.set_args(std::move(args));
  s.AddTrigger(std::move(decl));
  FunctionAssoc assoc;
  assoc.function = "read";
  assoc.retval = -1;
  assoc.errno_value = kEIO;
  assoc.triggers.push_back(TriggerRef{"rand", false});
  s.AddFunction(std::move(assoc));
  return s;
}

std::vector<FoundBug> RunSeededRandomCampaign(int workers) {
  EnsureStockTriggersRegistered();
  std::vector<CampaignJob> jobs;
  for (uint64_t i = 0; i < 16; ++i) {
    CampaignJob job;
    job.scenario = RandomScenarioWithoutDeclaredSeed();
    job.label = "trial-" + std::to_string(i);
    job.seed = i + 1;
    jobs.push_back(std::move(job));
  }
  return RunJobs(std::move(jobs), {.workers = workers}, [](const CampaignJob& self) {
    VirtualFs fs;
    VirtualNet net;
    VirtualLibc libc(&fs, &net, "seed-app");
    fs.WriteFile("/f", std::string(64, 'x'));
    TestController controller(self.scenario, SeededOptions(self.seed));
    TestOutcome outcome = controller.RunTest(&libc, [&] {
      int fd = libc.Open("/f", kORdOnly);
      char buf[1];
      for (int i = 0; i < 24; ++i) {
        libc.Read(fd, buf, 1);
      }
      libc.Close(fd);
      return true;
    });
    // Encode the injection trace length so the comparison below is
    // sensitive to every single trigger decision.
    JobResult result;
    result.bugs.push_back(
        {"seedtest", "injections", self.label, std::to_string(outcome.injections)});
    return result;
  });
}

TEST(CampaignEngine, SeedsMakeRandomScenariosReproducibleAcrossWorkerCounts) {
  std::vector<FoundBug> one = RunSeededRandomCampaign(1);
  ASSERT_EQ(one.size(), 16u);
  ExpectSameBugs(one, RunSeededRandomCampaign(1));  // rerun: bit-stable
  ExpectSameBugs(one, RunSeededRandomCampaign(2));
  ExpectSameBugs(one, RunSeededRandomCampaign(8));

  // Different seeds must actually produce different streams, otherwise the
  // equality above would be vacuous.
  std::set<std::string> distinct_counts;
  for (const FoundBug& bug : one) {
    distinct_counts.insert(bug.injected);
  }
  EXPECT_GT(distinct_counts.size(), 1u);
}

// --- analysis cache -------------------------------------------------------

TEST(AnalysisCache, ComputesOncePerModuleAndSharesTheResult) {
  AnalysisCache& cache = AnalysisCache::Instance();
  const FaultProfile& apr = cache.Profile("libapr", LibaprProfile);

  AnalysisCache::Stats before = cache.stats();
  const std::vector<CallSiteReport>& first = cache.Reports(GitBinary().image(), apr);
  const std::vector<CallSiteReport>& second = cache.Reports(GitBinary().image(), apr);
  AnalysisCache::Stats after = cache.stats();

  EXPECT_EQ(&first, &second);  // shared read-only, not a copy
  EXPECT_EQ(after.report_misses, before.report_misses + 1);
  EXPECT_EQ(after.report_hits, before.report_hits + 1);

  const FaultProfile& again = cache.Profile("libapr", [] {
    ADD_FAILURE() << "profile factory must not run on a cache hit";
    return FaultProfile();
  });
  EXPECT_EQ(&apr, &again);
}

}  // namespace
}  // namespace lfi
