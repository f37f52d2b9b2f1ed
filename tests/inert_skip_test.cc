// Provably inert jobs: the Trigger::CannotFire / ScenarioCannotInject proof
// rules, the engine's fault-free baseline and its skip conditions, the proof
// that every skipped job's result is byte for byte what running it produces
// on all five targets, and the pinned job counts of one reference campaign.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/common/campaign_driver.h"
#include "apps/common/warm_targets.h"
#include "campaign_test_util.h"
#include "core/campaign_engine.h"
#include "core/controller.h"
#include "core/exploration.h"
#include "core/journal.h"
#include "core/stock_triggers.h"
#include "core/trigger.h"
#include "util/errno_codes.h"
#include "util/string_util.h"
#include "vlib/virtual_libc.h"

namespace lfi {
namespace {

// --- the proof rules ----------------------------------------------------------

TriggerDecl Decl(const std::string& id, const std::string& class_name,
                 const std::vector<std::pair<std::string, std::string>>& args = {}) {
  TriggerDecl decl;
  decl.id = id;
  decl.class_name = class_name;
  if (!args.empty()) {
    auto node = std::make_shared<XmlNode>("args");
    for (const auto& [name, text] : args) {
      node->AddChild(name)->set_text(text);
    }
    decl.set_args(std::move(node));
  }
  return decl;
}

FunctionAssoc Assoc(const std::string& function, std::vector<TriggerRef> triggers,
                    bool unused = false) {
  FunctionAssoc assoc;
  assoc.function = function;
  assoc.retval = -1;
  assoc.errno_value = kEIO;
  assoc.unused = unused;
  assoc.triggers = std::move(triggers);
  return assoc;
}

std::unique_ptr<Trigger> Instance(const TriggerDecl& decl) {
  EnsureStockTriggersRegistered();
  std::unique_ptr<Trigger> trigger = TriggerRegistry::Instance().Create(decl.class_name);
  trigger->Init(decl.args().get());
  return trigger;
}

TEST(CannotFire, TheSmallestOfSeveralCountsDecides) {
  std::unique_ptr<Trigger> nth =
      Instance(Decl("nth", "CallCountTrigger", {{"count", "9"}, {"count", "4"}, {"count", "6"}}));
  EXPECT_TRUE(nth->CannotFire(0));
  EXPECT_TRUE(nth->CannotFire(3));
  EXPECT_FALSE(nth->CannotFire(4));
  EXPECT_FALSE(nth->CannotFire(100));

  Scenario s;
  s.AddTrigger(Decl("nth", "CallCountTrigger", {{"count", "9"}, {"count", "4"}}));
  s.AddFunction(Assoc("read", {{"nth", false}}));
  EXPECT_TRUE(ScenarioCannotInject(s, {{"read", 3}}));
  EXPECT_FALSE(ScenarioCannotInject(s, {{"read", 4}}));
}

TEST(CannotFire, RandomAndProgramStateTriggersNeverProve) {
  EXPECT_FALSE(Instance(Decl("r", "RandomTrigger", {{"probability", "0"}}))->CannotFire(0));
  EXPECT_FALSE(
      Instance(Decl("p", "ProgramStateTrigger", {{"var", "x"}, {"value", "1"}}))->CannotFire(0));
  for (const char* class_name : {"RandomTrigger", "ProgramStateTrigger", "CallStackTrigger",
                                 "SingletonTrigger", "NoSuchTrigger"}) {
    Scenario s;
    s.AddTrigger(Decl("t", class_name));
    s.AddFunction(Assoc("read", {{"t", false}}));
    EXPECT_FALSE(ScenarioCannotInject(s, {})) << class_name;
  }
}

TEST(ScenarioCannotInject, ANegatedConjunctNeverProves) {
  Scenario s;
  s.AddTrigger(Decl("nth", "CallCountTrigger", {{"count", "5"}}));
  s.AddFunction(Assoc("read", {{"nth", true}}));
  EXPECT_FALSE(ScenarioCannotInject(s, {}));
  // The same trigger un-negated in a second conjunct still kills it.
  s.functions()[0].triggers.push_back({"nth", false});
  EXPECT_TRUE(ScenarioCannotInject(s, {}));
}

TEST(ScenarioCannotInject, ASharedTriggerIsBoundedByTheSumOfItsFunctions) {
  Scenario s;
  s.AddTrigger(Decl("nth", "CallCountTrigger", {{"count", "5"}}));
  s.AddFunction(Assoc("read", {{"nth", false}}));
  s.AddFunction(Assoc("write", {{"nth", false}}));
  EXPECT_TRUE(ScenarioCannotInject(s, {{"read", 3}, {"write", 1}}));
  // Each function alone stays below 5, but their sum reaches it.
  EXPECT_FALSE(ScenarioCannotInject(s, {{"read", 3}, {"write", 2}}));
  // An observe-only association routing a third function through the
  // trigger adds to the bound too.
  s.AddFunction(Assoc("close", {{"nth", false}}, /*unused=*/true));
  EXPECT_FALSE(ScenarioCannotInject(s, {{"read", 3}, {"write", 1}, {"close", 1}}));
}

TEST(ScenarioCannotInject, UnusedAssociationsAreIgnored) {
  Scenario s;
  s.AddTrigger(Decl("rand", "RandomTrigger", {{"probability", "1"}}));
  s.AddTrigger(Decl("nth", "CallCountTrigger", {{"count", "2"}}));
  s.AddFunction(Assoc("read", {{"rand", false}}, /*unused=*/true));
  EXPECT_TRUE(ScenarioCannotInject(s, {}));  // nothing injects at all
  s.AddFunction(Assoc("read", {{"nth", false}}));
  EXPECT_TRUE(ScenarioCannotInject(s, {{"read", 1}}));
  EXPECT_FALSE(ScenarioCannotInject(s, {{"read", 2}}));
  // Every injecting association must be dead, not just one.
  s.AddFunction(Assoc("write", {{"rand", false}}));
  EXPECT_FALSE(ScenarioCannotInject(s, {{"read", 1}}));
}

TEST(ScenarioCannotInject, CallStackAndCallCountConjunction) {
  Scenario s;
  s.AddTrigger(Decl("site", "CallStackTrigger"));
  s.AddTrigger(Decl("nth", "CallCountTrigger", {{"count", "3"}}));
  s.AddFunction(Assoc("read", {{"site", false}, {"nth", false}}));
  EXPECT_TRUE(ScenarioCannotInject(s, {{"read", 2}}));
  EXPECT_FALSE(ScenarioCannotInject(s, {{"read", 3}}));
}

TEST(ScenarioCannotInject, AFunctionTheBaselineNeverCalledCountsZero) {
  Scenario s = MakeCallCountScenario("fsync", 1, -1, kEIO);
  EXPECT_TRUE(ScenarioCannotInject(s, {{"read", 40}}));
  EXPECT_FALSE(ScenarioCannotInject(s, {{"fsync", 1}}));
  // An undeclared trigger reference proves nothing.
  Scenario dangling;
  dangling.AddFunction(Assoc("read", {{"missing", false}}));
  EXPECT_FALSE(ScenarioCannotInject(dangling, {}));
}

// --- the engine's skip ---------------------------------------------------------

// A toy target: opens a file once and reads it five times; a failed call
// ends the run with a workload error. Honours CampaignJob::count_calls like
// the real runners do.
JobResult RunToyJob(const CampaignJob& job) {
  VirtualFs fs;
  VirtualNet net;
  VirtualLibc libc(&fs, &net, "toy");
  fs.WriteFile("/f", std::string(64, 'x'));
  TestController controller(job.scenario, SeededOptions(job.seed));
  TestOutcome outcome = controller.RunTest(&libc, [&] {
    int fd = libc.Open("/f", kORdOnly);
    if (fd < 0) {
      return false;
    }
    char buf[1];
    for (int i = 0; i < 5; ++i) {
      if (libc.Read(fd, buf, 1) < 0) {
        return false;
      }
    }
    libc.Close(fd);
    return true;
  });
  JobResult result;
  result.injections = outcome.injections;
  result.fingerprint = controller.runtime()->log().Fingerprint();
  result.log = controller.runtime()->log();
  if (job.count_calls) {
    CallCounts& counts = result.call_counts.emplace();
    for (const FunctionAssoc& assoc : job.scenario.functions()) {
      counts[assoc.function] = controller.runtime()->call_count(assoc.function);
    }
  }
  return result;
}

// read#1..#8 and open#1..#3, all candidates (a call-count job injects
// nothing at zero calls). read is called 5 times and open once, so the
// baseline proves read#6..#8 and open#2..#3 inert.
std::vector<CampaignJob> ToyJobs() {
  EnsureStockTriggersRegistered();
  std::vector<CampaignJob> jobs;
  auto add = [&](const char* function, uint64_t count) {
    CampaignJob job;
    job.scenario = MakeCallCountScenario(function, count, -1, kEIO);
    job.label = StrFormat("%s#%llu", function, static_cast<unsigned long long>(count));
    job.seed = jobs.size() + 1;
    jobs.push_back(std::move(job));
  };
  for (uint64_t count = 1; count <= 8; ++count) {
    add("read", count);
  }
  for (uint64_t count = 1; count <= 3; ++count) {
    add("open", count);
  }
  return jobs;
}

// Runs `jobs` journaled at `path` with `runner`; counts runner calls.
struct ToyRun {
  ExplorationResult result;
  size_t runner_calls = 0;
  std::string journal;
};

ToyRun RunToy(const std::string& name, std::vector<CampaignJob> jobs, int workers,
              CampaignEngine::ResultRunner runner = RunToyJob) {
  std::string path = TempPath(name + ".lfij");
  std::remove(path.c_str());
  CampaignEngine::Options options;
  options.workers = workers;
  options.journal_path = path;
  options.journal_meta = {{"command", "explore"}, {"system", "toy"}};
  auto calls = std::make_shared<std::atomic<size_t>>(0);
  ExhaustiveSource source(std::move(jobs));
  ToyRun run;
  run.result = CampaignEngine(options).Run(source, [calls, runner](const CampaignJob& job) {
    calls->fetch_add(1);
    return runner(job);
  });
  run.runner_calls = calls->load();
  run.journal = ReadFile(path);
  std::remove(path.c_str());
  return run;
}

// The reference: every job a second-phase job, whose workload the baseline
// does not count, so none can skip.
ToyRun RunToyReference(int workers) {
  std::vector<CampaignJob> jobs = ToyJobs();
  for (CampaignJob& job : jobs) {
    job.second_phase = true;
  }
  return RunToy("toy_reference", std::move(jobs), workers);
}

TEST(InertSkip, SkipsExactlyTheProvablyInertJobsWithIdenticalJournalBytes) {
  ToyRun reference = RunToyReference(1);
  EXPECT_EQ(reference.result.jobs_executed, 11u);
  EXPECT_EQ(reference.result.jobs_proven_inert, 0u);  // second-phase jobs never skip
  for (int workers : {1, 4}) {
    ToyRun run = RunToy("toy_skip", ToyJobs(), workers);
    EXPECT_EQ(run.result.jobs_proven_inert, 5u) << workers;
    EXPECT_EQ(run.result.jobs_executed, 6u) << workers;
    EXPECT_EQ(run.runner_calls, 7u) << workers;  // plus the baseline
    EXPECT_EQ(run.result.scenarios_run, 11u);
    EXPECT_EQ(run.journal, reference.journal) << workers;
  }
}

TEST(InertSkip, ABaselineThatCannotCountOrIsNotCleanTurnsTheSkipOff) {
  ToyRun reference = RunToyReference(1);
  const std::vector<std::pair<const char*, CampaignEngine::ResultRunner>> runners = {
      {"no counts",
       [](const CampaignJob& job) {
         JobResult result = RunToyJob(job);
         result.call_counts.reset();
         return result;
       }},
      {"bug",
       [](const CampaignJob& job) {
         JobResult result = RunToyJob(job);
         if (job.count_calls) {
           result.bugs.push_back({"toy", "flaky", "baseline", job.label});
         }
         return result;
       }},
      {"throws",
       [](const CampaignJob& job) {
         if (job.count_calls) {
           throw std::runtime_error("baseline failed");
         }
         return RunToyJob(job);
       }},
  };
  for (const auto& [name, runner] : runners) {
    ToyRun run = RunToy("toy_off", ToyJobs(), 4, runner);
    EXPECT_EQ(run.result.jobs_proven_inert, 0u) << name;
    EXPECT_EQ(run.result.jobs_executed, 11u) << name;
    EXPECT_EQ(run.runner_calls, 12u) << name;  // the baseline ran once
    EXPECT_EQ(run.journal, reference.journal) << name;
  }
}

TEST(InertSkip, AHungBaselineTurnsTheSkipOff) {
  ToyRun reference = RunToyReference(1);
  std::string path = TempPath("toy_hung.lfij");
  std::remove(path.c_str());
  CampaignEngine::Options options;
  options.workers = 2;
  options.job_timeout_ms = 100;
  options.journal_path = path;
  options.journal_meta = {{"command", "explore"}, {"system", "toy"}};
  ExhaustiveSource source(ToyJobs());
  ExplorationResult result = CampaignEngine(options).Run(source, [](const CampaignJob& job) {
    if (job.count_calls) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    return RunToyJob(job);
  });
  EXPECT_EQ(result.jobs_proven_inert, 0u);
  EXPECT_EQ(result.jobs_executed, 11u);
  EXPECT_EQ(ReadFile(path), reference.journal);
  std::remove(path.c_str());
}

TEST(InertSkip, FewerThanTwoCandidatesRunNoBaseline) {
  // One call-count job (a candidate: inert at zero calls) among random
  // ones, which can never be proven inert: the baseline would not pay off.
  std::vector<CampaignJob> jobs = ToyJobs();
  jobs.resize(1);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    CampaignJob job;
    job.scenario = MakeRandomScenario("read", -1, kEIO, 0.5, seed);
    job.label = StrFormat("random read %llu", static_cast<unsigned long long>(seed));
    jobs.push_back(std::move(job));
  }
  ToyRun run = RunToy("toy_one", std::move(jobs), 1);
  EXPECT_EQ(run.result.jobs_proven_inert, 0u);
  EXPECT_EQ(run.result.jobs_executed, 4u);
  EXPECT_EQ(run.runner_calls, 4u);
}

// Declares itself feedback-driven; otherwise an ExhaustiveSource.
class FeedbackToySource : public ExhaustiveSource {
 public:
  using ExhaustiveSource::ExhaustiveSource;
  bool needs_feedback() const override { return true; }
};

TEST(InertSkip, FeedbackDrivenBatchesNeverSkip) {
  FeedbackToySource feedback_source(ToyJobs());
  // An epoch shard child runs its slice of a feedback-driven schedule
  // open-loop, stamped with its epoch.
  ExhaustiveSource epoch_slice(ToyJobs());
  for (ScenarioSource* source : std::vector<ScenarioSource*>{&feedback_source, &epoch_slice}) {
    CampaignEngine::Options options;
    options.workers = 2;
    options.epoch = source == &epoch_slice ? 3 : kNoEpoch;
    std::atomic<size_t> calls{0};
    ExplorationResult result = CampaignEngine(options).Run(*source, [&](const CampaignJob& job) {
      ++calls;
      return RunToyJob(job);
    });
    EXPECT_EQ(result.jobs_proven_inert, 0u);
    EXPECT_EQ(result.jobs_executed, 11u);
    EXPECT_EQ(calls.load(), 11u);
  }
}

TEST(InertSkip, ResumeReplaysItsPrefixAndSkipsOnlyPastIt) {
  ToyRun reference = RunToyReference(1);
  auto full = CampaignJournal::Parse(reference.journal);
  ASSERT_TRUE(full.has_value());
  // A journal killed after read#1..#7: its prefix holds read#6 and read#7,
  // which replay; read#8, open#2 and open#3 are the inert jobs left.
  std::string path = TempPath("toy_resume.lfij");
  std::vector<JournalRecord> prefix(full->records().begin(), full->records().begin() + 7);
  WriteJournal(path, full->metadata(), prefix);
  CampaignEngine::Options options;
  options.workers = 4;
  options.journal_path = path;
  options.resume = true;
  options.journal_meta = full->metadata();
  ExhaustiveSource source(ToyJobs());
  ExplorationResult result = CampaignEngine(options).Run(source, RunToyJob);
  EXPECT_EQ(result.jobs_proven_inert, 3u);
  EXPECT_EQ(result.jobs_executed, 1u);
  auto resumed = CampaignJournal::Load(path);
  ASSERT_TRUE(resumed.has_value());
  ASSERT_EQ(resumed->records().size(), full->records().size());
  for (size_t i = 0; i < full->records().size(); ++i) {
    EXPECT_EQ(resumed->records()[i].ToXml(), full->records()[i].ToXml()) << i;
  }
  std::remove(path.c_str());
}

// --- the proof on every target ----------------------------------------------

// A result's journal encoding: the bytes of a one-record journal holding it.
std::string EncodedResult(const JobResult& result) {
  std::string path = TempPath("inert_encoded.lfij");
  JournalRecord record;
  record.label = "encoded";
  record.result = result;
  WriteJournal(path, {{"command", "explore"}}, {record});
  std::string bytes = ReadFile(path);
  std::remove(path.c_str());
  return bytes;
}

// Every recorded job the fault-free baseline proves inert, re-run for real
// on the campaign's own runner: its encoded result must equal the
// baseline's, byte for byte, and so must the journaled one. Returns how many
// jobs were proven inert.
size_t ProveInertJobsOn(const std::string& system, ExploreStrategy strategy, uint64_t seed) {
  std::string path = TempPath("inert_proof_" + system + ".lfij");
  std::remove(path.c_str());
  CampaignSpec spec;
  spec.system = system;
  spec.mode = CampaignMode::kExplore;
  spec.strategy = strategy;
  spec.budget = 40;
  spec.seed = seed;
  spec.workers = 4;
  spec.journal_path = path;
  RunSpec(spec);
  auto journal = CampaignJournal::Load(path);
  std::remove(path.c_str());
  EXPECT_TRUE(journal.has_value());
  if (!journal) {
    return 0;
  }

  std::set<std::string> functions;
  for (const JournalRecord& record : journal->records()) {
    for (const FunctionAssoc& assoc : record.scenario.functions()) {
      functions.insert(assoc.function);
    }
  }
  WarmPool pool(WorkloadFactory(system, CampaignMode::kExplore));
  CampaignEngine::ResultRunner runner = pool.AsRunner();
  CampaignJob baseline_job;
  baseline_job.scenario = MakeObserveScenario({functions.begin(), functions.end()});
  baseline_job.label = "fault-free baseline";
  baseline_job.count_calls = true;
  JobResult baseline = runner(baseline_job);
  EXPECT_TRUE(baseline.call_counts.has_value());
  EXPECT_TRUE(baseline.bugs.empty());
  EXPECT_EQ(baseline.injections, 0u);
  if (!baseline.call_counts) {
    return 0;
  }
  CallCounts counts = std::move(*baseline.call_counts);
  baseline.call_counts.reset();
  const std::string expected = EncodedResult(baseline);

  size_t proven = 0;
  for (const JournalRecord& record : journal->records()) {
    if (record.gated || !ScenarioCannotInject(record.scenario, counts)) {
      continue;
    }
    ++proven;
    CampaignJob job;
    job.scenario = record.scenario;
    job.label = record.label;
    job.seed = record.seed;
    EXPECT_EQ(EncodedResult(runner(job)), expected) << system << ": " << record.label;
    EXPECT_EQ(EncodedResult(record.result), expected) << system << ": " << record.label;
  }
  return proven;
}

class InertProof : public ::testing::TestWithParam<const char*> {};

TEST_P(InertProof, EveryProvablyInertJobReproducesTheBaselineByteForByte) {
  const std::string system = GetParam();
  size_t random_proven = 0;
  for (uint64_t seed : {1, 2, 3}) {
    for (ExploreStrategy strategy :
         {ExploreStrategy::kRandom, ExploreStrategy::kExhaustive, ExploreStrategy::kCoverage}) {
      size_t proven = ProveInertJobsOn(system, strategy, seed);
      if (strategy == ExploreStrategy::kRandom) {
        random_proven += proven;
      }
    }
  }
  // Random sweeps past a function's last call on every target; a proof that
  // never proves anything would pass vacuously.
  EXPECT_GT(random_proven, 0u) << system;
}

INSTANTIATE_TEST_SUITE_P(Targets, InertProof,
                         ::testing::Values("pbft", "bfs", "git", "mysql", "bind"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// --- the deterministic proxy gate ----------------------------------------------

// `explore pbft --strategy random --budget 400 --seed 1`: how many jobs
// actually run is a property of the code, not of the host. A change that
// stops proving jobs inert (or proves too many) moves these numbers.
TEST(InertSkipGate, PbftRandomBudget400JobCountsArePinned) {
  for (int workers : {1, 4}) {
    CampaignSpec spec;
    spec.system = "pbft";
    spec.mode = CampaignMode::kExplore;
    spec.strategy = ExploreStrategy::kRandom;
    spec.budget = 400;
    spec.seed = 1;
    spec.workers = workers;
    CampaignOutcome outcome = RunSpec(spec);
    EXPECT_EQ(outcome.scenarios_run, 222u) << workers;
    EXPECT_EQ(outcome.jobs_executed, 106u) << workers;
    EXPECT_EQ(outcome.jobs_proven_inert, 116u) << workers;
  }
}

}  // namespace
}  // namespace lfi
