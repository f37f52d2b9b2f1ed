#include "apps/common/campaign_driver.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>

#include "apps/bfs/bfs.h"
#include "apps/bind/bind.h"
#include "apps/common/shard_supervisor.h"
#include "apps/common/warm_targets.h"
#include "apps/git/git.h"
#include "apps/mysql/mysql.h"
#include "apps/pbft/pbft.h"
#include "core/analysis_cache.h"
#include "core/controller.h"
#include "core/custom_triggers.h"
#include "core/distributed.h"
#include "core/exploration.h"
#include "core/extent_journal.h"
#include "core/fork_server.h"
#include "core/stock_triggers.h"
#include "util/errno_codes.h"
#include "util/failpoint.h"
#include "util/string_util.h"
#include "util/work_queue.h"
#include "vlib/library_profiles.h"

namespace lfi {
namespace {

// Ground-truth profiles, memoized process-wide so concurrent workers and
// repeated campaigns share one copy (stub_gen/profiler round-trip them
// exactly, so ground truth and recovered profiles are interchangeable).
const FaultProfile& CachedLibcProfile() {
  return AnalysisCache::Instance().Profile("libc", LibcProfile);
}

const FaultProfile& CachedLibxmlProfile() {
  return AnalysisCache::Instance().Profile("libxml2", LibxmlProfile);
}

// --- Table 1 job lists ------------------------------------------------------
// The job runners themselves live in apps/common/warm_targets.cc. A job of a
// second-phase workload says so in CampaignJob::second_phase, and the
// system's runner core runs that workload on the campaign's one pool.

std::vector<CampaignJob> GitTable1Jobs(bool /*exhaustive*/) {
  return AnalyzerJobs(GitBinary().image(), CachedLibcProfile());
}

std::vector<CampaignJob> MysqlTable1Jobs(bool /*exhaustive*/) {
  const FaultProfile& profile = CachedLibcProfile();

  // Phase 1: analyzer-generated scenarios.
  std::vector<CampaignJob> jobs = AnalyzerJobs(MysqlBinary().image(), profile);

  // Phase 2: random injection (the paper ran 1,000 random tests against
  // MySQL and distilled 35 crashes into the two Table 1 bugs).
  for (const char* function : {"close", "read"}) {
    const FunctionProfile* fn = profile.Find(function);
    int64_t retval = fn->errors.front().retval;
    int errno_value = fn->errors.front().errnos.empty() ? 0 : kEIO;
    for (uint64_t seed = 1; seed <= 50; ++seed) {
      CampaignJob job;
      job.scenario = MakeRandomScenario(function, retval, errno_value, 0.1, seed);
      job.label =
          StrFormat("random 10%% on %s (seed %llu)", function, (unsigned long long)seed);
      job.seed = seed;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

std::vector<CampaignJob> BindTable1Jobs(bool /*exhaustive*/) {
  // Analyzer scenarios against both library profiles.
  std::vector<CampaignJob> jobs = AnalyzerJobs(BindBinary().image(), CachedLibcProfile());
  for (CampaignJob& job : AnalyzerJobs(BindBinary().image(), CachedLibxmlProfile())) {
    jobs.push_back(std::move(job));
  }

  // Exhaustive malloc sweep over dst_lib_init: the call *is* checked (so the
  // analyzer reports it fully checked), but the recovery path is broken.
  // These run a different workload: the second phase's.
  for (uint64_t k = 1; k <= MiniBind::kDstAllocations; ++k) {
    CampaignJob job;
    job.scenario = MakeCallCountScenario("malloc", k, 0, kENOMEM);
    job.label = StrFormat("malloc #%llu = NULL in dst_lib_init", (unsigned long long)k);
    job.seed = k;
    job.second_phase = true;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<CampaignJob> PbftTable1Jobs(bool exhaustive) {
  // Phase 1: analyzer scenarios against replica 0 (shutdown checkpoint bug).
  std::vector<CampaignJob> jobs = AnalyzerJobs(PbftBinary().image(), CachedLibcProfile());

  // Phase 2: distributed random faults in sendto/recvfrom across replicas
  // (release build). Message loss leaves prepare certificates without their
  // payloads; the crash manifests during the view change. The serial
  // campaign stopped fuzzing once two bugs were on the list; max_bugs plus
  // skip_when_saturated reproduces that cutoff deterministically.
  Scenario dist;
  {
    TriggerDecl decl;
    decl.id = "dist";
    decl.class_name = "DistributedTrigger";
    dist.AddTrigger(decl);
    for (const char* function : {"sendto", "recvfrom"}) {
      FunctionAssoc assoc;
      assoc.function = function;
      assoc.retval = -1;
      assoc.errno_value = kEIO;
      assoc.triggers.push_back(TriggerRef{"dist", false});
      dist.AddFunction(assoc);
    }
  }
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    CampaignJob job;
    job.scenario = dist;
    job.label =
        StrFormat("random sendto/recvfrom faults, seed %llu", (unsigned long long)seed);
    job.seed = seed;
    job.skip_when_saturated = !exhaustive;
    job.second_phase = true;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<CampaignJob> BfsTable1Jobs(bool exhaustive) {
  // Phase 1: analyzer scenarios against the server's libc call sites (the
  // unchecked durability-barrier fopen surfaces here).
  std::vector<CampaignJob> jobs = AnalyzerJobs(BfsBinary().image(), CachedLibcProfile());

  // Phase 2: partial-transfer faults on the vnet fabric itself. These are not
  // library faults -- the runner arms the network's short-write/short-read
  // sites directly -- so they run the second phase's workload, like bind's
  // dst sweep.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    CampaignJob job;
    job.label = StrFormat("partial send/recv over vnet, seed %llu", (unsigned long long)seed);
    job.seed = seed;
    job.skip_when_saturated = !exhaustive;
    job.second_phase = true;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

// --- the system table -------------------------------------------------------

// Everything system-specific the driver needs beyond its workload factory
// (apps/common/warm_targets.h), in one row per target.
struct SystemEntry {
  const char* name;
  const AppBinary& (*binary)();
  std::vector<const FaultProfile*> (*profiles)();
  std::vector<CampaignJob> (*table1_jobs)(bool exhaustive);
  size_t table1_max_bugs;  // historical fuzz cutoff; 0 = run everything
};

std::vector<const FaultProfile*> LibcOnly() { return {&CachedLibcProfile()}; }
std::vector<const FaultProfile*> LibcAndLibxml() {
  return {&CachedLibcProfile(), &CachedLibxmlProfile()};
}

const SystemEntry kSystems[] = {
    {"git", GitBinary, LibcOnly, GitTable1Jobs, 0},
    {"mysql", MysqlBinary, LibcOnly, MysqlTable1Jobs, 0},
    {"bind", BindBinary, LibcAndLibxml, BindTable1Jobs, 0},
    {"pbft", PbftBinary, LibcOnly, PbftTable1Jobs, 2},
    {"bfs", BfsBinary, LibcOnly, BfsTable1Jobs, 0},
};

const SystemEntry* FindSystem(const std::string& name) {
  for (const SystemEntry& entry : kSystems) {
    if (name == entry.name) {
      return &entry;
    }
  }
  return nullptr;
}

std::vector<std::string> SiteFunctions(const std::vector<CallSiteReport>& reports) {
  std::set<std::string> functions;
  for (const CallSiteReport& report : reports) {
    functions.insert(report.site.function);
  }
  return {functions.begin(), functions.end()};
}

// Engine options for a (possibly journaled) spec; the journal header is the
// spec's identity, so `lfi_tool resume` can rebuild the spec from the file.
CampaignEngine::Options EngineOptions(const CampaignSpec& spec, const SystemEntry& entry) {
  CampaignEngine::Options options;
  options.workers = spec.workers;
  // The historical fuzz cutoff applies to Table 1's non-exhaustive runs only.
  options.max_bugs =
      spec.mode == CampaignMode::kTable1 && !spec.exhaustive ? entry.table1_max_bugs : 0;
  options.journal_path = spec.journal_path;
  options.resume = spec.resume;
  options.abort_after_records = spec.abort_after_records;
  // An epoch shard child's whole run lies inside one epoch the orchestrator
  // already scheduled and dealt, so the engine runs it open-loop with a
  // fixed epoch stamp; the single-process epoch campaign instead lets the
  // engine drive the epoch boundaries itself.
  options.epoch_len = spec.epoch_index != kNoEpoch ? 0 : spec.epoch_len;
  options.epoch = spec.epoch_index;
  // Hang detection: never part of the identity, so journals recorded under
  // any timeout byte-compare against any other.
  options.job_timeout_ms = spec.job_timeout_ms;
  options.system = spec.system;
  if (!spec.journal_path.empty()) {
    options.journal_meta = spec.ToJournalMeta();
  }
  return options;
}

// A spec's scenario source, next to the analyzer inputs a strategy borrows:
// every library's call-site reports concatenated in profile order
// (deterministic, so plan report indices are stable across processes), plus
// one profile to look functions up in -- a combined view when the system
// links several libraries (profiles never share function names here; if they
// did, the first library would win, matching link order).
struct SpecSource {
  std::vector<const FaultProfile*> profiles;
  std::vector<CallSiteReport> reports;
  FaultProfile combined{"combined"};
  std::unique_ptr<ScenarioSource> source;
  CoverageGuidedSource* coverage = nullptr;  // the coverage strategy's source, else null

  const FaultProfile& lookup() const { return profiles.size() > 1 ? combined : *profiles.front(); }
};

// The one place a spec becomes a scenario source: the Table 1 job list or an
// exploration strategy.
std::unique_ptr<SpecSource> MakeSpecSource(const CampaignSpec& spec, const SystemEntry& entry) {
  auto made = std::make_unique<SpecSource>();
  if (spec.mode == CampaignMode::kTable1) {
    made->source = std::make_unique<ExhaustiveSource>(entry.table1_jobs(spec.exhaustive));
    return made;
  }
  made->profiles = entry.profiles();
  for (const FaultProfile* profile : made->profiles) {
    const std::vector<CallSiteReport>& cached =
        AnalysisCache::Instance().Reports(entry.binary().image(), *profile);
    made->reports.insert(made->reports.end(), cached.begin(), cached.end());
  }
  if (made->profiles.size() > 1) {
    for (auto it = made->profiles.rbegin(); it != made->profiles.rend(); ++it) {
      for (const auto& [name, fn] : (*it)->functions()) {
        made->combined.AddFunction(fn);
      }
    }
  }
  size_t budget = spec.budget != 0 ? spec.budget : 64;
  switch (spec.strategy) {
    case ExploreStrategy::kExhaustive: {
      std::vector<CampaignJob> jobs;
      for (const FaultProfile* profile : made->profiles) {
        for (CampaignJob& job : AnalyzerJobs(entry.binary().image(), *profile)) {
          jobs.push_back(std::move(job));
        }
      }
      made->source = std::make_unique<ExhaustiveSource>(std::move(jobs), spec.budget);
      return made;
    }
    case ExploreStrategy::kRandom:
      made->source = std::make_unique<RandomSweepSource>(
          made->lookup(), SiteFunctions(made->reports), budget, spec.seed);
      return made;
    case ExploreStrategy::kCoverage:
      break;
  }
  CoverageGuidedSource::Options options;
  options.budget = budget;
  options.seed = spec.seed;
  auto coverage = std::make_unique<CoverageGuidedSource>(made->reports, made->lookup(), options);
  made->coverage = coverage.get();
  made->source = std::move(coverage);
  return made;
}

// The supervision policy of an orchestrated `spec` whose epochs hold at
// most `epoch_jobs` jobs. The per-attempt deadline: explicit wins;
// otherwise derive one from the per-job budget (a worker runs at most the
// epoch's jobs, plus startup/merge slack). No budget at all = no deadline --
// hang detection is opt-in.
ShardSupervisor::Options SupervisorOptions(const CampaignSpec& spec, size_t epoch_jobs) {
  ShardSupervisor::Options options;
  options.max_retries = spec.max_retries;
  options.backoff_ms = spec.backoff_ms;
  options.child_timeout_ms = spec.child_timeout_ms;
  if (options.child_timeout_ms == 0 && spec.job_timeout_ms != 0) {
    options.child_timeout_ms = spec.job_timeout_ms * static_cast<uint64_t>(epoch_jobs + 2);
  }
  return options;
}

// Writes the epoch's frontier snapshot: tmp+rename like every artifact a
// resumed orchestrator or a reader may open, so a crash mid-write never
// leaves a half-written snapshot where a complete one is expected.
bool WriteFrontier(const FrontierState& frontier, const std::string& path, std::string* error) {
  std::string tmp_path = path + ".tmp";
  std::ofstream out(tmp_path);
  out << frontier.ToXml();
  bool ok = out.good();
  out.close();
  if (FailpointFired("frontier.write")) {
    ok = false;
  }
  if (!ok || std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    *error = "cannot write frontier snapshot " + path;
    return false;
  }
  return true;
}

// The campaign's one pool: warm instances reset between jobs, or under
// cold_start (spec attribute cold-start) a fresh instance per job, so
// `lfi_tool --cold-start` byte-compares against the default.
WarmPool::Policy PoolPolicy(const CampaignSpec& spec) {
  return spec.cold_start ? WarmPool::Policy::kFresh : WarmPool::Policy::kReuse;
}

// Reports `message` through the optional error out-parameter.
std::optional<CampaignOutcome> Fail(std::string* error, std::string message) {
  if (error != nullptr) {
    *error = std::move(message);
  }
  return std::nullopt;
}

CampaignOutcome FromExploration(ExplorationResult result, std::string journal_path) {
  CampaignOutcome outcome;
  outcome.bugs = std::move(result.bugs);
  outcome.coverage = std::move(result.coverage);
  outcome.scenarios_run = result.scenarios_run;
  outcome.jobs_executed = result.jobs_executed;
  outcome.jobs_proven_inert = result.jobs_proven_inert;
  outcome.journal_path = std::move(journal_path);
  return outcome;
}

}  // namespace

std::optional<CampaignOutcome> CampaignDriver::Run(std::string* error) {
  refused_ = false;
  std::string invalid = spec_.Validate();
  if (!invalid.empty()) {
    refused_ = true;
    return Fail(error, std::move(invalid));
  }
  // Chaos hooks, armed before anything fallible runs. Shard children get
  // the schedule in their copy of the spec (Arm replaces the whole set, so
  // a forked child re-arming its inherited registry is idempotent);
  // scope names this process so "epoch1.shard2:..." entries fire only in
  // the child they script.
  if (!spec_.failpoints.empty()) {
    std::string fp_error;
    if (!Failpoints::Instance().Arm(spec_.failpoints, &fp_error)) {
      return Fail(error, "bad failpoint spec: " + fp_error);
    }
  }
  if (spec_.shard_index != CampaignSpec::kNoShard) {
    Failpoints::Instance().SetScope(
        spec_.epoch_index != kNoEpoch
            ? StrFormat("epoch%zu.shard%zu", spec_.epoch_index, spec_.shard_index)
            : StrFormat("shard%zu", spec_.shard_index));
    if (FailpointFired("child.start")) {
      return Fail(error, "failpoint child.start fired");
    }
  }
  EnsureStockTriggersRegistered();
  try {
    switch (spec_.mode) {
      case CampaignMode::kTable1:
      case CampaignMode::kExplore:
        // Several shards and none of them named: this process orchestrates.
        return spec_.shard_count > 1 && spec_.shard_index == CampaignSpec::kNoShard
                   ? RunEpochOrchestration(error)
                   : RunCampaign(error);
      case CampaignMode::kResume:
        return RunResume(error);
      case CampaignMode::kReplay:
        return RunReplay(error);
    }
    return Fail(error, "unreachable campaign mode");
  } catch (const JournalRefusal& e) {
    refused_ = true;
    return Fail(error, e.what());
  } catch (const std::exception& e) {
    // The engine throws on unusable journals (divergence, I/O); surface it
    // as a CLI-friendly error instead of tearing down the process.
    return Fail(error, e.what());
  }
}

std::optional<CampaignOutcome> CampaignDriver::RunCampaign(std::string* error) {
  if (spec_.system == "all") {
    // The per-system engines share no job stream, so one journal cannot cover the
    // union campaign (Validate already refused a journal path).
    std::set<FoundBug> all;
    size_t scenarios = 0;
    for (const SystemEntry& entry : kSystems) {
      CampaignSpec per_system = spec_;
      per_system.system = entry.name;
      CampaignDriver driver(per_system);
      auto outcome = driver.Run(error);
      if (!outcome) {
        return std::nullopt;
      }
      all.insert(outcome->bugs.begin(), outcome->bugs.end());
      scenarios += outcome->scenarios_run;
    }
    CampaignOutcome outcome;
    outcome.bugs = {all.begin(), all.end()};
    outcome.scenarios_run = scenarios;
    return outcome;
  }

  const SystemEntry* entry = FindSystem(spec_.system);
  std::optional<WarmPool> own;
  WarmPool& pool = pool_ != nullptr
                       ? *pool_
                       : own.emplace(WorkloadFactory(spec_.system, spec_.mode), PoolPolicy(spec_));
  CampaignEngine engine(EngineOptions(spec_, *entry));
  ExplorationResult result;
  if (pool_ != nullptr) {
    // A shard worker runs exactly the jobs its orchestrator dealt it.
    ExhaustiveSource dealt(std::move(dealt_));
    result = engine.Run(dealt, pool.AsRunner());
  } else {
    std::unique_ptr<SpecSource> source = MakeSpecSource(spec_, *entry);
    if (spec_.shard_index != CampaignSpec::kNoShard) {
      // A static shard (`--shard I/N`) runs only its deal of the stream.
      ShardSource sharded(*source->source, spec_.shard_index, spec_.shard_count);
      result = engine.Run(sharded, pool.AsRunner());
    } else {
      result = engine.Run(*source->source, pool.AsRunner());
    }
  }
  CampaignOutcome outcome = FromExploration(std::move(result), spec_.journal_path);
  outcome.pool = pool.stats();
  return outcome;
}

std::optional<CampaignOutcome> CampaignDriver::RunResume(std::string* error) {
  auto journal = CampaignJournal::Load(spec_.journal_path, error);
  if (!journal) {
    return std::nullopt;
  }
  auto recorded = CampaignSpec::FromJournalMeta(journal->metadata(), error);
  if (!recorded) {
    return std::nullopt;
  }
  // Identity from the journal, environment from this invocation: workers,
  // the shard count (`resume --shards N` resumes a journal as a distributed
  // campaign again), supervision policy -- a resume never inherits the
  // killed run's failpoints -- and the journal path itself.
  recorded->AdoptEnvironment(spec_);
  recorded->resume = true;
  CampaignDriver driver(*recorded);
  auto outcome = driver.Run(error);
  if (outcome) {
    outcome->metadata = journal->metadata();
  }
  return outcome;
}

std::optional<CampaignOutcome> CampaignDriver::RunReplay(std::string* error) {
  auto journal = CampaignJournal::Load(spec_.journal_path, error);
  if (!journal) {
    return std::nullopt;
  }
  auto recorded = CampaignSpec::FromJournalMeta(journal->metadata(), error);
  if (!recorded) {
    return std::nullopt;
  }
  if (FindSystem(recorded->system) == nullptr) {
    return Fail(error, "journal names unknown system '" + recorded->system + "'");
  }
  // Which journaled injections to replay: every record that injected, or
  // the one the selector picks ("record" or "record:injection").
  struct Target {
    size_t record;
    size_t injection;
    // Whole-record replays re-inject the record's full fault sequence;
    // explicit "record:injection" selectors re-inject just the one fault.
    bool whole_record;
  };
  std::vector<Target> targets;
  const std::vector<JournalRecord>& records = journal->records();
  if (!spec_.replay_selector.empty()) {
    std::vector<std::string> parts = Split(spec_.replay_selector, ':');
    std::optional<uint64_t> record = ParseUint(parts[0]);
    if (!record || parts.size() > 2 || *record >= records.size()) {
      return Fail(error, StrFormat("bad record selector '%s' (journal has %zu records)",
                                   spec_.replay_selector.c_str(), records.size()));
    }
    const InjectionLog& log = records[*record].result.log;
    if (log.empty()) {
      return Fail(error, StrFormat("record %llu injected nothing; nothing to replay",
                                   static_cast<unsigned long long>(*record)));
    }
    std::optional<uint64_t> injection = parts.size() == 2 ? ParseUint(parts[1]) : log.size() - 1;
    if (!injection || *injection >= log.size()) {
      return Fail(error, StrFormat("record %llu has %zu injection(s)",
                                   static_cast<unsigned long long>(*record), log.size()));
    }
    targets.push_back({*record, *injection, /*whole_record=*/parts.size() != 2});
  } else {
    for (size_t i = 0; i < records.size(); ++i) {
      if (!records[i].result.log.empty()) {
        // The last injection is the one the run died on (when it died); the
        // replay re-injects the whole sequence leading up to it.
        targets.push_back({i, records[i].result.log.size() - 1, /*whole_record=*/true});
      }
    }
  }

  auto make_job = [&](size_t index) {
    const Target& target = targets[index];
    const JournalRecord& record = records[target.record];
    CampaignJob job;
    // Whole-record replays re-inject the full logged sequence: a survived
    // multi-injection run (the bfs consistency corruptions) only reproduces
    // when every earlier fault lands too, keeping the call numbering aligned
    // with the log. A single-injection selector keeps the narrower scenario.
    job.scenario = target.whole_record ? record.result.log.FullReplayScenario()
                                       : record.result.log.ReplayScenario(target.injection);
    job.label = StrFormat("replay %zu:%zu of %s", target.record, target.injection,
                          spec_.journal_path.c_str());
    job.seed = record.seed;
    return job;
  };

  CampaignOutcome outcome;
  outcome.journal_path = spec_.journal_path;
  outcome.metadata = journal->metadata();
  bool workers_ok = true;
  auto judge = [&](size_t index, ForkedResult forked) {
    const Target& target = targets[index];
    const JournalRecord& record = records[target.record];
    const InjectionRecord& injection = record.result.log.records()[target.injection];
    const JobResult& replayed = forked.result;
    workers_ok &= forked.failure.empty();

    // A record that exposed bugs must reproduce at least one of its crash
    // sites from disk alone; injection-only records just report what ran.
    // Records whose log spans several processes (the distributed pbft fuzz
    // phase interposes every replica) cannot be reproduced faithfully by
    // the single-process replay harness -- the call-count trigger would
    // land on the wrong replica's Nth call -- so they are informational.
    std::set<std::string> processes;
    for (const InjectionRecord& logged : record.result.log.records()) {
      processes.insert(logged.process);
    }
    bool single_process = processes.size() <= 1;
    bool has_expectation = !record.result.bugs.empty() && single_process;
    bool match = false;
    for (const FoundBug& want : record.result.bugs) {
      for (const FoundBug& got : replayed.bugs) {
        match |= want.system == got.system && want.kind == got.kind && want.where == got.where;
      }
    }

    ReplayOutcome replay;
    replay.record = target.record;
    replay.injection = target.injection;
    replay.function = injection.function;
    replay.call_number = injection.call_number;
    replay.crashed = !replayed.bugs.empty();
    replay.where = replayed.bugs.empty() ? "" : replayed.bugs.front().where;
    replay.recorded_bug = !record.result.bugs.empty();
    replay.distributed = !single_process;
    replay.informational = !has_expectation;
    replay.reproduced = has_expectation && match;
    outcome.replays_expected += has_expectation ? 1 : 0;
    outcome.replays_reproduced += (has_expectation && match) ? 1 : 0;
    outcome.replays.push_back(std::move(replay));
  };

  // Each record is reproduced from the recorded workload's post-setup
  // state, as the paper replays a logged scenario on a target in a known
  // starting state: persistent workers forked from one post-setup target
  // (core/fork_server.h) run the records and Reset() the target after each,
  // or under --cold-start build a target per record. No replay sees state
  // another left behind, and a record whose worker crashes or outlives
  // job_timeout_ms fails alone. The workers make their own jobs, so make_job
  // reads only `targets` and `records`, both loaded before the forks.
  // This thread is the process's only one here, as fork() requires.
  ForkServerOptions fork_options;
  fork_options.workers = spec_.workers;
  fork_options.job_timeout_ms = spec_.job_timeout_ms;
  fork_options.system = recorded->system;
  fork_options.scope_prefix = "replay";
  outcome.pool = RunForkServer(
      WorkloadFactory(recorded->system, recorded->mode), PoolPolicy(spec_), targets.size(),
      make_job, judge, fork_options);
  outcome.ok = workers_ok && outcome.replays_reproduced == outcome.replays_expected;
  return outcome;
}

std::optional<CampaignOutcome> CampaignDriver::RunEpochOrchestration(std::string* error) {
  const size_t batch_size = CampaignEngine::Options::kDefaultBatchSize;

  // Resume loads the merged journal (possibly torn by a kill) and replays
  // its complete epochs through the loop below; a fresh run refuses to
  // clobber an existing artifact.
  std::vector<JournalRecord> loaded;
  if (spec_.resume) {
    auto journal = CampaignJournal::Load(spec_.journal_path, error);
    if (!journal) {
      return std::nullopt;
    }
    for (const auto& [key, value] : spec_.ToJournalMeta()) {
      std::string recorded = journal->Meta(key, "");
      if (recorded != value) {
        refused_ = true;
        return Fail(error, "journal " + spec_.journal_path + " records a campaign with " + key +
                           "='" + recorded + "', not '" + value + "'; resuming it would diverge");
      }
    }
    loaded = journal->records();
  } else if (std::filesystem::exists(spec_.journal_path)) {
    refused_ = true;
    return Fail(error, "journal " + spec_.journal_path +
                       " already exists; resume it to continue the campaign, or delete it to "
                       "start fresh");
  }

  // The master enumerates the campaign's stream exactly as the
  // single-process engine would; its jobs never run here. `pool` is the
  // workers' zygote: prewarmed before the first live epoch's fork and never
  // run on in this process, so every worker inherits post-setup instances.
  const SystemEntry* entry = FindSystem(spec_.system);
  WarmPool pool(WorkloadFactory(spec_.system, spec_.mode), PoolPolicy(spec_));
  std::unique_ptr<SpecSource> master = MakeSpecSource(spec_, *entry);
  // Without epoch_len the whole stream is one epoch: no frontier snapshot,
  // and records stay unstamped like the single-process run's.
  const bool epochs = spec_.epoch_len != 0;
  // One persistent worker per shard (apps/common/shard_supervisor.h),
  // created with the first live epoch. A worker runs each epoch's dealt
  // jobs through a CampaignDriver over the `pool` it inherited.
  std::optional<ShardSupervisor> supervisor;
  const ShardSupervisor::WorkRunner run_dealt = [&pool](const CampaignSpec& child,
                                                        std::string_view work,
                                                        std::string* child_error) {
    std::optional<std::vector<CampaignJob>> dealt = DecodeCampaignJobs(work, child_error);
    if (!dealt) {
      return false;
    }
    CampaignDriver driver(child, &pool, std::move(*dealt));
    if (driver.Run(child_error).has_value()) {
      return true;
    }
    if (driver.refused()) {
      throw ChildRefusal(*child_error);
    }
    return false;
  };

  // The merged journal is written exactly the way the single-process
  // --epoch-len run writes its own: the same header (no shard keys), records
  // appended in stream order as epochs merge, one Finalize at the very end.
  // On resume the file is rewritten from record zero -- appending the loaded
  // records unchanged reseals extents at the same boundaries, so the rewrite
  // is bit-identical and cleanly discards any torn tail the kill left.
  CampaignJournal merged;
  if (!merged.Create(spec_.journal_path, spec_.ToJournalMeta(), error)) {
    return std::nullopt;
  }
  MergeFoldState fold;
  std::deque<JournalRecord> replay(loaded.begin(), loaded.end());
  size_t appended_live = 0;
  std::vector<ShardOutcome> shard_stats(spec_.shard_count);
  std::vector<std::set<FoundBug>> shard_bugs(spec_.shard_count);
  for (size_t shard = 0; shard < spec_.shard_count; ++shard) {
    shard_stats[shard].path = epochs ? spec_.journal_path + StrFormat(".epoch*.shard%zu", shard)
                                     : spec_.ShardJournalPath(shard);
    shard_stats[shard].shard_index = shard;
  }
  size_t scheduled = 0;  // stream position of the next enumerated job

  for (size_t epoch = 0;; ++epoch) {
    // The epoch's schedule is a pure function of the frontier: snapshot it
    // first, then enumerate the epoch's jobs from the master source exactly
    // as the single-process engine would -- up to epoch_len batches, ending
    // early if the frontier runs dry (feedback for these jobs arrives only
    // after the epoch merges, so enumeration is open-loop by construction).
    std::optional<FrontierState> frontier;
    if (epochs) {
      frontier = master->coverage->ExportFrontier();
    }
    std::vector<CampaignJob> jobs;
    for (size_t batches = 0; !epochs || batches < spec_.epoch_len; ++batches) {
      std::vector<CampaignJob> next = master->source->NextBatch(batch_size);
      if (next.empty()) {
        break;
      }
      for (CampaignJob& job : next) {
        // The drain position ShardSource stamps on a static shard's copy.
        if (job.stream_index == CampaignJob::kNoStreamIndex) {
          job.stream_index = scheduled;
        }
        ++scheduled;
        jobs.push_back(std::move(job));
      }
    }
    if (jobs.empty()) {
      break;  // frontier exhausted or budget reached: the campaign is over
    }
    const size_t epoch_stamp = epochs ? epoch : kNoEpoch;

    std::vector<JournalRecord> merged_records;
    const bool live = replay.size() < jobs.size();
    if (!live) {
      // The merged journal fully covers this epoch: its loaded records
      // substitute for child work, folded as the epoch's merge folded them
      // (the recomputed feedback equals the recorded copy, so the bytes do
      // not change).
      for (size_t i = 0; i < jobs.size(); ++i) {
        JournalRecord record = std::move(replay.front());
        replay.pop_front();
        if (!record.gated) {
          record.feedback = fold.Add(record.result);
        }
        if (!merged.Append(record)) {
          return Fail(error, "journal append failed rewriting " + spec_.journal_path +
                             ": disk full or I/O error");
        }
        ++fold.records;
        fold.next_stream_index = record.stream_index + 1;
        merged_records.push_back(std::move(record));
      }
    } else {
      // The first epoch the merged journal does not fully cover runs live.
      // Its partial records (the kill's torn tail) are discarded: the sealed
      // shard journals are the durable copy the epoch is rebuilt from, and a
      // shard whose journal already completed replays it from disk without
      // re-executing anything.
      replay.clear();

      std::vector<CampaignSpec> children;
      for (size_t shard = 0; shard < spec_.shard_count; ++shard) {
        CampaignSpec child = spec_;
        child.shard_index = shard;
        child.epoch_index = epoch_stamp;
        child.journal_path =
            epochs ? spec_.EpochShardJournalPath(epoch, shard) : spec_.ShardJournalPath(shard);
        child.abort_after_records = 0;
        // A leftover shard journal is a killed orchestration's completed
        // work: resume it (a complete one replays wholly from disk).
        child.resume = std::filesystem::exists(child.journal_path);
        children.push_back(std::move(child));
      }
      // The deal ShardSource makes: every job goes to the shard its
      // scenario fingerprint names, in stream order.
      std::vector<std::vector<CampaignJob>> dealt(spec_.shard_count);
      for (const CampaignJob& job : jobs) {
        dealt[ScenarioShard(job.scenario, spec_.shard_count)].push_back(job);
      }
      std::vector<std::string> work;
      for (const std::vector<CampaignJob>& shard_jobs : dealt) {
        work.push_back(EncodeCampaignJobs(shard_jobs));
      }
      if (!supervisor) {
        // One instance per job a worker can run at once: its engine
        // workers, capped by an even deal of the epoch. A worker that needs
        // more builds them.
        size_t per_child = (jobs.size() + spec_.shard_count - 1) / spec_.shard_count;
        pool.Prewarm(std::min<size_t>(WorkerPool::ResolveWorkers(spec_.workers), per_child));
        supervisor.emplace(SupervisorOptions(spec_, epochs ? spec_.epoch_len * batch_size
                                                           : jobs.size()),
                           run_dealt);
      }

      // While the workers run, this process writes the epoch's frontier
      // snapshot (no worker reads it; `journal doctor` and offline tools
      // do) and loads each shard journal as its worker replies.
      std::vector<std::optional<CampaignJournal>> replied(spec_.shard_count);
      ShardSupervisor::Events events;
      events.dispatched = [&](std::string* event_error) {
        return !epochs || WriteFrontier(*frontier, spec_.EpochFrontierPath(epoch), event_error);
      };
      events.finished = [&](size_t shard, std::string* event_error) {
        replied[shard] = CampaignJournal::Load(children[shard].journal_path, event_error);
        return replied[shard].has_value();
      };
      std::vector<ShardSupervisor::Report> reports;
      if (!supervisor->Run(children, work, events, error, &reports)) {
        return std::nullopt;
      }
      std::vector<CampaignJournal> shard_journals;
      for (size_t shard = 0; shard < spec_.shard_count; ++shard) {
        shard_stats[shard].workers += reports[shard].forks;
        shard_journals.push_back(std::move(*replied[shard]));
      }
      if (!MergeRecordsInto(merged, shard_journals, &fold, error, &merged_records)) {
        return std::nullopt;
      }
      for (size_t shard = 0; shard < shard_journals.size(); ++shard) {
        AccountMergeInput(shard_journals[shard], &shard_bugs[shard], &shard_stats[shard]);
      }
    }

    // Either way the epoch must be exactly what the master scheduled.
    if (merged_records.size() != jobs.size()) {
      return Fail(error, StrFormat("epoch %zu merged %zu records but the master scheduled %zu "
                                   "jobs; a shard child diverged from the schedule",
                                   epoch, merged_records.size(), jobs.size()));
    }
    for (size_t i = 0; i < jobs.size(); ++i) {
      const JournalRecord& record = merged_records[i];
      if (record.label != jobs[i].label || record.stream_index != jobs[i].stream_index ||
          record.epoch != epoch_stamp) {
        return Fail(error,
                    StrFormat("epoch %zu record %zu of %s is '%s' where the master scheduled "
                              "'%s'; %s diverged from this spec",
                              epoch, i, spec_.journal_path.c_str(), record.label.c_str(),
                              jobs[i].label.c_str(), live ? "a shard child" : "the journal"));
      }
    }
    // The epoch boundary: the whole epoch's feedback reaches the master
    // source at once, in stream order -- exactly the single-process engine's
    // deferred epoch flush.
    for (size_t i = 0; i < jobs.size(); ++i) {
      master->source->OnFeedback(jobs[i], merged_records[i].feedback);
    }
    appended_live += live ? merged_records.size() : 0;
    if (spec_.abort_after_records != 0 && appended_live >= spec_.abort_after_records) {
      // The kill-and-resume test hook, mirroring the engine's: die without
      // finalizing. The sealed shard journals plus the merged journal's
      // sealed extents are exactly what resume rebuilds from.
      std::_Exit(3);
    }
  }

  if (!replay.empty()) {
    return Fail(error, StrFormat("journal %s has %zu records past the regenerated stream's end; "
                                 "it was not recorded by this spec",
                                 spec_.journal_path.c_str(), replay.size()));
  }
  if (!merged.Finalize(error)) {
    return std::nullopt;
  }
  CampaignOutcome outcome = FromExploration(fold.TakeResult(), spec_.journal_path);
  outcome.metadata = spec_.ToJournalMeta();
  outcome.shards = std::move(shard_stats);
  outcome.pool = pool.stats();
  return outcome;
}

std::optional<CampaignOutcome> MergeCampaignJournals(const std::vector<std::string>& inputs,
                                                     const std::string& output_path,
                                                     std::string* error) {
  JournalMetadata metadata;
  std::vector<MergeInputStats> stats;
  auto merged = MergeJournals(inputs, output_path, error, &metadata, &stats);
  if (!merged) {
    return std::nullopt;
  }
  CampaignOutcome outcome = FromExploration(std::move(*merged), output_path);
  outcome.metadata = std::move(metadata);
  for (MergeInputStats& input : stats) {
    outcome.shards.push_back({std::move(input)});
  }
  return outcome;
}

}  // namespace lfi
