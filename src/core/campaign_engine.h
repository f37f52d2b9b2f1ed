// The parallel campaign engine.
//
// The §7.1 campaign ("LFI entirely on its own") is embarrassingly parallel:
// every generated scenario is an independent controller run against a fresh
// instance of the target. The engine exploits that. It streams CampaignJobs
// from a ScenarioSource (core/exploration.h) -- the analyzer's reports, a
// random-injection generator, an explicit list, or a feedback-driven
// strategy -- shards them across a work-stealing worker pool, runs each
// through the campaign's runner (a WarmPool, core/warm_pool.h), and merges
// the results with the campaign's crash-site dedup.
//
// Determinism is load-bearing: results are merged in *job order* no matter
// which worker finishes first, and jobs carry a per-scenario RNG seed that
// Runtime::Options threads to the triggers, so an N-worker run returns a bug
// list bit-identical to the 1-worker (serial) baseline. A feedback-driven
// source gets per-job RunFeedback -- the bugs, the injection fingerprint,
// and the coverage blocks that run covered for the first time -- as each
// job merges, and schedules its next batch once the current one merged;
// an open-loop source is the one-batch case of the same loop. The batch size is
// independent of the worker count, so the same seed + strategy produces a
// bit-identical bug list at any parallelism.

#ifndef LFI_CORE_CAMPAIGN_ENGINE_H_
#define LFI_CORE_CAMPAIGN_ENGINE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/runtime.h"
#include "core/scenario.h"
#include "coverage/coverage.h"
#include "image/image.h"
#include "profiler/fault_profile.h"

namespace lfi {

class ScenarioSource;

// Header fields of a campaign journal (core/journal.h): what a fresh journal
// records about the campaign's identity, and what `lfi_tool resume` reads
// back to reconstruct it.
using JournalMetadata = std::vector<std::pair<std::string, std::string>>;

// Epoch sentinel: "not part of an epoch-synchronized campaign". Epochs are
// the synchronization unit of distributed coverage-guided exploration
// (docs/architecture.md): feedback reaches the scenario source only at epoch
// boundaries, and journal records remember which epoch produced them so a
// resumed orchestrator can reconstruct the schedule.
inline constexpr size_t kNoEpoch = static_cast<size_t>(-1);

// The one on-disk journal encoding (core/extent_journal.h,
// docs/journal-format.md). Nothing selects an encoding; the enum and the
// fields of this type survive only because campaign_bench/traced.cc still
// names them, and go at the next change to the benchmark.
enum class JournalFormat {
  kExtent,  // binary: CRC-checked, optionally compressed extents + footer index
};

// A bug exposed by the campaign, deduplicated by crash site: two injections
// crashing at the same place in the same system are one bug (Table 1 counts
// distinct sites, not distinct scenarios).
struct FoundBug {
  std::string system;    // "git", "mysql", "bind", "pbft", "bfs"
  std::string kind;      // "SIGSEGV", "double mutex unlock", "data loss", ...
  std::string where;     // crash site / corruption description
  std::string injected;  // the fault that exposed it, e.g. "opendir=NULL@list_branches"
  bool operator<(const FoundBug& o) const {
    return std::tie(system, kind, where) < std::tie(o.system, o.kind, o.where);
  }
  bool operator==(const FoundBug& o) const = default;

  // XML rendering (<bug system kind where injected/>), used by
  // `lfi_tool journal dump`.
  void AppendXml(XmlNode* parent) const;
  std::string ToXml() const;
};

// Everything one job's run reports back to the streaming engine: the bugs it
// exposed plus the observations the feedback loop runs on. The coverage map
// is the job's own (the application instance's), merged into the cumulative
// exploration map at the deterministic job-order merge point.
struct JobResult {
  std::vector<FoundBug> bugs;
  CoverageMap coverage;
  std::string fingerprint;  // InjectionLog::Fingerprint + crash site, "" = clean run
  size_t injections = 0;
  // The run's full injection log. Persisted by the campaign journal so any
  // recorded injection can be replayed from disk (InjectionLog::
  // ReplayScenario) without re-running the original campaign.
  InjectionLog log;
  // Intercepted calls per scenario function, reported only for a job with
  // CampaignJob::count_calls set (the engine's fault-free baseline); a
  // runner that cannot count leaves it empty. Never journaled.
  std::optional<CallCounts> call_counts;
};

// One schedulable unit: a scenario plus everything needed to attribute and
// reproduce its outcome.
struct CampaignJob {
  static constexpr size_t kNoStreamIndex = static_cast<size_t>(-1);

  Scenario scenario;
  std::string label;  // FoundBug::injected for bugs this job exposes
  uint64_t seed = 0;  // Runtime::Options::seed; 0 = scenario's own seeds
  // Global position in the campaign's deterministic scenario stream. Sharded
  // sources (ShardSource) stamp it so a shard's journal remembers where each
  // job sat in the unsharded stream and MergeJournals can interleave shard
  // records back into single-process merge order. kNoStreamIndex makes the
  // journal fall back to the engine's own merge index.
  size_t stream_index = kNoStreamIndex;
  // Runs the system's second-phase workload instead of the campaign
  // default: Table 1's bind dst sweep, pbft distributed fuzz and bfs
  // partial transfers. The system's runner core dispatches on it, on the
  // campaign's one pool (apps/common/warm_targets.h), so a job is data
  // wherever it runs, a shard worker included.
  bool second_phase = false;
  // Subject to CampaignEngine::Options::max_bugs: the job is skipped once
  // the bugs merged so far (in job order) reach the cap. Models the serial
  // campaigns' "keep fuzzing until N bugs" loops deterministically.
  bool skip_when_saturated = false;
  // Asks the runner to report JobResult::call_counts.
  bool count_calls = false;
};

// What a streamed run yields beyond the bug list: the union of every job's
// coverage map and how many scenarios actually executed (gated jobs do not
// count). The last two split the jobs this run neither replayed from a
// journal nor skipped at saturation: handed to the runner, or given the
// fault-free baseline's result because they provably inject nothing (the
// baseline run itself is neither).
struct ExplorationResult {
  std::vector<FoundBug> bugs;
  CoverageMap coverage;
  size_t scenarios_run = 0;
  size_t jobs_executed = 0;
  size_t jobs_proven_inert = 0;
};

// What CampaignEngine::Run throws when it refuses a journal before running
// anything: resuming a file that records a different campaign identity, or
// starting fresh over an existing file. The same options always get the
// same refusal.
class JournalRefusal : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class CampaignEngine {
 public:
  struct Options {
    // The batch size every spec-driven campaign runs with (CampaignSpec has
    // no batch-size knob): epoch arithmetic -- epoch_len is measured in
    // batches -- must agree between the engine and the distributed
    // orchestrator, so both read it here.
    static constexpr size_t kDefaultBatchSize = 8;

    int workers = 1;      // <= 0: one worker per hardware thread
    size_t max_bugs = 0;  // 0 = run everything; else gate skip_when_saturated jobs
    // Jobs pulled from a feedback-driven ScenarioSource per batch. Part of
    // the determinism contract: the source schedules its next batch only
    // after the current one merged, so the batch size -- never the worker
    // count -- decides what the strategy knows when it schedules.
    size_t batch_size = kDefaultBatchSize;
    // Non-empty: persist every merged job -- scenario, injection log,
    // fingerprint, bugs, coverage delta -- to an append-only campaign
    // journal at this path (core/journal.h). Records are appended at the
    // deterministic merge point and flushed one by one, so a killed run
    // loses at most the record being written.
    std::string journal_path = {};
    // With journal_path set: load the journal first and replay its records
    // instead of executing the corresponding jobs -- the source still
    // streams and receives feedback exactly as live, so its state (dedup,
    // mutation queues, saturation) ends up where the killed run left off,
    // and execution resumes at the first unjournaled job. The final result
    // is bit-identical to an uninterrupted run at any worker count.
    bool resume = false;
    // Header fields for a fresh journal (campaign identity: system,
    // strategy, budget, seed). On resume the loaded header wins; a mismatch
    // with these values is an error.
    JournalMetadata journal_meta = {};
    // Always kExtent (see JournalFormat).
    JournalFormat journal_format = JournalFormat::kExtent;
    // Test hook for the kill-and-resume contract: exit the process (no
    // destructors, mid-campaign) right after this many records have been
    // appended in this run. 0 = off.
    size_t abort_after_records = 0;
    // Epoch-synchronized feedback (> 0, in batches): OnFeedback delivery to
    // a feedback-driven source is withheld until `epoch_len` merged batches
    // complete (or the source runs dry mid-epoch), then delivered in job
    // order all at once. This is the single-process reference semantics of
    // distributed coverage-guided exploration -- the orchestrator's
    // spawn/merge/reseed loop must produce the same stream, byte for byte --
    // and records are stamped with the epoch ordinal that produced them.
    size_t epoch_len = 0;
    // Stamps every record this run appends with one fixed epoch ordinal: an
    // epoch shard child's whole run lies inside a single epoch. kNoEpoch =
    // no stamp (the default for ordinary campaigns).
    size_t epoch = kNoEpoch;
    // Wall-clock budget per job (0 = none). A job still running past it --
    // a target hung under an injected fault -- is abandoned on its worker
    // thread and reported as a deterministic FoundBug kind "hang" whose
    // site and fingerprint derive from the job label alone, so the record
    // (and the journal bytes) are reproducible. Deliberately NOT part of
    // the campaign identity: the same campaign run under any timeout
    // resumes and byte-compares against any other, and resume replays hang
    // records from disk without re-waiting.
    uint64_t job_timeout_ms = 0;
    // System name attributed to hang bugs ("" falls back to "campaign").
    std::string system = {};
  };

  using ResultRunner = std::function<JobResult(const CampaignJob&)>;

  CampaignEngine() = default;
  explicit CampaignEngine(Options options) : options_(options) {}

  // Pulls batches of Options::batch_size jobs from `source` until it is
  // exhausted -- an open-loop source (needs_feedback() false) is drained
  // into one batch -- and runs each batch's jobs through `runner` on the
  // worker pool. Results merge eagerly in job order as the completion
  // cursor advances, and each merged job's RunFeedback reaches the source
  // at once (or at the epoch boundary, with epoch_len). The merge decides
  // dedup winners -- which scenario gets the `injected` attribution for a
  // shared crash site -- and the max_bugs gate, whose saturation skips take
  // effect mid-batch. Deterministic for any worker count: batch boundaries,
  // merge order, and feedback order depend only on the source and the
  // batch size.
  //
  // An open-loop batch with at least two jobs that could be inert (their
  // scenarios inject nothing at zero calls, ScenarioCannotInject) runs a
  // fault-free baseline once, through `runner` and the job watchdog: an
  // observe-only scenario counting every function those jobs name. Each
  // job the baseline's counts prove inert then takes a copy of the
  // baseline's result instead of running; its merge, feedback and journal
  // record are unchanged, because that copy is byte for byte what it would
  // have produced. A baseline that hangs, throws, injects, finds a bug or
  // reports no counts turns the skip off. Second-phase jobs (whose workload
  // is not the one the baseline counts), feedback-driven batches (epoch
  // shard children's included) and journal replay never skip.
  ExplorationResult Run(ScenarioSource& source, const ResultRunner& runner) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

// The deterministic result of a job that outlived its wall-clock budget
// (Options::job_timeout_ms): one FoundBug of kind "hang" attributed to
// `system` ("" falls back to "campaign"), whose site and fingerprint derive
// from the job's `label` alone, so a record is identical however long the
// wait actually took. The engine's watchdog and the fork server (core/
// fork_server.h) both report a hung job this way.
JobResult HangResult(const std::string& label, const std::string& system);

// Runtime options carrying a job's deterministic seed.
inline Runtime::Options SeededOptions(uint64_t seed) {
  Runtime::Options options;
  options.seed = seed;
  return options;
}

// --- Scenario sources -------------------------------------------------------

// One job per not-fully-checked call site of `binary` against `profile`
// (reports come from the AnalysisCache, so repeated campaigns and concurrent
// workers share one analyzer pass). Labels are "function@enclosing+0xoff";
// per-job seeds derive from `seed_base` and the site offset.
std::vector<CampaignJob> AnalyzerJobs(const Image& binary, const FaultProfile& profile,
                                      uint64_t seed_base = 1);

// A single-site random-injection scenario: fail `function` with
// (retval, errno) at `probability` on every call, stream seeded by `seed`.
Scenario MakeRandomScenario(const std::string& function, int64_t retval, int errno_value,
                            double probability, uint64_t seed);

// One observe-only (return="unused", trigger-less) association per function:
// a scenario that injects nothing and makes the runtime count every call of
// `functions`. The engine's fault-free baseline.
Scenario MakeObserveScenario(const std::vector<std::string>& functions);

// Fails the `count`-th call to `function` with (retval, errno): the
// exhaustive-sweep building block (e.g. the BIND dst_lib_init malloc sweep).
Scenario MakeCallCountScenario(const std::string& function, uint64_t count, int64_t retval,
                               int errno_value);

}  // namespace lfi

#endif  // LFI_CORE_CAMPAIGN_ENGINE_H_
