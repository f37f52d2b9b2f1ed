// The campaign driver: one executor for every CampaignSpec.
//
// CampaignDriver owns everything the per-system free functions and
// lfi_tool's subcommands used to wire by hand: source construction (the
// Table 1 job lists or an exploration strategy), engine options, journal
// creation/resume, replay, and result reporting. Run() returns one
// CampaignOutcome -- bugs, cumulative coverage, the journal artifact, and
// per-shard/per-replay accounting -- whatever the mode.
//
// Multi-process campaigns are a property of the spec, not separate wiring:
// a spec with shard_count > 1 and no shard_index makes Run() orchestrate,
// always through one loop, the epoch protocol (docs/architecture.md). Per
// epoch, the orchestrator enumerates the epoch's jobs from its one copy of
// the spec's source and deals them by scenario fingerprint (the deal
// core/exploration.h's ShardSource makes). Each shard has one persistent
// worker, forked from the orchestrator once per campaign on the post-setup
// target instances its one pool brought up before its first fork (the
// zygote, core/warm_pool.h; Table 1's second-phase jobs run on the same
// instances); every epoch the worker runs exactly the jobs dealt to
// it into a sealed per-shard journal (apps/common/shard_supervisor.h), and
// the shard journals are merged (core/journal.h MergeRecordsInto) into
// spec.journal_path, a valid, resumable single-process journal.
// Coverage-guided exploration runs epoch_len batches per epoch; the
// orchestrator also snapshots each epoch's frontier to disk for offline
// tools. An open-loop spec (table1 --exhaustive, explore
// exhaustive|random) is the one-epoch case: its whole stream is one epoch,
// workers write spec.ShardJournalPath(i), and records carry no epoch stamp.

#ifndef LFI_APPS_COMMON_CAMPAIGN_DRIVER_H_
#define LFI_APPS_COMMON_CAMPAIGN_DRIVER_H_

#include <optional>
#include <string>
#include <vector>

#include "apps/common/campaign_spec.h"
#include "core/campaign_engine.h"
#include "core/journal.h"
#include "core/warm_pool.h"

namespace lfi {

// One journaled injection re-run by replay mode.
struct ReplayOutcome {
  size_t record = 0;     // journal record index
  size_t injection = 0;  // injection index within the record's log
  std::string function;  // what was re-injected, for reporting
  uint64_t call_number = 0;
  bool crashed = false;     // the re-run exposed a bug, or its worker failed
  std::string where;        // its crash site (or how the worker died), when it did
  bool recorded_bug = false;  // the journal record had exposed a bug
  bool distributed = false;   // the record's log spans several processes
  bool informational = false;  // no reproduction expectation (clean or
                               // multi-process record); excluded from ok
  bool reproduced = false;  // a recorded crash site was matched
};

// One shard of an orchestrated run (or one input of a merge): its merge
// accounting, and the worker processes it took.
struct ShardOutcome : MergeInputStats {
  // Workers forked for the shard over the campaign, respawns included: one
  // for a clean run, 0 for a merge or when every epoch replayed from disk.
  size_t workers = 0;
};

// What a driven campaign yields, whatever the mode.
struct CampaignOutcome {
  std::vector<FoundBug> bugs;
  CoverageMap coverage;
  size_t scenarios_run = 0;
  // The journal written (table1/explore/shard) or consumed (resume/replay);
  // "" when the run was not journaled.
  std::string journal_path;
  // The journal header (resume/replay/shard: what the artifact records).
  JournalMetadata metadata;
  // Shard orchestration and merges: one entry per shard or input.
  std::vector<ShardOutcome> shards;
  // Replay mode: per-injection detail plus the pass/fail summary.
  std::vector<ReplayOutcome> replays;
  size_t replays_expected = 0;
  size_t replays_reproduced = 0;
  // False only when replay mode failed to reproduce an expected crash site
  // or a replay worker died, hung or sent an undecodable result.
  bool ok = true;
  // Single-process table1/explore: the counters of the campaign's one pool,
  // which runs every job, Table 1's second phases included (builds == runs
  // under cold_start). Replay: the fork server's, builds 1 (the zygote) or
  // == runs under cold_start, resets one per record whose worker reset its
  // target after it, dropped one per worker retired by a failed Reset().
  // Orchestrated runs: the orchestrator's pool, whose builds are the zygote
  // instances it prewarmed for its children (0 under cold_start, or when
  // every epoch replayed from the journal), and whose runs and resets read
  // 0 under any failure schedule: the orchestrator runs no job.
  WarmPool::Stats pool;
  // Single-process table1/explore/resume: jobs handed to the runner, and
  // jobs that took the fault-free baseline's result because they provably
  // inject nothing (ExplorationResult). Never journaled, not in --json;
  // zero for orchestrated runs.
  size_t jobs_executed = 0;
  size_t jobs_proven_inert = 0;
};

class CampaignDriver {
 public:
  explicit CampaignDriver(CampaignSpec spec) : spec_(std::move(spec)) {}

  const CampaignSpec& spec() const { return spec_; }

  // True when the last Run() failed with a refusal that running the same
  // spec again would repeat: the spec failed validation, or a journal on
  // disk records a different campaign (or exists where a fresh one was
  // asked for). The shard supervisor does not retry such a child.
  bool refused() const { return refused_; }

  // Executes the spec. Returns nullopt with *error set on invalid specs,
  // unusable journals, or failed shard children; engine exceptions
  // (journal divergence, I/O) are surfaced the same way.
  std::optional<CampaignOutcome> Run(std::string* error = nullptr);

 private:
  // Single-process table1/explore: the spec's source on one engine.
  std::optional<CampaignOutcome> RunCampaign(std::string* error);
  std::optional<CampaignOutcome> RunResume(std::string* error);
  std::optional<CampaignOutcome> RunReplay(std::string* error);
  // The one orchestrator (shard_count > 1): runs the spawn -> merge -> reseed
  // loop docs/architecture.md specifies, one epoch per loop iteration,
  // producing a merged journal byte-identical to the single-process run.
  std::optional<CampaignOutcome> RunEpochOrchestration(std::string* error);
  // A shard worker's driver for one epoch: runs exactly the `dealt` jobs on
  // `pool`, the orchestrator's pool it inherited, instead of building a
  // source and a pool of its own.
  CampaignDriver(CampaignSpec spec, WarmPool* pool, std::vector<CampaignJob> dealt)
      : spec_(std::move(spec)), pool_(pool), dealt_(std::move(dealt)) {}

  CampaignSpec spec_;
  WarmPool* pool_ = nullptr;        // inherited from the orchestrator, or null
  std::vector<CampaignJob> dealt_;  // with pool_: the worker's jobs
  bool refused_ = false;
};

// Merges journals through MergeJournals and reports the result as a
// CampaignOutcome (`lfi_tool merge`).
std::optional<CampaignOutcome> MergeCampaignJournals(const std::vector<std::string>& inputs,
                                                     const std::string& output_path,
                                                     std::string* error = nullptr);

}  // namespace lfi

#endif  // LFI_APPS_COMMON_CAMPAIGN_DRIVER_H_
