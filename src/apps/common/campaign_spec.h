// The declarative campaign description.
//
// A CampaignSpec is the one value that fully identifies a fault-injection
// campaign: which system, which mode (the paper's Table 1 list, feedback
// exploration, resuming or replaying a journal), which strategy/budget/seed,
// how parallel, where the journal lives, and -- for multi-process campaigns
// -- which shard of the work this process owns. Everything that used to be
// spread across CampaignConfig, ExploreConfig, CampaignEngine::Options
// wiring, and lfi_tool's per-subcommand parsing collapses into this struct;
// CampaignDriver (campaign_driver.h) executes it.
//
// One field table in campaign_spec.cc is the spec's schema. Each entry names
// a field's CLI flag, its journal-header key, whether it is campaign
// identity or execution environment, and the one strict parser and printer
// for its value. ParseSpecFlags, ToJournalMeta/FromJournalMeta (how
// `resume` rebuilds the whole spec from the artifact alone),
// AdoptEnvironment and SpecFlagsUsage are loops over it. Shard workers need
// no serialized spec: each is a fork of the orchestrator and gets its spec
// as a value, and each epoch's request carries only the fields that change
// between epochs (apps/common/shard_supervisor.h).
//
// This header also owns the one copy of the name<->enum parse tables
// (system, mode, strategy) that lfi_tool and the campaign library used to
// duplicate.

#ifndef LFI_APPS_COMMON_CAMPAIGN_SPEC_H_
#define LFI_APPS_COMMON_CAMPAIGN_SPEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign_engine.h"

namespace lfi {

// What the campaign does with its scenarios.
enum class CampaignMode {
  kTable1,   // the §7.1 bug campaign: the historical job list, run to the end
  kExplore,  // feedback-driven exploration under a strategy/budget/seed
  kResume,   // continue a journaled campaign (identity read from the header)
  kReplay,   // re-inject journaled faults from disk and check reproduction
};

const char* CampaignModeName(CampaignMode mode);
std::optional<CampaignMode> ParseCampaignMode(const std::string& name);

// How kExplore produces scenarios (core/exploration.h implements these).
enum class ExploreStrategy {
  kExhaustive,  // the analyzer's job list, in order (the paper's behaviour)
  kRandom,      // seeded random sweep over (function, error mode, ordinal)
  kCoverage,    // coverage-guided: feedback steers sites and mutations
};

const char* ExploreStrategyName(ExploreStrategy strategy);
std::optional<ExploreStrategy> ParseExploreStrategy(const std::string& name);

// The campaign target systems, in canonical order. "all" (the union
// campaign) is accepted by Table 1 mode but is not a member.
const std::vector<std::string>& CampaignSystemNames();
bool IsCampaignSystem(const std::string& name);

struct CampaignSpec {
  static constexpr size_t kNoShard = static_cast<size_t>(-1);

  std::string system = {};  // "git"|"mysql"|"bind"|"pbft"|"bfs", or "all" (table1 only)
  CampaignMode mode = CampaignMode::kExplore;
  ExploreStrategy strategy = ExploreStrategy::kExhaustive;
  // Table 1 mode: run every generated scenario instead of stopping the fuzz
  // phases at the historical bug counts. Required when sharding table1 work
  // (the saturation cutoff is a global property no shard can see).
  bool exhaustive = false;
  size_t budget = 0;   // explore: 0 = the strategy's natural size
  uint64_t seed = 1;   // drives random selection and per-job Runtime seeds
  int workers = 1;     // engine worker pool; <= 0 = one per hardware thread
  // Journal artifact: written by table1/explore runs, read (and continued /
  // replayed) by resume/replay. Required when shard_count > 1.
  std::string journal_path = {};
  // With journal_path: replay an existing journal first and continue where
  // it stopped (kResume sets this implicitly after reading the header).
  bool resume = false;
  // Multi-process sharding. shard_count > 1 with shard_index unset makes
  // CampaignDriver orchestrate: deal every epoch's jobs to one persistent
  // forked worker per shard, then merge the per-shard journals.
  // With shard_index set, this process runs only that shard of the
  // deterministic stream into ShardJournalPath-style artifacts.
  size_t shard_index = kNoShard;
  size_t shard_count = 1;
  // Epoch-synchronized exploration: with epoch_len != 0 the coverage-guided
  // frontier runs open-loop for epoch_len merged batches, then all feedback
  // for the epoch folds in at once. This makes the feedback schedule a pure
  // function of the spec -- the property that lets shard_count > 1 combine
  // with the coverage strategy (the orchestrator schedules an epoch, its
  // shard workers run it blind, it merges the results and feeds them back)
  // while staying bit-identical to the single-process run. Part of the campaign identity
  // (journal key "epoch-len") whenever nonzero.
  size_t epoch_len = 0;
  // A shard worker's run of one epoch carries the epoch ordinal so its
  // journal records are stamped (and its artifact labelled) correctly. Never
  // part of the merged identity -- MergeJournals strips it with the shard
  // keys.
  size_t epoch_index = kNoEpoch;
  // --- supervision policy (apps/common/shard_supervisor.h) -----------------
  // Execution environment, never campaign identity: none of these enter
  // ToJournalMeta, so a journal recorded under any timeout/retry/failpoint
  // schedule resumes and byte-compares against any other.
  //
  // Wall-clock deadline per spawned shard child; a child past it is
  // SIGKILLed and retried. 0 derives one from job_timeout_ms (per-epoch job
  // count + slack) when that is set, else no deadline.
  uint64_t child_timeout_ms = 0;
  // Respawns per failed shard child (crash, nonzero exit, timeout) before
  // the campaign fails loudly. A respawn resumes the dead child's sealed
  // journal prefix, so retries never change the merged bytes.
  size_t max_retries = 2;
  uint64_t backoff_ms = 50;  // first respawn delay; doubles, capped
  // Engine-level hang detection: wall-clock budget per job. A job past it is
  // abandoned and reported as a deterministic FoundBug kind "hang"
  // (CampaignEngine::Options::job_timeout_ms). 0 = off.
  uint64_t job_timeout_ms = 0;
  // Pool policy: run every job against a freshly built target (the paper's
  // fresh-process-per-test model) instead of resetting and reusing pooled
  // instances (core/warm_pool.h, WarmPool::Policy). Execution environment,
  // never campaign identity -- warm and cold runs produce byte-identical
  // journals, so this is not in ToJournalMeta; forked shard children
  // inherit it with their spec. Orchestrated runs prewarm no target under
  // it, so every shard child job still builds its own instance (by default
  // children run on instances the orchestrator built before its first
  // fork). Replay runs every record on a persistent forked worker either
  // way (core/fork_server.h): by default the worker runs it on the target it
  // inherited, built once before the forks, and resets that target after;
  // under cold_start the worker builds a target per record.
  bool cold_start = false;
  // Failpoint schedule (util/failpoint.h spec syntax) armed by the driver
  // and inherited by forked shard children with their spec. Chaos testing
  // only; stripped from supervisor respawns.
  std::string failpoints = {};
  // Always kExtent (see JournalFormat).
  JournalFormat format = JournalFormat::kExtent;
  // Replay mode: "record[:injection]" selecting one journaled injection;
  // empty replays every record that injected.
  std::string replay_selector = {};
  size_t abort_after_records = 0;  // kill-and-resume test hook (engine)

  bool operator==(const CampaignSpec&) const = default;

  // "" when the spec is runnable; otherwise a CLI-friendly description of
  // what is wrong (unknown system, coverage strategy sharded, ...).
  std::string Validate() const;

  // Journal identity: the header a journaled run of this spec records
  // (matching the historical key order, so old journals still resume), and
  // the inverse `lfi_tool resume` uses. Environment fields (workers,
  // supervision policy, abort hook) are not part of the identity. The reader
  // parses every known key as strictly as ParseSpecFlags, refuses commands
  // other than table1 ("campaign") and explore, and ignores keys it does not
  // know (free-form annotations that merges carry along).
  JournalMetadata ToJournalMeta() const;
  static std::optional<CampaignSpec> FromJournalMeta(const JournalMetadata& meta,
                                                     std::string* error = nullptr);

  // Copies every environment field -- everything the journal identity does
  // not record, shard count included -- from `invocation`: a resumed
  // campaign is the journal's identity run under this invocation's
  // environment.
  void AdoptEnvironment(const CampaignSpec& invocation);

  // Canonical per-shard artifact path: "<journal_path>.shard<i>".
  std::string ShardJournalPath(size_t shard) const;

  // Epoch-protocol artifact paths: the sealed per-epoch shard journal
  // "<journal_path>.epoch<e>.shard<i>" and the snapshot of the frontier
  // epoch e was scheduled from, "<journal_path>.epoch<e>.frontier" (read
  // by offline tools, never by a worker).
  std::string EpochShardJournalPath(size_t epoch, size_t shard) const;
  std::string EpochFrontierPath(size_t epoch) const;
};

// Parses the command-line flags args[start..] into `spec` through the field
// table; a bare integer is the worker count (the historical `campaign
// <system> <workers>` form). Returns false with `error` set on an unknown
// option, a missing value or a value the field's parser refuses (trailing
// bytes, a sign on an unsigned field, overflow).
bool ParseSpecFlags(const std::vector<std::string>& args, size_t start, CampaignSpec* spec,
                    std::string* error);

// One usage line per documented flag, generated from the field table.
std::string SpecFlagsUsage();

}  // namespace lfi

#endif  // LFI_APPS_COMMON_CAMPAIGN_SPEC_H_
