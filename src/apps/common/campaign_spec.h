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
// Specs round-trip through the XML subsystem (<campaignspec .../>), which is
// also the parent->child wire format of `lfi_tool shard`: the orchestrator
// serializes one spec per shard and each child runs `lfi_tool run-spec`.
// They equally round-trip through a campaign journal's header metadata, so
// `resume` can rebuild the whole spec from the artifact alone.
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
#include "xml/xml.h"

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
  // CampaignDriver orchestrate: run every shard (spawning child processes
  // when it knows the lfi_tool path), then merge the per-shard journals.
  // With shard_index set, this process runs only that shard of the
  // deterministic stream into ShardJournalPath-style artifacts.
  size_t shard_index = kNoShard;
  size_t shard_count = 1;
  // Epoch-synchronized exploration: with epoch_len != 0 the coverage-guided
  // frontier runs open-loop for epoch_len merged batches, then all feedback
  // for the epoch folds in at once. This makes the feedback schedule a pure
  // function of the spec -- the property that lets shard_count > 1 combine
  // with the coverage strategy (shards run whole epochs blind, the
  // orchestrator merges and reseeds between epochs) while staying
  // bit-identical to the single-process run. Part of the campaign identity
  // (journal key "epoch-len") whenever nonzero.
  size_t epoch_len = 0;
  // Shard-child runs of one epoch carry the epoch ordinal so their journal
  // records are stamped (and their artifacts labelled) correctly. Never part
  // of the merged identity -- MergeJournals strips it with the shard keys.
  size_t epoch_index = kNoEpoch;
  // Epoch children: path of the frontier snapshot (FrontierState XML) the
  // child reseeds its source from before running. Never journaled.
  std::string frontier_path = {};
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
  // journals, so this is not in ToJournalMeta; it IS on the spec wire so
  // spawned shard children inherit the choice. Replay always builds fresh
  // instances, so it ignores this.
  bool cold_start = false;
  // Failpoint schedule (util/failpoint.h spec syntax) armed by the driver
  // and inherited by spawned children over the spec wire format. Chaos
  // testing only; stripped from supervisor respawns.
  std::string failpoints = {};
  // Always kExtent (see JournalFormat); not on the spec wire.
  JournalFormat format = JournalFormat::kExtent;
  // Replay mode: "record[:injection]" selecting one journaled injection;
  // empty replays every record that injected.
  std::string replay_selector = {};
  size_t abort_after_records = 0;  // kill-and-resume test hook (engine)

  bool operator==(const CampaignSpec&) const = default;

  // "" when the spec is runnable; otherwise a CLI-friendly description of
  // what is wrong (unknown system, coverage strategy sharded, ...).
  std::string Validate() const;

  // XML round trip (<campaignspec .../>): canonical -- defaults are omitted
  // and Parse(ToXml(s)) == s byte-stably. The shard orchestrator's wire
  // format.
  void AppendXml(XmlNode* parent) const;
  std::string ToXml() const;
  static std::optional<CampaignSpec> FromNode(const XmlNode& node,
                                              std::string* error = nullptr);
  static std::optional<CampaignSpec> Parse(const std::string& xml,
                                           std::string* error = nullptr);

  // Journal identity: the header a journaled run of this spec records
  // (matching the historical key order, so old journals still resume), and
  // the inverse `lfi_tool resume` uses. Environment-only fields (workers,
  // abort hook) are deliberately not part of the identity.
  JournalMetadata ToJournalMeta() const;
  static std::optional<CampaignSpec> FromJournalMeta(const JournalMetadata& meta,
                                                     std::string* error = nullptr);

  // Canonical per-shard artifact path: "<journal_path>.shard<i>".
  std::string ShardJournalPath(size_t shard) const;

  // Epoch-protocol artifact paths: the sealed per-epoch shard journal
  // "<journal_path>.epoch<e>.shard<i>" and the frontier snapshot
  // "<journal_path>.epoch<e>.frontier" the epoch's children reseed from.
  std::string EpochShardJournalPath(size_t epoch, size_t shard) const;
  std::string EpochFrontierPath(size_t epoch) const;
};

// Where the shard supervisor writes a child's serialized spec before exec'ing
// `lfi_tool run-spec` on it: "<child journal_path>.spec".
std::string SpecWirePath(const std::string& journal_path);

}  // namespace lfi

#endif  // LFI_APPS_COMMON_CAMPAIGN_SPEC_H_
