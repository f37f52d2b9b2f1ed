// Journal inspection: what `lfi_tool journal {info,doctor,dump}` report.
//
// Each entry point takes a journal path, loads it, and returns a plain
// struct (or the rendered text) that the CLI only prints. Unreadable files
// -- missing, without the extent magic, or corrupt -- come back as nullopt
// with *error set, which the CLI turns into exit status 1.
//
// The module sits beside CampaignSpec because the doctor needs it twice: to
// recognize the target systems a campaign identity may name, and to build
// the sibling artifact names a sharded or epoch campaign leaves next to its
// merged journal (CampaignSpec::ShardJournalPath, EpochShardJournalPath,
// EpochFrontierPath).

#ifndef LFI_APPS_COMMON_JOURNAL_INSPECT_H_
#define LFI_APPS_COMMON_JOURNAL_INSPECT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/journal.h"

namespace lfi {

// One epoch of an epoch-synchronized journal: how many records the epoch
// merged and what it contributed beyond every earlier epoch.
struct EpochSummary {
  size_t epoch = 0;
  size_t records = 0;
  size_t gated = 0;
  size_t new_bugs = 0;             // bugs first exposed in this epoch
  size_t new_recovery_blocks = 0;  // recovery blocks first covered here
  size_t new_blocks = 0;           // blocks first covered here
};

// `journal info`: the journal's header and totals, plus the per-epoch
// breakdown for epoch-synchronized journals.
struct JournalInfo {
  JournalMetadata meta;
  size_t records = 0;
  size_t gated = 0;
  size_t injections = 0;
  CoverageMap coverage;        // cumulative over every non-gated record
  std::vector<FoundBug> bugs;  // distinct crash sites, sorted
  std::vector<EpochSummary> epochs;
  // Non-empty when the stream-index/epoch invariants (JournalRecord::epoch)
  // fail: stream indexes must strictly advance, and epochs must never
  // regress or interleave, so every epoch owns a disjoint stream-index
  // range. The text names the first offending record. Such a journal was
  // merged from overlapping shard artifacts and must not be trusted; the
  // breakdown in `epochs` stops at the violation.
  std::string violation;
};

std::optional<JournalInfo> InspectJournal(const std::string& path, std::string* error = nullptr);

// One defect the doctor diagnosed. Repairable defects (torn tails, stale
// footers, orphaned artifacts) are fixed by a repair; invariant violations
// are not -- a journal merged from overlapping shard artifacts cannot be
// mechanically un-merged.
struct DoctorIssue {
  std::string kind;
  std::string detail;
  bool repairable = false;
  bool repaired = false;
};

// `journal doctor`: the diagnosis, and what a repair changed.
struct DoctorReport {
  size_t records = 0;
  size_t intact_bytes = 0;
  uint64_t file_bytes = 0;
  bool sealed = true;
  std::vector<DoctorIssue> issues;
  // The invariant walk's message (JournalInfo::violation), when it failed.
  std::string violation;
  // An unrepairable issue was found: an invariant violation, or a campaign
  // identity naming a system this build cannot re-run.
  bool invariant_violation = false;
  size_t repaired = 0;

  bool healthy() const { return issues.empty(); }
  // 0 healthy or fully repaired, 3 repairable issues left, 4 invariant
  // violation.
  int ExitCode() const;
};

// Diagnoses the journal at `path`: torn tails, a missing or stale extent
// footer, stream-index/epoch invariant violations, a campaign identity
// naming an unknown target system, and -- for a finalized journal -- the
// orphaned shard, epoch and frontier artifacts its merge consumed. With
// `repair` (skipped on invariant violations) it truncates the torn tail,
// reseals the footer, and removes the orphans. nullopt + *error when the
// journal is unreadable or the repair fails.
std::optional<DoctorReport> DiagnoseJournal(const std::string& path, bool repair,
                                            std::string* error = nullptr);

// `journal dump`: the journal rendered as XML -- a <journal version="1">
// header carrying the metadata, then one <record> per record through
// JournalRecord::AppendXml.
std::optional<std::string> DumpJournal(const std::string& path, std::string* error = nullptr);

}  // namespace lfi

#endif  // LFI_APPS_COMMON_JOURNAL_INSPECT_H_
