#include "apps/common/journal_inspect.h"

#include <cstdio>
#include <filesystem>
#include <set>

#include "apps/common/campaign_spec.h"
#include "util/string_util.h"

namespace lfi {
namespace {

// Walks the records once, building the per-epoch breakdown and checking the
// epoch wire invariants (journal.h JournalRecord::epoch). Returns the
// violation message, or "" when the journal is consistent.
std::string WalkEpochs(const CampaignJournal& journal, std::vector<EpochSummary>* rows) {
  std::set<FoundBug> seen_bugs;
  CoverageMap cumulative;
  CoverageMap::Stats prior = cumulative.ComputeStats();
  auto close_row = [&](EpochSummary* row) {
    CoverageMap::Stats now = cumulative.ComputeStats();
    row->new_recovery_blocks = now.covered_recovery_blocks - prior.covered_recovery_blocks;
    row->new_blocks = now.covered_blocks - prior.covered_blocks;
    prior = now;
    rows->push_back(*row);
  };
  EpochSummary row;
  bool open = false;
  size_t prev_stream = JournalRecord::kNoStreamIndex;
  size_t prev_epoch = kNoEpoch;
  for (size_t i = 0; i < journal.records().size(); ++i) {
    const JournalRecord& record = journal.records()[i];
    if (record.stream_index != JournalRecord::kNoStreamIndex) {
      if (prev_stream != JournalRecord::kNoStreamIndex && record.stream_index <= prev_stream) {
        return StrFormat(
            "record %zu stream index %zu does not advance past %zu (overlapping or reordered "
            "shard records)",
            i, record.stream_index, prev_stream);
      }
      prev_stream = record.stream_index;
    }
    if (record.epoch != kNoEpoch && prev_epoch != kNoEpoch && record.epoch < prev_epoch) {
      return StrFormat("record %zu regresses to epoch %zu after epoch %zu", i, record.epoch,
                       prev_epoch);
    }
    if (record.epoch == kNoEpoch && prev_epoch != kNoEpoch) {
      return StrFormat("record %zu has no epoch after epoch-stamped records", i);
    }
    if (record.epoch == kNoEpoch) {
      continue;  // ordinary journal record; no breakdown row
    }
    prev_epoch = record.epoch;
    if (open && record.epoch != row.epoch) {
      close_row(&row);
      row = EpochSummary();
      open = false;
    }
    if (!open) {
      row.epoch = record.epoch;
      open = true;
    }
    ++row.records;
    if (record.gated) {
      ++row.gated;
      continue;
    }
    for (const FoundBug& bug : record.result.bugs) {
      if (seen_bugs.insert(bug).second) {
        ++row.new_bugs;
      }
    }
    cumulative.Absorb(record.result.coverage);
  }
  if (open) {
    close_row(&row);
  }
  return "";
}

// Sibling artifacts a sharded/epoch campaign writes next to its merged
// journal: open-loop shard journals, per-epoch shard journals, and
// per-epoch frontier snapshots with their scratch files. Once the merged
// journal is finalized they are dead weight -- the merge consumed them.
// Scans are contiguous-from-zero, matching how the orchestrator numbers
// shards and epochs.
std::vector<std::string> FindSiblingArtifacts(const std::string& journal_path) {
  constexpr size_t kScanLimit = 256;  // shards or epochs; far above any real run
  CampaignSpec spec;
  spec.journal_path = journal_path;
  std::vector<std::string> found;
  auto probe = [&](const std::string& path) {
    std::error_code ec;
    if (std::filesystem::exists(path, ec)) {
      found.push_back(path);
      return true;
    }
    return false;
  };
  size_t shard = 0;
  while (shard < kScanLimit && probe(spec.ShardJournalPath(shard))) {
    ++shard;
  }
  for (size_t epoch = 0; epoch < kScanLimit; ++epoch) {
    bool any = probe(spec.EpochFrontierPath(epoch));
    any |= probe(spec.EpochFrontierPath(epoch) + ".tmp");
    for (shard = 0; shard < kScanLimit && probe(spec.EpochShardJournalPath(epoch, shard));
         ++shard) {
      any = true;
    }
    if (!any) {
      break;
    }
  }
  return found;
}

}  // namespace

std::optional<JournalInfo> InspectJournal(const std::string& path, std::string* error) {
  auto journal = CampaignJournal::Load(path, error);
  if (!journal) {
    return std::nullopt;
  }
  JournalInfo info;
  info.meta = journal->metadata();
  info.records = journal->records().size();
  std::set<FoundBug> bugs;
  for (const JournalRecord& record : journal->records()) {
    if (record.gated) {
      ++info.gated;
      continue;
    }
    info.injections += record.result.injections;
    bugs.insert(record.result.bugs.begin(), record.result.bugs.end());
    info.coverage.Absorb(record.result.coverage);
  }
  info.bugs.assign(bugs.begin(), bugs.end());
  info.violation = WalkEpochs(*journal, &info.epochs);
  return info;
}

int DoctorReport::ExitCode() const {
  if (invariant_violation) {
    return 4;
  }
  return repaired == issues.size() ? 0 : 3;
}

std::optional<DoctorReport> DiagnoseJournal(const std::string& path, bool repair,
                                            std::string* error) {
  std::error_code ec;
  uint64_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return std::nullopt;
  }
  auto journal = CampaignJournal::Load(path, error);
  if (!journal) {
    return std::nullopt;
  }

  DoctorReport report;
  report.records = journal->records().size();
  report.intact_bytes = journal->intact_bytes();
  report.file_bytes = size;
  report.sealed = journal->sealed();
  // A sealed journal's footer legitimately lives past intact_bytes (the
  // truncation point appends continue from), so bytes past it are a torn
  // tail only when the footer was NOT valid -- any garbage appended after a
  // valid footer invalidates it, forcing the scan path here.
  if (!report.sealed && size > report.intact_bytes) {
    report.issues.push_back(
        {"torn-tail",
         StrFormat("%llu byte(s) past the last sealed extent boundary",
                   static_cast<unsigned long long>(size - report.intact_bytes)),
         /*repairable=*/true});
  }
  if (!report.sealed) {
    report.issues.push_back({"stale-footer",
                             "extent footer missing or invalid (journal was not finalized); "
                             "records were recovered by scan",
                             /*repairable=*/true});
  }
  std::vector<EpochSummary> epochs;
  report.violation = WalkEpochs(*journal, &epochs);
  if (!report.violation.empty()) {
    report.invariant_violation = true;
    report.issues.push_back({"invariant-violation",
                             "stream-index/epoch invariants violated (details above); the "
                             "journal was merged from overlapping or reordered shard artifacts",
                             /*repairable=*/false});
  }
  // The campaign identity must name a system this build can re-run: resume
  // and replay both dispatch on it, so a journal whose header names anything
  // else (a typo, or a journal from a newer build) is dead on arrival. A
  // journal with no "system" key at all is not campaign-shaped (merge
  // fixtures, hand-written artifacts) and is left alone.
  std::string recorded_system = journal->Meta("system", "");
  if (!recorded_system.empty() && !IsCampaignSystem(recorded_system)) {
    report.invariant_violation = true;
    std::string known;
    for (const std::string& name : CampaignSystemNames()) {
      known += (known.empty() ? "" : "|") + name;
    }
    report.issues.push_back({"unknown-system",
                             StrFormat("campaign identity names system '%s', which this build "
                                       "cannot re-run (%s); resume and replay will refuse it",
                                       recorded_system.c_str(), known.c_str()),
                             /*repairable=*/false});
  }
  // Orphan detection only applies to a finalized journal (or one about to
  // be resealed): a torn one may still need its siblings to finish
  // recovering.
  std::vector<std::string> orphans;
  if ((report.sealed || repair) && !report.invariant_violation) {
    orphans = FindSiblingArtifacts(path);
  }
  if (!orphans.empty()) {
    std::string detail = StrFormat("%zu stale sibling artifact(s):", orphans.size());
    for (const std::string& orphan : orphans) {
      detail += " " + orphan;
    }
    report.issues.push_back({"orphaned-artifacts", detail, /*repairable=*/true});
  }

  if (repair && !report.invariant_violation) {
    if (!report.sealed) {
      // OpenAppend truncates the torn tail (and the old footer); Finalize
      // reseals. The record set is exactly what Load recovered.
      std::string repair_error;
      if (!journal->OpenAppend(path, &repair_error) || !journal->Finalize(&repair_error)) {
        if (error != nullptr) {
          *error = "repair failed: " + repair_error;
        }
        return std::nullopt;
      }
    }
    for (const std::string& orphan : orphans) {
      std::remove(orphan.c_str());
    }
    for (DoctorIssue& issue : report.issues) {
      if (issue.repairable) {
        issue.repaired = true;
        ++report.repaired;
      }
    }
  }
  return report;
}

std::optional<std::string> DumpJournal(const std::string& path, std::string* error) {
  auto journal = CampaignJournal::Load(path, error);
  if (!journal) {
    return std::nullopt;
  }
  XmlNode header("journal");
  header.SetAttr("version", "1");
  for (const auto& [key, value] : journal->metadata()) {
    XmlNode* meta = header.AddChild("meta");
    meta->SetAttr("key", key);
    meta->SetAttr("value", value);
  }
  std::string text = header.ToString();
  for (const JournalRecord& record : journal->records()) {
    text += record.ToXml();
  }
  return text;
}

}  // namespace lfi
