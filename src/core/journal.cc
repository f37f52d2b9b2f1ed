#include "core/journal.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "core/extent_journal.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace lfi {
namespace {

// Seeds are full-range uint64 (MixSeed sets the top bit freely), which
// ParseInt's int64 range would reject; hex keeps the round trip exact.
std::string SeedToString(uint64_t seed) {
  return StrFormat("0x%llx", static_cast<unsigned long long>(seed));
}

}  // namespace

// --- JournalRecord ----------------------------------------------------------

void JournalRecord::AppendXml(XmlNode* parent) const {
  XmlNode* node = parent->AddChild("record");
  node->SetAttr("label", label);
  node->SetAttr("seed", SeedToString(seed));
  if (stream_index != kNoStreamIndex) {
    node->SetAttr("index", StrFormat("%zu", stream_index));
  }
  if (epoch != kNoEpoch) {
    node->SetAttr("epoch", StrFormat("%zu", epoch));
  }
  if (gated) {
    node->SetAttr("gated", "true");
  }
  scenario.AppendXml(node);
  if (!gated) {
    XmlNode* result_node = node->AddChild("result");
    if (!result.fingerprint.empty()) {
      result_node->SetAttr("fingerprint", result.fingerprint);
    }
    result_node->SetAttr("injections", StrFormat("%zu", result.injections));
    for (const FoundBug& bug : result.bugs) {
      bug.AppendXml(result_node);
    }
    result.log.AppendXml(result_node);
    result.coverage.AppendXml(result_node);
    feedback.AppendXml(node);
  }
}

std::string JournalRecord::ToXml() const { return ToXmlElement(*this); }

// --- CampaignJournal --------------------------------------------------------

CampaignJournal::CampaignJournal() = default;
CampaignJournal::CampaignJournal(CampaignJournal&&) = default;
CampaignJournal& CampaignJournal::operator=(CampaignJournal&&) = default;

CampaignJournal::~CampaignJournal() {
  if (writable()) {
    out_->Finalize(nullptr);
  }
}

bool CampaignJournal::writable() const { return out_ != nullptr && out_->open(); }

std::optional<CampaignJournal> CampaignJournal::Load(const std::string& path,
                                                     std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open journal " + path;
    }
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return Parse(text.str(), error);
}

std::optional<CampaignJournal> CampaignJournal::Parse(std::string_view text,
                                                      std::string* error) {
  if (!IsExtentJournal(text)) {
    if (error != nullptr) {
      *error = "not a campaign journal: the file does not start with the extent magic \"" +
               std::string(kExtentFileMagic) + "\" (XML journals are no longer read)";
    }
    return std::nullopt;
  }
  auto data = ParseExtentJournal(text, error);
  if (!data) {
    return std::nullopt;
  }
  CampaignJournal journal;
  journal.meta_ = std::move(data->meta);
  journal.records_ = std::move(data->records);
  journal.extents_ = std::move(data->extents);
  journal.intact_bytes_ = static_cast<size_t>(data->intact_bytes);
  journal.sealed_ = data->footer_valid;
  return journal;
}

bool CampaignJournal::Create(const std::string& path, JournalMetadata meta,
                             std::string* error, JournalFormat) {
  meta_ = std::move(meta);
  out_ = std::make_unique<ExtentJournalWriter>();
  return out_->Create(path, meta_, error);
}

bool CampaignJournal::OpenAppend(const std::string& path, std::string* error) {
  // The writer truncates the torn tail and any old footer itself; hand it
  // the sealed-extent state Load() recovered.
  ExtentJournalData loaded;
  loaded.extents = extents_;
  loaded.intact_bytes = intact_bytes_;
  out_ = std::make_unique<ExtentJournalWriter>();
  return out_->OpenAppend(path, loaded, error);
}

bool CampaignJournal::Append(const JournalRecordRef& record) {
  if (FailpointFired("journal.append")) {
    return false;  // scripted I/O failure: the caller's disk-full path runs
  }
  return writable() && out_->Append(record, nullptr);
}

bool CampaignJournal::Finalize(std::string* error) {
  if (!writable()) {
    return true;  // nothing open: finalizing a read-only journal is a no-op
  }
  if (FailpointFired("journal.finalize")) {
    if (error != nullptr) {
      *error = "failpoint journal.finalize fired";
    }
    return false;
  }
  bool ok = out_->Finalize(error);
  out_.reset();
  return ok;
}

// --- MergeRecordsInto ------------------------------------------------------

bool MergeRecordsInto(CampaignJournal& output, const std::vector<CampaignJournal>& inputs,
                      MergeFoldState* fold, std::string* error,
                      std::vector<JournalRecord>* merged_records) {
  auto fail = [&](std::string message) {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };
  if (!output.writable()) {
    return fail("merge output journal is not open for appending");
  }

  // The deterministic interleave: records sorted by their recorded global
  // stream index, so permuting the input list cannot change the output. A
  // record without one cannot be placed in the stream: the input is hostile.
  std::vector<const JournalRecord*> sorted;
  for (const CampaignJournal& journal : inputs) {
    for (const JournalRecord& record : journal.records()) {
      if (record.stream_index == JournalRecord::kNoStreamIndex) {
        return fail("merge input record '" + record.label +
                    "' has no stream index (not a shard worker's journal)");
      }
      sorted.push_back(&record);
    }
  }
  std::sort(sorted.begin(), sorted.end(), [](const JournalRecord* a, const JournalRecord* b) {
    return a->stream_index < b->stream_index;
  });
  // Disjointness: a campaign's shards partition the stream, so two records
  // at one stream position mean overlapping inputs -- the same shard listed
  // twice, or shards of different campaigns. Appending the duplicates would
  // double-count results and write a journal no resume can align with its
  // regenerated stream. Incremental merges also reject records at stream
  // positions the fold already consumed (an epoch fed to the orchestrator
  // twice).
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0 && sorted[i]->stream_index == sorted[i - 1]->stream_index) {
      return fail(StrFormat("merge inputs overlap: two records claim stream index %zu "
                            "(the same shard journal listed twice?)",
                            sorted[i]->stream_index));
    }
    if (fold->records > 0 && sorted[i]->stream_index < fold->next_stream_index) {
      return fail(StrFormat("merge inputs overlap already-merged records: stream index %zu "
                            "was consumed by an earlier incremental merge (next expected "
                            "index is %zu)",
                            sorted[i]->stream_index, fold->next_stream_index));
    }
  }

  // The engine's merge fold, continued from `fold`: feedback is recomputed
  // against the cumulative coverage (each input recorded feedback against
  // its shard-local state, which is stale in the merged stream).
  for (const JournalRecord* in : sorted) {
    RunFeedback feedback = in->gated ? in->feedback : fold->Add(in->result);
    if (!output.Append(JournalRecordRef{in->label, in->seed, in->gated, in->stream_index,
                                        in->epoch, in->scenario, in->result, feedback})) {
      return fail("merge append failed: disk full or I/O error");
    }
    ++fold->records;
    fold->next_stream_index = in->stream_index + 1;
    if (merged_records != nullptr) {
      merged_records->emplace_back(*in).feedback = std::move(feedback);
    }
  }
  return true;
}

}  // namespace lfi
