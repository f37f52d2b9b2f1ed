#include "core/journal.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

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

bool CampaignJournal::Append(const JournalRecord& record) {
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

// --- MergeJournals ----------------------------------------------------------

namespace {

// Campaign identity: the header keys that must agree across merge inputs and
// survive into the output, in the order a fresh single-process journal
// writes them (so the merged header is byte-identical to that journal's).
const char* const kIdentityKeys[] = {"command",   "system", "strategy",
                                     "budget",    "seed",   "epoch-len",
                                     "exhaustive"};
// Per-shard keys: meaningful only for one shard's (or one epoch slice's)
// artifact, dropped on merge.
const char* const kShardKeys[] = {"shard", "shards", "epoch"};

bool IsShardKey(const std::string& key) {
  for (const char* shard_key : kShardKeys) {
    if (key == shard_key) {
      return true;
    }
  }
  return false;
}

// The input's "shard" header key, or -1 when it has none.
size_t ShardHeaderIndex(const CampaignJournal& journal) {
  std::string shard_meta = journal.Meta("shard", "");
  if (shard_meta.empty()) {
    return static_cast<size_t>(-1);
  }
  return static_cast<size_t>(std::strtoull(shard_meta.c_str(), nullptr, 0));
}

}  // namespace

void AccountMergeInput(const CampaignJournal& input, std::set<FoundBug>* seen_bugs,
                       MergeInputStats* stats) {
  for (const JournalRecord& record : input.records()) {
    ++stats->records;
    if (!record.gated) {
      ++stats->scenarios_run;
      seen_bugs->insert(record.result.bugs.begin(), record.result.bugs.end());
    }
  }
  stats->bugs = seen_bugs->size();
}

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
  // stream index. Records without one (pre-sharding journals) fall back to
  // their input-local position; ties break by the input's shard header then
  // local position, so permuting the input list cannot change the output.
  struct Keyed {
    size_t stream_index;
    size_t shard_index;
    size_t local_index;
    bool recorded_index;  // stream_index came from the record, not the fallback
    const JournalRecord* record;
  };
  std::vector<Keyed> keyed;
  for (const CampaignJournal& journal : inputs) {
    size_t shard_index = ShardHeaderIndex(journal);
    const std::vector<JournalRecord>& records = journal.records();
    for (size_t r = 0; r < records.size(); ++r) {
      bool recorded = records[r].stream_index != JournalRecord::kNoStreamIndex;
      keyed.push_back({recorded ? records[r].stream_index : r, shard_index, r, recorded,
                       &records[r]});
    }
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    return std::tie(a.stream_index, a.shard_index, a.local_index) <
           std::tie(b.stream_index, b.shard_index, b.local_index);
  });
  // Disjointness: a campaign's shards partition the stream, so two records
  // both *recorded* at one stream position mean overlapping inputs -- the
  // same shard listed twice, shards of different campaigns, or an
  // already-merged journal next to one of its shards. Appending the
  // duplicates would double-count results and write a journal no resume can
  // align with its regenerated stream. Fallback (position-derived) keys may
  // legitimately collide across pre-sharding inputs and only collide within
  // one input when the same journal is listed twice. Incremental merges also
  // reject records at stream positions the fold already consumed (an epoch
  // fed to the orchestrator twice).
  for (size_t i = 0; i < keyed.size(); ++i) {
    if (i > 0 && keyed[i].stream_index == keyed[i - 1].stream_index &&
        ((keyed[i].recorded_index && keyed[i - 1].recorded_index) ||
         keyed[i].shard_index == keyed[i - 1].shard_index)) {
      return fail(StrFormat("merge inputs overlap: two records claim stream index %zu "
                            "(same journal listed twice, or a merged journal mixed with "
                            "its own shards?)",
                            keyed[i].stream_index));
    }
    if (fold->records > 0 && keyed[i].stream_index < fold->next_stream_index) {
      return fail(StrFormat("merge inputs overlap already-merged records: stream index %zu "
                            "was consumed by an earlier incremental merge (next expected "
                            "index is %zu)",
                            keyed[i].stream_index, fold->next_stream_index));
    }
  }

  // The engine's merge fold, continued from `fold`: feedback is recomputed
  // against the cumulative coverage (each input recorded feedback against
  // its shard-local state, which is stale in the merged stream).
  for (const Keyed& entry : keyed) {
    JournalRecord record = *entry.record;
    record.stream_index = entry.stream_index;
    if (!record.gated) {
      record.feedback = fold->Add(record.result);
    }
    if (!output.Append(record)) {
      return fail("merge append failed: disk full or I/O error");
    }
    ++fold->records;
    fold->next_stream_index = entry.stream_index + 1;
    if (merged_records != nullptr) {
      merged_records->push_back(std::move(record));
    }
  }
  return true;
}

std::optional<ExplorationResult> MergeJournals(const std::vector<std::string>& inputs,
                                               const std::string& output_path,
                                               std::string* error, JournalMetadata* metadata,
                                               std::vector<MergeInputStats>* stats) {
  auto fail = [&](std::string message) -> std::optional<ExplorationResult> {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return std::nullopt;
  };
  if (inputs.empty()) {
    return fail("merge needs at least one input journal");
  }
  if (std::filesystem::exists(output_path)) {
    return fail("merge output " + output_path +
                " already exists; delete it or merge to a fresh path");
  }

  std::vector<CampaignJournal> journals;
  journals.reserve(inputs.size());
  for (const std::string& path : inputs) {
    auto journal = CampaignJournal::Load(path, error);
    if (!journal) {
      return std::nullopt;
    }
    journals.push_back(std::move(*journal));
  }

  // Identity check + output header. Any key an input carries must agree with
  // every other input carrying it; the agreed values are emitted in the
  // canonical key order, shard keys dropped.
  JournalMetadata out_meta;
  for (const char* key : kIdentityKeys) {
    const std::string* agreed = nullptr;
    size_t agreed_input = 0;
    for (size_t i = 0; i < journals.size(); ++i) {
      for (const auto& [k, v] : journals[i].metadata()) {
        if (k != key) {
          continue;
        }
        if (agreed == nullptr) {
          agreed = &v;
          agreed_input = i;
        } else if (*agreed != v) {
          return fail("cannot merge journals from different campaigns: " + inputs[agreed_input] +
                      " has " + key + "='" + *agreed + "' but " + inputs[i] + " has '" + v +
                      "'");
        }
      }
    }
    if (agreed != nullptr) {
      out_meta.emplace_back(key, *agreed);
    }
  }
  // Non-identity, non-shard keys (free-form annotations) ride along from
  // whichever inputs carry them, first occurrence wins.
  auto has_key = [](const JournalMetadata& meta, const std::string& key) {
    for (const auto& [k, v] : meta) {
      if (k == key) {
        return true;
      }
    }
    return false;
  };
  for (const CampaignJournal& journal : journals) {
    for (const auto& [key, value] : journal.metadata()) {
      if (!IsShardKey(key) && !has_key(out_meta, key)) {
        out_meta.emplace_back(key, value);
      }
    }
  }

  // Per-input accounting (independent of the fold).
  if (stats != nullptr) {
    stats->clear();
    for (size_t i = 0; i < journals.size(); ++i) {
      MergeInputStats input_stats;
      input_stats.path = inputs[i];
      input_stats.shard_index = ShardHeaderIndex(journals[i]);
      std::set<FoundBug> input_bugs;
      AccountMergeInput(journals[i], &input_bugs, &input_stats);
      stats->push_back(std::move(input_stats));
    }
  }

  // One-shot merge: the incremental step (sort, overlap rejection, engine
  // fold) from a fresh fold state into a fresh output file. Crash-atomic:
  // the merge writes and finalizes <output>.tmp, then renames it into
  // place, so a crash mid-merge never leaves a half-written journal where a
  // later resume would look for a complete one -- the final path either
  // does not exist or holds the fully finalized merge.
  CampaignJournal merged;
  std::string tmp_path = output_path + ".tmp";
  if (!merged.Create(tmp_path, out_meta, error)) {
    return std::nullopt;
  }
  MergeFoldState fold;
  if (!MergeRecordsInto(merged, journals, &fold, error)) {
    return std::nullopt;
  }
  ExplorationResult out = fold.TakeResult();
  if (!merged.Finalize(error)) {
    return std::nullopt;
  }
  if (FailpointFired("merge.rename")) {
    return fail("failpoint merge.rename fired between finalize and rename");
  }
  if (std::rename(tmp_path.c_str(), output_path.c_str()) != 0) {
    return fail("cannot rename " + tmp_path + " into place as " + output_path);
  }
  if (metadata != nullptr) {
    *metadata = std::move(out_meta);
  }
  return out;
}

}  // namespace lfi
