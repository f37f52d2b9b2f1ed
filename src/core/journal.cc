#include "core/journal.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
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

uint64_t SeedFromString(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 0);
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

std::optional<JournalRecord> JournalRecord::FromNode(const XmlNode& node, std::string* error) {
  auto fail = [&](std::string message) -> std::optional<JournalRecord> {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return std::nullopt;
  };
  if (node.name() != "record") {
    return fail("journal record element must be <record>");
  }
  JournalRecord record;
  record.label = node.AttrOr("label", "");
  record.seed = SeedFromString(node.AttrOr("seed", "0"));
  if (auto index = node.IntAttr("index"); index.has_value() && *index >= 0) {
    record.stream_index = static_cast<size_t>(*index);
  }
  if (auto epoch = node.IntAttr("epoch"); epoch.has_value() && *epoch >= 0) {
    record.epoch = static_cast<size_t>(*epoch);
  }
  record.gated = node.AttrOr("gated", "false") == "true";
  const XmlNode* scenario_node = node.Child("scenario");
  if (scenario_node == nullptr) {
    return fail("journal record '" + record.label + "' is missing its <scenario>");
  }
  auto scenario = Scenario::FromNode(*scenario_node, error);
  if (!scenario) {
    return std::nullopt;
  }
  record.scenario = std::move(*scenario);
  if (record.gated) {
    return record;
  }
  const XmlNode* result_node = node.Child("result");
  if (result_node == nullptr) {
    return fail("journal record '" + record.label + "' is missing its <result>");
  }
  record.result.fingerprint = result_node->AttrOr("fingerprint", "");
  record.result.injections =
      static_cast<size_t>(result_node->IntAttr("injections").value_or(0));
  for (const XmlNode* bug_node : result_node->Children("bug")) {
    auto bug = FoundBug::FromNode(*bug_node, error);
    if (!bug) {
      return std::nullopt;
    }
    record.result.bugs.push_back(std::move(*bug));
  }
  if (const XmlNode* log_node = result_node->Child("log")) {
    auto log = InjectionLog::FromNode(*log_node, error);
    if (!log) {
      return std::nullopt;
    }
    record.result.log = std::move(*log);
  }
  if (const XmlNode* coverage_node = result_node->Child("coverage")) {
    auto coverage = CoverageMap::FromNode(*coverage_node, error);
    if (!coverage) {
      return std::nullopt;
    }
    record.result.coverage = std::move(*coverage);
  }
  if (const XmlNode* feedback_node = node.Child("feedback")) {
    auto feedback = RunFeedback::FromNode(*feedback_node, error);
    if (!feedback) {
      return std::nullopt;
    }
    record.feedback = std::move(*feedback);
  }
  return record;
}

// --- CampaignJournal --------------------------------------------------------

const char* JournalFormatName(JournalFormat format) {
  return format == JournalFormat::kXml ? "xml" : "extent";
}

std::optional<JournalFormat> ParseJournalFormat(const std::string& name) {
  if (name == "extent") {
    return JournalFormat::kExtent;
  }
  if (name == "xml") {
    return JournalFormat::kXml;
  }
  return std::nullopt;
}

CampaignJournal::CampaignJournal() = default;
CampaignJournal::CampaignJournal(CampaignJournal&&) = default;
CampaignJournal& CampaignJournal::operator=(CampaignJournal&&) = default;

CampaignJournal::~CampaignJournal() {
  if (extent_out_ != nullptr && extent_out_->open()) {
    extent_out_->Finalize(nullptr);
  }
}

bool CampaignJournal::writable() const {
  return out_ != nullptr || (extent_out_ != nullptr && extent_out_->open());
}

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
  auto fail = [&](std::string message) -> std::optional<CampaignJournal> {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return std::nullopt;
  };

  // Encoding dispatch: extent journals declare themselves in their first
  // four bytes; anything else is treated as the XML stream.
  if (IsExtentJournal(text)) {
    auto data = ParseExtentJournal(text, error);
    if (!data) {
      return std::nullopt;
    }
    CampaignJournal journal;
    journal.format_ = JournalFormat::kExtent;
    journal.meta_ = std::move(data->meta);
    journal.records_ = std::move(data->records);
    journal.extents_ = std::move(data->extents);
    journal.intact_bytes_ = static_cast<size_t>(data->intact_bytes);
    journal.sealed_ = data->footer_valid;
    return journal;
  }

  // A killed writer leaves at most one torn record at the tail. Everything
  // through the last complete record (or, in a record-less journal, the
  // header) is intact, because records are flushed whole; drop the rest.
  // "</record>" cannot occur inside the kept content -- every attribute
  // value and text run is XmlEscape()d, so a literal '<' never survives
  // serialization.
  size_t end = text.rfind("</record>");
  if (end != std::string_view::npos) {
    end += std::string_view("</record>").size();
  } else if ((end = text.rfind("</journal>")) != std::string_view::npos) {
    end += std::string_view("</journal>").size();
  } else if ((end = text.find("/>")) != std::string_view::npos) {
    // Self-closing (meta-less) header. The FIRST "/>" is the header's own
    // terminator; searching from the back instead would latch onto a
    // self-closing element inside a torn first record (a killed empty shard
    // leaves exactly this shape) and keep unparseable garbage.
    end += std::string_view("/>").size();
  } else {
    return fail("not a campaign journal (no header)");
  }
  if (end < text.size() && text[end] == '\n') {
    ++end;  // keep the record's own trailing newline intact
  }

  // The file is a header element followed by record elements; wrap them in a
  // synthetic root so the single-document XML parser takes the whole stream.
  std::string wrapped = "<journal-file>\n";
  wrapped.append(text.substr(0, end));
  wrapped.append("\n</journal-file>\n");
  XmlError xml_error;
  auto doc = XmlParse(wrapped, &xml_error);
  if (!doc || doc->root() == nullptr) {
    return fail(StrFormat("journal parse error at line %d: %s", xml_error.line,
                          xml_error.message.c_str()));
  }

  CampaignJournal journal;
  journal.format_ = JournalFormat::kXml;
  const XmlNode* header = doc->root()->Child("journal");
  if (header == nullptr) {
    return fail("journal is missing its <journal> header");
  }
  int64_t version = header->IntAttr("version").value_or(0);
  if (version != kVersion) {
    return fail(StrFormat("unsupported journal version %lld (this build reads %d)",
                          static_cast<long long>(version), kVersion));
  }
  for (const XmlNode* meta : header->Children("meta")) {
    journal.meta_.emplace_back(meta->AttrOr("key", ""), meta->AttrOr("value", ""));
  }
  std::string record_error;
  for (const XmlNode* child : doc->root()->Children("record")) {
    auto record = JournalRecord::FromNode(*child, &record_error);
    if (!record) {
      return fail("journal record " + std::to_string(journal.records_.size()) + ": " +
                  record_error);
    }
    journal.records_.push_back(std::move(*record));
  }
  journal.intact_bytes_ = end;
  return journal;
}

bool CampaignJournal::Create(const std::string& path, JournalMetadata meta,
                             std::string* error, JournalFormat format) {
  format_ = format;
  meta_ = std::move(meta);
  if (format == JournalFormat::kExtent) {
    extent_out_ = std::make_unique<ExtentJournalWriter>();
    return extent_out_->Create(path, meta_, error);
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot create journal " + path;
    }
    return false;
  }
  out_.reset(f);
  XmlNode header("journal");
  header.SetAttr("version", StrFormat("%d", kVersion));
  for (const auto& [key, value] : meta_) {
    XmlNode* m = header.AddChild("meta");
    m->SetAttr("key", key);
    m->SetAttr("value", value);
  }
  std::string text = header.ToString();
  std::fwrite(text.data(), 1, text.size(), out_.get());
  std::fflush(out_.get());
  return true;
}

bool CampaignJournal::OpenAppend(const std::string& path, std::string* error) {
  if (format_ == JournalFormat::kExtent) {
    // The writer truncates the torn tail and any old footer itself; hand it
    // the sealed-extent state Load() recovered.
    ExtentJournalData loaded;
    loaded.extents = extents_;
    loaded.intact_bytes = intact_bytes_;
    extent_out_ = std::make_unique<ExtentJournalWriter>();
    return extent_out_->OpenAppend(path, loaded, error);
  }
  // Drop the torn tail a kill may have left: appending after garbage would
  // leave an unparseable interior. intact_bytes_ came from Load()'s
  // last-complete-record scan.
  if (intact_bytes_ != 0) {
    std::error_code ec;
    if (std::filesystem::file_size(path, ec) > intact_bytes_ && !ec) {
      std::filesystem::resize_file(path, intact_bytes_, ec);
      if (ec) {
        if (error != nullptr) {
          *error = "cannot truncate torn journal tail in " + path + ": " + ec.message();
        }
        return false;
      }
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot append to journal " + path;
    }
    return false;
  }
  out_.reset(f);
  return true;
}

bool CampaignJournal::Append(const JournalRecord& record) {
  if (FailpointFired("journal.append")) {
    return false;  // scripted I/O failure: the caller's disk-full path runs
  }
  if (extent_out_ != nullptr && extent_out_->open()) {
    return extent_out_->Append(record, nullptr);
  }
  if (out_ == nullptr) {
    return false;
  }
  std::string text = record.ToXml();
  bool ok = std::fwrite(text.data(), 1, text.size(), out_.get()) == text.size();
  // One flush per record: the contract is that a kill loses at most the
  // record being written, never an already-appended one.
  return std::fflush(out_.get()) == 0 && ok;
}

bool CampaignJournal::Finalize(std::string* error) {
  if (writable() && FailpointFired("journal.finalize")) {
    if (error != nullptr) {
      *error = "failpoint journal.finalize fired";
    }
    return false;
  }
  if (extent_out_ != nullptr && extent_out_->open()) {
    bool ok = extent_out_->Finalize(error);
    extent_out_.reset();
    return ok;
  }
  if (out_ != nullptr) {
    bool ok = std::fflush(out_.get()) == 0;
    out_.reset();
    if (!ok && error != nullptr) {
      *error = "journal flush failed: disk full or I/O error";
    }
    return ok;
  }
  return true;  // nothing open: finalizing a read-only journal is a no-op
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

}  // namespace

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
    size_t shard_index = static_cast<size_t>(-1);
    std::string shard_meta = journal.Meta("shard", "");
    if (!shard_meta.empty()) {
      shard_index = static_cast<size_t>(std::strtoull(shard_meta.c_str(), nullptr, 0));
    }
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
                                               std::vector<MergeInputStats>* stats,
                                               std::optional<JournalFormat> format) {
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
      size_t shard_index = static_cast<size_t>(-1);
      std::string shard_meta = journals[i].Meta("shard", "");
      if (!shard_meta.empty()) {
        shard_index = static_cast<size_t>(std::strtoull(shard_meta.c_str(), nullptr, 0));
      }
      MergeInputStats input_stats;
      input_stats.path = inputs[i];
      input_stats.shard_index = shard_index;
      std::set<FoundBug> input_bugs;
      for (const JournalRecord& record : journals[i].records()) {
        ++input_stats.records;
        if (!record.gated) {
          ++input_stats.scenarios_run;
          input_bugs.insert(record.result.bugs.begin(), record.result.bugs.end());
        }
      }
      input_stats.bugs = input_bugs.size();
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
  JournalFormat out_format = format.value_or(journals.front().format());
  std::string tmp_path = output_path + ".tmp";
  if (!merged.Create(tmp_path, out_meta, error, out_format)) {
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

// --- ConvertJournal ---------------------------------------------------------

bool ConvertJournal(const std::string& input_path, const std::string& output_path,
                    std::optional<JournalFormat> format, std::string* error,
                    size_t* records, JournalFormat* written) {
  auto fail = [&](std::string message) {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };
  if (std::filesystem::exists(output_path)) {
    return fail("convert output " + output_path +
                " already exists; delete it or convert to a fresh path");
  }
  auto journal = CampaignJournal::Load(input_path, error);
  if (!journal) {
    return false;
  }
  JournalFormat out_format = format.value_or(
      journal->format() == JournalFormat::kXml ? JournalFormat::kExtent : JournalFormat::kXml);
  // Same tmp+rename discipline as MergeJournals: the converted artifact
  // appears at output_path only complete and finalized.
  std::string tmp_path = output_path + ".tmp";
  CampaignJournal out;
  if (!out.Create(tmp_path, journal->metadata(), error, out_format)) {
    return false;
  }
  for (const JournalRecord& record : journal->records()) {
    if (!out.Append(record)) {
      return fail("convert append failed writing " + output_path +
                  ": disk full or I/O error");
    }
  }
  if (!out.Finalize(error)) {
    return false;
  }
  if (std::rename(tmp_path.c_str(), output_path.c_str()) != 0) {
    return fail("cannot rename " + tmp_path + " into place as " + output_path);
  }
  if (records != nullptr) {
    *records = journal->records().size();
  }
  if (written != nullptr) {
    *written = out_format;
  }
  return true;
}

}  // namespace lfi
