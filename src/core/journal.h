// The persistent campaign journal.
//
// LFI's workflow (§2, §4.1) is built on durable artifacts -- XML fault
// profiles, XML scenarios, and a test log developers mine after the run.
// The CampaignJournal extends that to the whole campaign lifecycle: an
// append-only file that records, for every job the engine merged, the
// scenario that ran, the injection log and fingerprint, the bugs it
// exposed, the coverage delta it contributed, and the feedback the scenario
// source was given. Three workflows fall out of one format:
//
//   resume   CampaignEngine::Options{journal_path, resume=true} replays the
//            journal through the engine's deterministic merge -- the source
//            streams and receives feedback exactly as live, but journaled
//            jobs take their results from disk instead of executing -- so a
//            killed campaign continues at the first unjournaled job and
//            finishes bit-identical to an uninterrupted run, at any worker
//            count.
//   replay   Any journaled injection converts to a deterministic call-count
//            scenario (InjectionLog::ReplayScenario) that reproduces the
//            crash from disk alone, in the spirit of the R2-style replay
//            the paper cites (lfi_tool replay).
//   merge    The shard journals of a multi-process campaign interleave by
//            recorded stream index back into the single-process journal
//            (MergeRecordsInto / MergeJournals).
//
// There is one on-disk encoding: a binary stream of CRC-checked, optionally
// compressed extents of up to 16 records each, closed by a footer index
// (core/extent_journal.h; byte-level spec in docs/journal-format.md).
// Extents are flushed whole, so a kill loses at most the extent being
// filled -- up to 16 records, which resume simply re-executes -- and
// recovery truncates to the last valid extent boundary. Load() rejects any
// file without the extent magic. For reading by eye, `lfi_tool journal
// dump` renders a journal as XML through the AppendXml writers.

#ifndef LFI_CORE_JOURNAL_H_
#define LFI_CORE_JOURNAL_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign_engine.h"
#include "core/exploration.h"

namespace lfi {

// Header field by key, or `def` when absent (the one metadata lookup both
// CampaignJournal::Meta and callers holding a bare JournalMetadata use).
inline std::string MetaValue(const JournalMetadata& meta, const std::string& key,
                             const std::string& def = "") {
  for (const auto& [k, v] : meta) {
    if (k == key) {
      return v;
    }
  }
  return def;
}

// One merged job: identity (label, seed, scenario), what the run observed,
// and the feedback the source was given at the merge point.
struct JournalRecord {
  static constexpr size_t kNoStreamIndex = static_cast<size_t>(-1);

  std::string label;
  uint64_t seed = 0;
  // Skipped by the engine's max_bugs saturation gate: the job never ran and
  // result/feedback are empty. Recorded anyway so the replay prefix stays
  // index-aligned with the source's deterministic job stream.
  bool gated = false;
  // The job's position in the campaign's global scenario stream (the engine's
  // merge index, or CampaignJob::stream_index for dealt shards of a larger
  // stream). MergeJournals sorts on it to interleave shard journals back
  // into single-process merge order. kNoStreamIndex on records written
  // before the attribute existed.
  size_t stream_index = kNoStreamIndex;
  // Which epoch of an epoch-synchronized campaign (docs/architecture.md)
  // merged this record: feedback from epoch e reached the scenario source
  // only after every record of epoch e. kNoEpoch for ordinary campaigns.
  // Epochs are non-decreasing in record order and their stream-index ranges
  // are disjoint (`lfi_tool journal info` validates both).
  size_t epoch = kNoEpoch;
  Scenario scenario;
  JobResult result;
  RunFeedback feedback;

  // XML rendering (<record> with the scenario, result and feedback as
  // children), used by `lfi_tool journal dump`.
  void AppendXml(XmlNode* parent) const;
  std::string ToXml() const;
};

// One record's fields by reference: what the journal encodes. The engine's
// merge point journals a job through this without copying its scenario and
// result into a JournalRecord. `result` and `feedback` are not read when
// `gated`.
struct JournalRecordRef {
  const std::string& label;
  uint64_t seed;
  bool gated;
  size_t stream_index;
  size_t epoch;
  const Scenario& scenario;
  const JobResult& result;
  const RunFeedback& feedback;
};

// One extent's entry in an extent journal's footer index: where its bytes
// live, how many records it holds, and the stream-index range they span --
// enough to seek to and decode any extent without touching the rest of the
// file (core/extent_journal.h).
struct ExtentInfo {
  static constexpr uint64_t kNoIndex = static_cast<uint64_t>(-1);

  uint64_t offset = 0;       // absolute byte offset of the extent header
  uint32_t stored_size = 0;  // payload bytes on disk, after the fixed header
  uint32_t record_count = 0;
  // Smallest/largest stream_index among the extent's records; kNoIndex when
  // no record carries one.
  uint64_t first_index = kNoIndex;
  uint64_t last_index = kNoIndex;
};

class ExtentJournalWriter;

class CampaignJournal {
 public:
  CampaignJournal();
  ~CampaignJournal();  // finalizes a still-open extent writer (best effort)
  CampaignJournal(CampaignJournal&&);
  CampaignJournal& operator=(CampaignJournal&&);

  // --- reading --------------------------------------------------------------

  // Reads and parses a journal file. Tolerates a torn tail (the
  // kill-mid-write artifact): everything after the last sealed extent is
  // dropped. Fails on missing files, bytes without the extent magic,
  // version mismatches, and corrupt extents.
  static std::optional<CampaignJournal> Load(const std::string& path,
                                             std::string* error = nullptr);

  // Same, from journal bytes already in memory.
  static std::optional<CampaignJournal> Parse(std::string_view text,
                                              std::string* error = nullptr);

  const JournalMetadata& metadata() const { return meta_; }
  // Header field by key, or `def` when absent.
  std::string Meta(const std::string& key, const std::string& def = "") const {
    return MetaValue(meta_, key, def);
  }
  const std::vector<JournalRecord>& records() const { return records_; }
  // Always kExtent (see JournalFormat).
  JournalFormat format() const { return JournalFormat::kExtent; }
  // The footer index (or its scan-recovered equivalent), one entry per
  // sealed extent.
  const std::vector<ExtentInfo>& extents() const { return extents_; }
  // Recovery introspection (`lfi_tool journal doctor`): how many bytes of
  // the loaded file were intact (through the last sealed extent, excluding
  // any footer).
  size_t intact_bytes() const { return intact_bytes_; }
  // The footer index was present and valid, i.e. the journal was finalized
  // and not torn (false = recovered by scan).
  bool sealed() const { return sealed_; }

  // --- writing --------------------------------------------------------------

  // Creates (truncating) `path` and writes the file header. The journal is
  // then writable via Append(). The JournalFormat parameter is ignored (see
  // JournalFormat).
  bool Create(const std::string& path, JournalMetadata meta, std::string* error = nullptr,
              JournalFormat = JournalFormat::kExtent);

  // Reopens a loaded journal's file for appending (resume): loaded records
  // stay readable as the replay prefix, new records land after them. The
  // torn tail a kill left and the old footer are truncated away first, so
  // the file stays parseable after the resumed run appends past it.
  bool OpenAppend(const std::string& path, std::string* error = nullptr);

  // Serializes and appends one record. Records are buffered and flushed per
  // sealed extent (every ExtentJournalWriter::kRecordsPerExtent records), so
  // a kill loses at most the open extent. Requires Create()/OpenAppend().
  bool Append(const JournalRecordRef& record);
  // The same for a whole record (merges, tools, re-encoding a loaded
  // journal).
  bool Append(const JournalRecord& record) {
    return Append(JournalRecordRef{record.label, record.seed, record.gated, record.stream_index,
                                   record.epoch, record.scenario, record.result,
                                   record.feedback});
  }

  // Completes a writable journal: seals the open extent, writes the footer
  // index, flushes, and closes the write stream. Called by the destructor as
  // a best-effort fallback; campaigns that must surface I/O failures call it
  // explicitly.
  bool Finalize(std::string* error = nullptr);

  bool writable() const;

 private:
  JournalMetadata meta_;
  std::vector<JournalRecord> records_;
  std::vector<ExtentInfo> extents_;
  // How many bytes of the loaded file were intact (through the last sealed
  // extent); OpenAppend truncates to this before appending.
  size_t intact_bytes_ = 0;
  bool sealed_ = true;
  std::unique_ptr<ExtentJournalWriter> out_;  // the append stream
};

// --- merging ----------------------------------------------------------------

// What one input journal contributed to a merge (per-shard stats).
struct MergeInputStats {
  std::string path;
  size_t shard_index = static_cast<size_t>(-1);  // the header's "shard" key, if any
  size_t records = 0;
  size_t scenarios_run = 0;  // non-gated records
  size_t bugs = 0;           // crash sites deduplicated within this input
};

// The one per-input merge accounting: adds `input`'s records to `stats` and
// its crash sites to `seen_bugs`, the input's distinct-bug set, which the
// caller keeps across calls when one input arrives in several journals (a
// shard's per-epoch artifacts).
void AccountMergeInput(const CampaignJournal& input, std::set<FoundBug>* seen_bugs,
                       MergeInputStats* stats);

// The engine-fold state an incremental merge carries between calls: the
// campaign fold (crash-site dedup set, cumulative coverage) plus how far the
// merged stream has grown. A distributed coverage-guided campaign merges one
// epoch's shard journals per call, so folding from this state -- instead of
// re-folding from record zero like one-shot MergeJournals -- keeps the
// per-epoch cost proportional to the epoch, not the campaign so far.
struct MergeFoldState : CampaignFold {
  size_t records = 0;            // records merged so far
  size_t next_stream_index = 0;  // smallest stream index a new record may claim
};

// The incremental merge step: interleaves `inputs`' records by recorded
// stream index (ties broken by each input's "shard" header key, then local
// position -- input order never matters), rejects overlaps both within the
// batch and against everything `fold` already merged, folds each record
// through the engine's dedup/feedback fold continuing from `fold`, and
// appends the folded records to the writable `output` journal. `fold` is
// advanced in place; `merged_records` (when non-null) receives the folded
// records in merge order, which is how the orchestrator delivers the
// epoch's feedback to its master source. One-shot MergeJournals is exactly
// this with a fresh fold and a fresh output file.
bool MergeRecordsInto(CampaignJournal& output, const std::vector<CampaignJournal>& inputs,
                      MergeFoldState* fold, std::string* error = nullptr,
                      std::vector<JournalRecord>* merged_records = nullptr);

// Merges N journals (typically the per-shard artifacts of one sharded
// campaign) into a single journal at `output_path`:
//
//   1. every input's campaign identity (command, system, strategy, budget,
//      seed, epoch-len, exhaustive) must agree; the output header carries
//      the agreed identity with the shard keys (shard, shards, epoch)
//      dropped, so the merged journal reads as the single-process
//      campaign's own journal;
//   2. records are interleaved deterministically -- sorted by their recorded
//      global stream index (shard header index, then input position, break
//      ties) -- so any input order yields a bit-identical output; and
//   3. the merge re-runs the engine's deterministic fold over the sorted
//      records: crash-site dedup in stream order and per-record feedback
//      recomputed against the rebuilt cumulative coverage, replacing the
//      shard-local feedback each input recorded.
//
// The result is byte-identical to the journal the equivalent single-process
// run writes, and therefore resumable. Refuses to overwrite an existing
// output file. Returns the merged campaign result (bugs, cumulative
// coverage, scenarios run); `metadata`/`stats` receive the output header and
// per-input accounting when non-null.
std::optional<ExplorationResult> MergeJournals(const std::vector<std::string>& inputs,
                                               const std::string& output_path,
                                               std::string* error = nullptr,
                                               JournalMetadata* metadata = nullptr,
                                               std::vector<MergeInputStats>* stats = nullptr);

}  // namespace lfi

#endif  // LFI_CORE_JOURNAL_H_
