// The binary extent encoding of the campaign journal, its only on-disk form.
//
// An XML stream (the journal's original encoding, still what `lfi_tool
// journal dump` renders) must be parsed whole to answer anything and spends
// most of its bytes re-spelling coverage block names; million-record
// campaigns need better. This encoding borrows the extent idea from the
// DataSeries structured-data format (Anderson et al., HP Labs; see
// docs/journal-format.md for the inline citation and the full byte-level
// spec): records are grouped into *extents* -- length-prefixed, CRC-32
// checked, optionally LZ-compressed blocks of up to kRecordsPerExtent
// records -- and a footer index written at Finalize() records every
// extent's byte offset, record count, and stream-index range, so readers
// seek straight to the extent they want instead of parsing the file.
//
// Within an extent, strings are interned into a per-extent pool: the first
// occurrence is spelled out, every repeat is a 1-2 byte back-reference.
// Coverage maps -- the bulk of every record -- therefore encode as deltas
// against the extent's accumulated dictionary: the ~16 records of an extent
// cover mostly the same blocks, so each block name is paid for once per
// extent instead of once per record. The pool resets at every extent
// boundary, which keeps extents self-contained and random-accessible.
//
// Torn-tail recovery is O(1) with a valid footer (the footer only exists if
// Finalize() completed, and everything before it is sealed) and O(#extents)
// without one: walk the extent headers, stop at the first missing magic,
// short payload, or CRC mismatch, and truncate to that extent boundary.
// Killed campaigns lose at most the open (unsealed) extent -- up to
// kRecordsPerExtent records, which resume re-executes; the resumed run
// seals at the same global record boundaries as an uninterrupted one, so
// the finalized journal is still bit-identical.
//
// CampaignJournal wraps this for every caller; the standalone entry points
// exist for tests and tools that want extent-granular access.

#ifndef LFI_CORE_EXTENT_JOURNAL_H_
#define LFI_CORE_EXTENT_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/journal.h"
#include "util/binary_io.h"

namespace lfi {

// Format constants (docs/journal-format.md fixes these byte-for-byte).
inline constexpr std::string_view kExtentFileMagic = "LFIJ";
inline constexpr std::string_view kExtentMagic = "XTNT";
inline constexpr std::string_view kExtentFooterMagic = "XIDX";
inline constexpr std::string_view kExtentTrailerMagic = "LFIE";
// v2 added the per-record epoch varint (epoch-synchronized distributed
// campaigns); v1 files predate it and are rejected by the version check.
inline constexpr uint8_t kExtentFormatVersion = 2;
inline constexpr uint8_t kExtentCodecRaw = 0;
inline constexpr uint8_t kExtentCodecLz = 1;
inline constexpr size_t kExtentHeaderBytes = 40;
inline constexpr size_t kExtentTrailerBytes = 16;

// Everything a parse recovers from extent journal bytes.
struct ExtentJournalData {
  JournalMetadata meta;
  std::vector<JournalRecord> records;
  std::vector<ExtentInfo> extents;
  // Bytes through the last sealed extent (excluding any footer): the
  // truncation point appends continue from.
  uint64_t intact_bytes = 0;
  // True when the footer index was present and valid (a finalized journal);
  // false means the extents were recovered by scanning.
  bool footer_valid = false;
};

// Does the buffer start with the extent journal magic? (CampaignJournal::Parse
// rejects anything that does not.)
bool IsExtentJournal(std::string_view bytes);

// Parses a whole extent journal from memory. Uses the footer index when the
// trailer validates; otherwise scans extent headers and silently drops the
// torn tail (the kill-mid-write artifact). Fails on bad header magic,
// version mismatches, checksum failures behind a valid footer, and
// undecodable sealed extents.
std::optional<ExtentJournalData> ParseExtentJournal(std::string_view bytes,
                                                    std::string* error = nullptr);

// Decodes one extent's records given the file bytes and its index entry --
// the random-access path the footer index exists for. Verifies the extent
// header and payload CRC before decoding.
bool DecodeExtentRecords(std::string_view file_bytes, const ExtentInfo& extent,
                         std::vector<JournalRecord>* out, std::string* error = nullptr);

// The append-side writer. CampaignJournal owns one per writable extent
// journal; Create/OpenAppend/Append/Finalize mirror its lifecycle.
class ExtentJournalWriter {
 public:
  // Records per sealed extent. Also the durability quantum: a kill loses at
  // most this many trailing records (resume re-executes them).
  static constexpr size_t kRecordsPerExtent = 16;
  // Oversized records (giant coverage maps) seal early so the open-extent
  // buffer stays bounded.
  static constexpr size_t kMaxOpenPayload = size_t{1} << 20;

  ExtentJournalWriter() = default;
  ~ExtentJournalWriter();  // best-effort Finalize when still open
  ExtentJournalWriter(const ExtentJournalWriter&) = delete;
  ExtentJournalWriter& operator=(const ExtentJournalWriter&) = delete;

  // Creates (truncating) `path` and writes the file header.
  bool Create(const std::string& path, const JournalMetadata& meta, std::string* error);

  // Reopens a parsed journal for appending: truncates everything past the
  // sealed extents (the torn tail and any footer) and continues the extent
  // stream. `loaded` is the parse of the same file.
  bool OpenAppend(const std::string& path, const ExtentJournalData& loaded,
                  std::string* error);

  // Buffers one record into the open extent, sealing (and flushing) the
  // extent when it reaches kRecordsPerExtent records or kMaxOpenPayload
  // encoded bytes.
  bool Append(const JournalRecord& record, std::string* error);

  // Seals the open extent, writes the footer index and trailer, flushes,
  // and closes. The writer is done afterwards.
  bool Finalize(std::string* error);

  bool open() const { return out_ != nullptr; }

 private:
  bool SealExtent(std::string* error);
  bool WriteRaw(std::string_view bytes, std::string* error);

  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  std::unique_ptr<std::FILE, FileCloser> out_;
  std::string path_;
  uint64_t offset_ = 0;             // current end-of-file byte offset
  std::vector<ExtentInfo> extents_;  // sealed so far; becomes the footer index

  // Open (unsealed) extent state. The string pool resets with it.
  ByteWriter payload_;
  std::unordered_map<std::string, uint64_t> pool_ids_;
  uint32_t open_records_ = 0;
  uint64_t open_first_ = ExtentInfo::kNoIndex;
  uint64_t open_last_ = ExtentInfo::kNoIndex;
};

}  // namespace lfi

#endif  // LFI_CORE_EXTENT_JOURNAL_H_
