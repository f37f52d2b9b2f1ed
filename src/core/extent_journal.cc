#include "core/extent_journal.h"

#include <algorithm>
#include <filesystem>

#include "coverage/coverage.h"
#include "util/string_util.h"

namespace lfi {
namespace {

// --- per-extent string pool -------------------------------------------------
//
// pstring encoding (journal-format.md "Strings"): varint tag; 0 introduces a
// new pool entry (varint length + bytes, id = current pool size), tag >= 1
// references pool entry tag-1. The pool starts empty at every extent.

void PutPooled(const std::string& s, ByteWriter* w,
               std::unordered_map<std::string, uint64_t>* pool) {
  auto it = pool->find(s);
  if (it != pool->end()) {
    w->PutVarint(it->second + 1);
    return;
  }
  w->PutVarint(0);
  w->PutVarint(s.size());
  w->PutBytes(s);
  pool->emplace(s, pool->size());
}

class PoolReader {
 public:
  explicit PoolReader(ByteReader* reader) : reader_(reader) {}

  bool Get(std::string* out) {
    size_t index;
    if (!Next(&index)) {
      return false;
    }
    *out = pool_[index];
    return true;
  }

  // Get() for coverage block names, returning only the interned BlockId: the
  // intern (a global hash lookup) is cached by pool index so it is paid once
  // per extent, not once per record, and back-references skip the string
  // copy entirely -- this is the densest loop in record decoding.
  bool GetBlockId(CoverageMap::BlockId* id) {
    size_t index;
    if (!Next(&index)) {
      return false;
    }
    if (block_ids_[index] == kUninterned) {
      block_ids_[index] = CoverageMap::InternBlock(pool_[index]);
    }
    *id = block_ids_[index];
    return true;
  }

 private:
  static constexpr CoverageMap::BlockId kUninterned =
      static_cast<CoverageMap::BlockId>(-1);

  // Decodes one pstring tag, materializing new pool entries; `*index` is the
  // entry the tag denotes.
  bool Next(size_t* index) {
    uint64_t tag = reader_->GetVarint();
    if (!reader_->ok()) {
      return false;
    }
    if (tag == 0) {
      uint64_t length = reader_->GetVarint();
      std::string_view bytes = reader_->GetBytes(static_cast<size_t>(length));
      if (!reader_->ok()) {
        return false;
      }
      pool_.emplace_back(bytes);
      block_ids_.push_back(kUninterned);
      *index = pool_.size() - 1;
      return true;
    }
    if (tag > pool_.size()) {
      return false;  // forward reference: malformed
    }
    *index = static_cast<size_t>(tag - 1);
    return true;
  }

  ByteReader* reader_;
  std::vector<std::string> pool_;
  std::vector<CoverageMap::BlockId> block_ids_;  // in lockstep with pool_
};

// --- record codec -----------------------------------------------------------

using StringPool = std::unordered_map<std::string, uint64_t>;

void EncodeScenario(const Scenario& scenario, ByteWriter* w, StringPool* pool) {
  w->PutVarint(scenario.triggers().size());
  for (const TriggerDecl& trigger : scenario.triggers()) {
    PutPooled(trigger.id, w, pool);
    PutPooled(trigger.class_name, w, pool);
    if (trigger.args != nullptr) {
      w->PutU8(1);
      // The <args> subtree rides as its serialized XML form -- the same
      // canonical spelling TriggerDecl equality compares by.
      PutPooled(trigger.args->ToString(0), w, pool);
    } else {
      w->PutU8(0);
    }
  }
  w->PutVarint(scenario.functions().size());
  for (const FunctionAssoc& fn : scenario.functions()) {
    PutPooled(fn.function, w, pool);
    w->PutSigned(fn.argc);
    w->PutU8(fn.unused ? 1 : 0);
    w->PutSigned(fn.retval);
    w->PutSigned(fn.errno_value);
    w->PutVarint(fn.triggers.size());
    for (const TriggerRef& ref : fn.triggers) {
      PutPooled(ref.ref, w, pool);
      w->PutU8(ref.negate ? 1 : 0);
    }
  }
}

bool DecodeScenario(ByteReader* r, PoolReader* pool, Scenario* out, std::string* error) {
  auto fail = [&](const char* what) {
    if (error != nullptr) {
      *error = what;
    }
    return false;
  };
  uint64_t triggers = r->GetVarint();
  for (uint64_t i = 0; r->ok() && i < triggers; ++i) {
    TriggerDecl decl;
    if (!pool->Get(&decl.id) || !pool->Get(&decl.class_name)) {
      return fail("bad trigger string");
    }
    if (r->GetU8() != 0) {
      std::string args_xml;
      if (!pool->Get(&args_xml)) {
        return fail("bad trigger args string");
      }
      auto doc = XmlParse(args_xml);
      if (!doc || doc->root() == nullptr) {
        return fail("unparseable trigger <args> payload");
      }
      decl.args = std::shared_ptr<XmlNode>(doc->take_root().release());
    }
    out->AddTrigger(std::move(decl));
  }
  uint64_t functions = r->GetVarint();
  for (uint64_t i = 0; r->ok() && i < functions; ++i) {
    FunctionAssoc assoc;
    if (!pool->Get(&assoc.function)) {
      return fail("bad function name string");
    }
    assoc.argc = static_cast<int>(r->GetSigned());
    assoc.unused = r->GetU8() != 0;
    assoc.retval = r->GetSigned();
    assoc.errno_value = static_cast<int>(r->GetSigned());
    uint64_t refs = r->GetVarint();
    for (uint64_t j = 0; r->ok() && j < refs; ++j) {
      TriggerRef ref;
      if (!pool->Get(&ref.ref)) {
        return fail("bad trigger ref string");
      }
      ref.negate = r->GetU8() != 0;
      assoc.triggers.push_back(std::move(ref));
    }
    out->AddFunction(std::move(assoc));
  }
  return r->ok() || fail("truncated scenario");
}

void EncodeResult(const JobResult& result, ByteWriter* w, StringPool* pool) {
  PutPooled(result.fingerprint, w, pool);
  w->PutVarint(result.injections);
  w->PutVarint(result.bugs.size());
  for (const FoundBug& bug : result.bugs) {
    PutPooled(bug.system, w, pool);
    PutPooled(bug.kind, w, pool);
    PutPooled(bug.where, w, pool);
    PutPooled(bug.injected, w, pool);
  }
  w->PutVarint(result.log.records().size());
  for (const InjectionRecord& record : result.log.records()) {
    w->PutVarint(record.sequence);
    PutPooled(record.function, w, pool);
    w->PutSigned(record.retval);
    w->PutSigned(record.errno_value);
    w->PutVarint(record.trigger_ids.size());
    for (const std::string& id : record.trigger_ids) {
      PutPooled(id, w, pool);
    }
    w->PutVarint(record.call_number);
    w->PutVarint(record.stack.size());
    for (const StackFrame& frame : record.stack) {
      PutPooled(frame.module, w, pool);
      PutPooled(frame.function, w, pool);
      w->PutVarint(frame.offset);
    }
    PutPooled(record.process, w, pool);
  }
  // Coverage: the record's own map in name-sorted order (the same
  // determinism rule as the XML rendering). Block names repeat across an
  // extent's records, so after the first record they are back-references --
  // the coverage-delta encoding that makes extents small.
  std::vector<CoverageMap::BlockInfo> blocks = result.coverage.SortedBlocks();
  w->PutVarint(blocks.size());
  for (const CoverageMap::BlockInfo& block : blocks) {
    PutPooled(block.name, w, pool);
    w->PutVarint((static_cast<uint64_t>(block.lines) << 1) | (block.recovery ? 1 : 0));
    w->PutVarint(block.hits);
  }
}

bool DecodeResult(ByteReader* r, PoolReader* pool, JobResult* out, std::string* error) {
  auto fail = [&](const char* what) {
    if (error != nullptr) {
      *error = what;
    }
    return false;
  };
  if (!pool->Get(&out->fingerprint)) {
    return fail("bad fingerprint string");
  }
  out->injections = static_cast<size_t>(r->GetVarint());
  uint64_t bugs = r->GetVarint();
  for (uint64_t i = 0; r->ok() && i < bugs; ++i) {
    FoundBug bug;
    if (!pool->Get(&bug.system) || !pool->Get(&bug.kind) || !pool->Get(&bug.where) ||
        !pool->Get(&bug.injected)) {
      return fail("bad bug string");
    }
    out->bugs.push_back(std::move(bug));
  }
  uint64_t injections = r->GetVarint();
  for (uint64_t i = 0; r->ok() && i < injections; ++i) {
    InjectionRecord record;
    record.sequence = r->GetVarint();
    if (!pool->Get(&record.function)) {
      return fail("bad injection function string");
    }
    record.retval = r->GetSigned();
    record.errno_value = static_cast<int>(r->GetSigned());
    uint64_t triggers = r->GetVarint();
    for (uint64_t j = 0; r->ok() && j < triggers; ++j) {
      std::string id;
      if (!pool->Get(&id)) {
        return fail("bad injection trigger string");
      }
      record.trigger_ids.push_back(std::move(id));
    }
    record.call_number = r->GetVarint();
    uint64_t frames = r->GetVarint();
    for (uint64_t j = 0; r->ok() && j < frames; ++j) {
      StackFrame frame;
      if (!pool->Get(&frame.module) || !pool->Get(&frame.function)) {
        return fail("bad stack frame string");
      }
      frame.offset = static_cast<uint32_t>(r->GetVarint());
      record.stack.push_back(std::move(frame));
    }
    if (!pool->Get(&record.process)) {
      return fail("bad injection process string");
    }
    out->log.Record(std::move(record));
  }
  uint64_t blocks = r->GetVarint();
  for (uint64_t i = 0; r->ok() && i < blocks; ++i) {
    CoverageMap::BlockId block_id = 0;
    if (!pool->GetBlockId(&block_id)) {
      return fail("bad coverage block string");
    }
    uint64_t meta = r->GetVarint();
    uint64_t hits = r->GetVarint();
    out->coverage.RestoreBlock(block_id, (meta & 1) != 0, static_cast<int>(meta >> 1),
                               hits);
  }
  return r->ok() || fail("truncated result");
}

void EncodeFeedback(const RunFeedback& feedback, ByteWriter* w, StringPool* pool) {
  w->PutU8(feedback.new_bug ? 1 : 0);
  w->PutVarint(feedback.injections);
  PutPooled(feedback.fingerprint, w, pool);
  w->PutVarint(feedback.new_blocks.size());
  for (const std::string& block : feedback.new_blocks) {
    PutPooled(block, w, pool);
  }
}

bool DecodeFeedback(ByteReader* r, PoolReader* pool, RunFeedback* out, std::string* error) {
  auto fail = [&](const char* what) {
    if (error != nullptr) {
      *error = what;
    }
    return false;
  };
  out->new_bug = r->GetU8() != 0;
  out->injections = static_cast<size_t>(r->GetVarint());
  if (!pool->Get(&out->fingerprint)) {
    return fail("bad feedback fingerprint string");
  }
  uint64_t blocks = r->GetVarint();
  for (uint64_t i = 0; r->ok() && i < blocks; ++i) {
    std::string block;
    if (!pool->Get(&block)) {
      return fail("bad feedback block string");
    }
    out->new_blocks.push_back(std::move(block));
  }
  return r->ok() || fail("truncated feedback");
}

void EncodeRecord(const JournalRecord& record, ByteWriter* w, StringPool* pool) {
  w->PutU8(record.gated ? 1 : 0);
  PutPooled(record.label, w, pool);
  w->PutVarint(record.seed);
  w->PutVarint(record.stream_index == JournalRecord::kNoStreamIndex
                   ? 0
                   : static_cast<uint64_t>(record.stream_index) + 1);
  // Format v2: the epoch ordinal (+1; 0 = not epoch-synchronized).
  w->PutVarint(record.epoch == kNoEpoch ? 0 : static_cast<uint64_t>(record.epoch) + 1);
  EncodeScenario(record.scenario, w, pool);
  if (!record.gated) {
    EncodeResult(record.result, w, pool);
    EncodeFeedback(record.feedback, w, pool);
  }
}

bool DecodeRecord(ByteReader* r, PoolReader* pool, JournalRecord* out, std::string* error) {
  out->gated = r->GetU8() != 0;
  if (!pool->Get(&out->label)) {
    if (error != nullptr) {
      *error = "bad record label string";
    }
    return false;
  }
  out->seed = r->GetVarint();
  uint64_t index = r->GetVarint();
  out->stream_index =
      index == 0 ? JournalRecord::kNoStreamIndex : static_cast<size_t>(index - 1);
  uint64_t epoch = r->GetVarint();
  out->epoch = epoch == 0 ? kNoEpoch : static_cast<size_t>(epoch - 1);
  if (!DecodeScenario(r, pool, &out->scenario, error)) {
    return false;
  }
  if (!out->gated) {
    if (!DecodeResult(r, pool, &out->result, error) ||
        !DecodeFeedback(r, pool, &out->feedback, error)) {
      return false;
    }
  }
  return r->ok();
}

// --- file header ------------------------------------------------------------

std::string EncodeFileHeader(const JournalMetadata& meta) {
  ByteWriter meta_block;
  meta_block.PutVarint(meta.size());
  for (const auto& [key, value] : meta) {
    meta_block.PutVarint(key.size());
    meta_block.PutBytes(key);
    meta_block.PutVarint(value.size());
    meta_block.PutBytes(value);
  }
  ByteWriter header;
  header.PutBytes(kExtentFileMagic);
  header.PutU8(kExtentFormatVersion);
  header.PutU8(0);  // reserved flags
  header.PutU32(static_cast<uint32_t>(meta_block.size()));
  uint32_t crc = Crc32(meta_block.buffer());
  header.PutBytes(meta_block.buffer());
  header.PutU32(crc);
  return header.TakeBuffer();
}

// Parses the file header; on success fills meta and returns the offset of
// the first extent.
std::optional<uint64_t> DecodeFileHeader(std::string_view bytes, JournalMetadata* meta,
                                         std::string* error) {
  auto fail = [&](std::string what) -> std::optional<uint64_t> {
    if (error != nullptr) {
      *error = std::move(what);
    }
    return std::nullopt;
  };
  ByteReader reader(bytes);
  if (std::string(reader.GetBytes(4)) != kExtentFileMagic) {
    return fail("not an extent journal (bad magic)");
  }
  uint8_t version = reader.GetU8();
  if (reader.ok() && version != kExtentFormatVersion) {
    return fail(StrFormat("unsupported extent journal version %d (this build reads %d)",
                          version, kExtentFormatVersion));
  }
  reader.GetU8();  // reserved flags
  uint32_t meta_size = reader.GetU32();
  std::string_view meta_bytes = reader.GetBytes(meta_size);
  uint32_t crc = reader.GetU32();
  if (!reader.ok()) {
    return fail("truncated extent journal header");
  }
  if (Crc32(meta_bytes) != crc) {
    return fail("extent journal header checksum mismatch");
  }
  ByteReader meta_reader(meta_bytes);
  uint64_t pairs = meta_reader.GetVarint();
  for (uint64_t i = 0; meta_reader.ok() && i < pairs; ++i) {
    uint64_t key_len = meta_reader.GetVarint();
    std::string_view key = meta_reader.GetBytes(static_cast<size_t>(key_len));
    uint64_t value_len = meta_reader.GetVarint();
    std::string_view value = meta_reader.GetBytes(static_cast<size_t>(value_len));
    if (meta_reader.ok()) {
      meta->emplace_back(std::string(key), std::string(value));
    }
  }
  if (!meta_reader.ok()) {
    return fail("malformed extent journal metadata");
  }
  return reader.pos();
}

// Parses one extent header at `offset`; nullopt when the bytes there do not
// form a complete, plausible header (the scan-recovery stop condition).
// `codec` and `raw_size` are needed to decode; ExtentInfo carries the rest.
struct ExtentHeader {
  ExtentInfo info;
  uint8_t codec = kExtentCodecRaw;
  uint32_t raw_size = 0;
  uint32_t payload_crc = 0;
};

std::optional<ExtentHeader> DecodeExtentHeader(std::string_view bytes, uint64_t offset) {
  if (offset > bytes.size() || bytes.size() - offset < kExtentHeaderBytes) {
    return std::nullopt;
  }
  ByteReader reader(bytes.substr(offset, kExtentHeaderBytes));
  if (std::string(reader.GetBytes(4)) != kExtentMagic) {
    return std::nullopt;
  }
  ExtentHeader header;
  header.codec = reader.GetU8();
  reader.GetU8();
  reader.GetU8();
  reader.GetU8();  // reserved
  header.info.offset = offset;
  header.info.record_count = reader.GetU32();
  header.raw_size = reader.GetU32();
  header.info.stored_size = reader.GetU32();
  header.payload_crc = reader.GetU32();
  header.info.first_index = reader.GetU64();
  header.info.last_index = reader.GetU64();
  if (!reader.ok() || header.codec > kExtentCodecLz ||
      bytes.size() - offset - kExtentHeaderBytes < header.info.stored_size) {
    return std::nullopt;
  }
  return header;
}

}  // namespace

// --- reading ----------------------------------------------------------------

bool IsExtentJournal(std::string_view bytes) {
  return bytes.size() >= kExtentFileMagic.size() &&
         bytes.substr(0, kExtentFileMagic.size()) == kExtentFileMagic;
}

bool DecodeExtentRecords(std::string_view file_bytes, const ExtentInfo& extent,
                         std::vector<JournalRecord>* out, std::string* error) {
  auto fail = [&](std::string what) {
    if (error != nullptr) {
      *error = std::move(what);
    }
    return false;
  };
  auto header = DecodeExtentHeader(file_bytes, extent.offset);
  if (!header || header->info.stored_size != extent.stored_size) {
    return fail(StrFormat("no valid extent at offset %llu",
                          static_cast<unsigned long long>(extent.offset)));
  }
  std::string_view stored =
      file_bytes.substr(extent.offset + kExtentHeaderBytes, header->info.stored_size);
  if (Crc32(stored) != header->payload_crc) {
    return fail(StrFormat("extent at offset %llu fails its checksum",
                          static_cast<unsigned long long>(extent.offset)));
  }
  std::string decompressed;
  std::string_view payload = stored;
  if (header->codec == kExtentCodecLz) {
    auto raw = LzDecompress(stored, header->raw_size);
    if (!raw) {
      return fail(StrFormat("extent at offset %llu fails to decompress",
                            static_cast<unsigned long long>(extent.offset)));
    }
    decompressed = std::move(*raw);
    payload = decompressed;
  } else if (payload.size() != header->raw_size) {
    return fail(StrFormat("extent at offset %llu has inconsistent sizes",
                          static_cast<unsigned long long>(extent.offset)));
  }
  ByteReader reader(payload);
  PoolReader pool(&reader);
  std::string record_error;
  for (uint32_t i = 0; i < header->info.record_count; ++i) {
    JournalRecord record;
    if (!DecodeRecord(&reader, &pool, &record, &record_error)) {
      return fail(StrFormat("extent at offset %llu, record %u: %s",
                            static_cast<unsigned long long>(extent.offset), i,
                            record_error.empty() ? "truncated record" : record_error.c_str()));
    }
    out->push_back(std::move(record));
  }
  if (!reader.AtEnd()) {
    return fail(StrFormat("extent at offset %llu has %zu byte(s) of trailing garbage",
                          static_cast<unsigned long long>(extent.offset),
                          payload.size() - reader.pos()));
  }
  return true;
}

std::optional<ExtentJournalData> ParseExtentJournal(std::string_view bytes,
                                                    std::string* error) {
  auto fail = [&](std::string what) -> std::optional<ExtentJournalData> {
    if (error != nullptr) {
      *error = std::move(what);
    }
    return std::nullopt;
  };
  ExtentJournalData data;
  auto header_end = DecodeFileHeader(bytes, &data.meta, error);
  if (!header_end) {
    return std::nullopt;
  }

  // Footer fast path: a valid trailer at EOF points at the index of every
  // sealed extent, so record recovery is one seek per extent, no scan.
  if (bytes.size() >= *header_end + kExtentTrailerBytes &&
      bytes.substr(bytes.size() - 4) == kExtentTrailerMagic) {
    ByteReader trailer(bytes.substr(bytes.size() - kExtentTrailerBytes));
    uint64_t footer_offset = trailer.GetU64();
    uint32_t footer_size = trailer.GetU32();
    if (footer_offset >= *header_end &&
        footer_offset + footer_size + kExtentTrailerBytes == bytes.size()) {
      ByteReader footer(bytes.substr(footer_offset, footer_size));
      if (std::string(footer.GetBytes(4)) == kExtentFooterMagic) {
        uint32_t index_size = footer.GetU32();
        std::string_view index_bytes = footer.GetBytes(index_size);
        uint32_t index_crc = footer.GetU32();
        if (footer.ok() && footer.AtEnd() && Crc32(index_bytes) == index_crc) {
          ByteReader index(index_bytes);
          uint64_t count = index.GetVarint();
          for (uint64_t i = 0; index.ok() && i < count; ++i) {
            ExtentInfo extent;
            extent.offset = index.GetVarint();
            extent.stored_size = static_cast<uint32_t>(index.GetVarint());
            extent.record_count = static_cast<uint32_t>(index.GetVarint());
            extent.first_index = index.GetVarint() - 1;  // 0 = none wraps to kNoIndex
            extent.last_index = index.GetVarint() - 1;
            data.extents.push_back(extent);
          }
          if (!index.ok() || !index.AtEnd()) {
            return fail("extent journal footer index is malformed");
          }
          // The footer only exists if Finalize completed, so a bad extent
          // behind it is corruption, not a torn tail: fail loudly.
          size_t total_records = 0;
          for (const ExtentInfo& extent : data.extents) {
            total_records += extent.record_count;
          }
          data.records.reserve(total_records);
          for (const ExtentInfo& extent : data.extents) {
            if (!DecodeExtentRecords(bytes, extent, &data.records, error)) {
              return std::nullopt;
            }
          }
          data.intact_bytes = footer_offset;
          data.footer_valid = true;
          return data;
        }
      }
    }
    // An EOF that merely resembles a trailer falls through to the scan.
  }

  // No (valid) footer: the journal is mid-write or was killed. Walk the
  // extent stream and truncate at the first invalid boundary -- a torn
  // extent, a partial footer, or plain garbage all stop the walk the same
  // way.
  uint64_t pos = *header_end;
  while (true) {
    auto header = DecodeExtentHeader(bytes, pos);
    if (!header) {
      break;
    }
    std::vector<JournalRecord> records;
    if (!DecodeExtentRecords(bytes, header->info, &records, nullptr)) {
      break;
    }
    for (JournalRecord& record : records) {
      data.records.push_back(std::move(record));
    }
    data.extents.push_back(header->info);
    pos += kExtentHeaderBytes + header->info.stored_size;
  }
  data.intact_bytes = pos;
  return data;
}

// --- writing ----------------------------------------------------------------

ExtentJournalWriter::~ExtentJournalWriter() {
  if (out_ != nullptr) {
    Finalize(nullptr);
  }
}

bool ExtentJournalWriter::WriteRaw(std::string_view bytes, std::string* error) {
  if (std::fwrite(bytes.data(), 1, bytes.size(), out_.get()) != bytes.size() ||
      std::fflush(out_.get()) != 0) {
    if (error != nullptr) {
      *error = "journal write to " + path_ + " failed: disk full or I/O error";
    }
    return false;
  }
  offset_ += bytes.size();
  return true;
}

bool ExtentJournalWriter::Create(const std::string& path, const JournalMetadata& meta,
                                 std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot create journal " + path;
    }
    return false;
  }
  out_.reset(f);
  path_ = path;
  offset_ = 0;
  return WriteRaw(EncodeFileHeader(meta), error);
}

bool ExtentJournalWriter::OpenAppend(const std::string& path, const ExtentJournalData& loaded,
                                     std::string* error) {
  // Drop everything past the sealed extents: the torn open extent a kill
  // left, or the footer Finalize wrote (it indexes only what came before
  // it, so appends must overwrite it; Finalize writes a fresh one).
  std::error_code ec;
  if (std::filesystem::file_size(path, ec) > loaded.intact_bytes && !ec) {
    std::filesystem::resize_file(path, loaded.intact_bytes, ec);
    if (ec) {
      if (error != nullptr) {
        *error = "cannot truncate journal tail in " + path + ": " + ec.message();
      }
      return false;
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
  path_ = path;
  offset_ = loaded.intact_bytes;
  extents_ = loaded.extents;
  return true;
}

bool ExtentJournalWriter::Append(const JournalRecord& record, std::string* error) {
  if (out_ == nullptr) {
    if (error != nullptr) {
      *error = "journal is not open for writing";
    }
    return false;
  }
  EncodeRecord(record, &payload_, &pool_ids_);
  if (record.stream_index != JournalRecord::kNoStreamIndex) {
    uint64_t index = record.stream_index;
    open_first_ = open_first_ == ExtentInfo::kNoIndex ? index : std::min(open_first_, index);
    open_last_ = open_last_ == ExtentInfo::kNoIndex ? index : std::max(open_last_, index);
  }
  ++open_records_;
  if (open_records_ >= kRecordsPerExtent || payload_.size() >= kMaxOpenPayload) {
    return SealExtent(error);
  }
  return true;
}

bool ExtentJournalWriter::SealExtent(std::string* error) {
  if (open_records_ == 0) {
    return true;
  }
  std::string raw = payload_.TakeBuffer();
  payload_.Clear();
  std::string compressed = LzCompress(raw);
  uint8_t codec = kExtentCodecRaw;
  std::string_view stored = raw;
  if (compressed.size() < raw.size()) {
    codec = kExtentCodecLz;
    stored = compressed;
  }
  ExtentInfo info;
  info.offset = offset_;
  info.stored_size = static_cast<uint32_t>(stored.size());
  info.record_count = open_records_;
  info.first_index = open_first_;
  info.last_index = open_last_;

  ByteWriter extent;
  extent.PutBytes(kExtentMagic);
  extent.PutU8(codec);
  extent.PutU8(0);
  extent.PutU8(0);
  extent.PutU8(0);  // reserved
  extent.PutU32(info.record_count);
  extent.PutU32(static_cast<uint32_t>(raw.size()));
  extent.PutU32(info.stored_size);
  extent.PutU32(Crc32(stored));
  extent.PutU64(info.first_index);
  extent.PutU64(info.last_index);
  extent.PutBytes(stored);

  // Reset the open-extent state before the write so a failed seal cannot be
  // retried into a double-append.
  pool_ids_.clear();
  open_records_ = 0;
  open_first_ = ExtentInfo::kNoIndex;
  open_last_ = ExtentInfo::kNoIndex;

  if (!WriteRaw(extent.buffer(), error)) {
    return false;
  }
  extents_.push_back(info);
  return true;
}

bool ExtentJournalWriter::Finalize(std::string* error) {
  if (out_ == nullptr) {
    if (error != nullptr) {
      *error = "journal is not open for writing";
    }
    return false;
  }
  if (!SealExtent(error)) {
    out_.reset();
    return false;
  }
  ByteWriter index;
  index.PutVarint(extents_.size());
  for (const ExtentInfo& extent : extents_) {
    index.PutVarint(extent.offset);
    index.PutVarint(extent.stored_size);
    index.PutVarint(extent.record_count);
    index.PutVarint(extent.first_index + 1);  // kNoIndex wraps to 0 = none
    index.PutVarint(extent.last_index + 1);
  }
  uint64_t footer_offset = offset_;
  ByteWriter footer;
  footer.PutBytes(kExtentFooterMagic);
  footer.PutU32(static_cast<uint32_t>(index.size()));
  uint32_t crc = Crc32(index.buffer());
  footer.PutBytes(index.buffer());
  footer.PutU32(crc);
  uint32_t footer_size = static_cast<uint32_t>(footer.size());
  footer.PutU64(footer_offset);
  footer.PutU32(footer_size);
  footer.PutBytes(kExtentTrailerMagic);
  bool ok = WriteRaw(footer.buffer(), error);
  out_.reset();
  return ok;
}

}  // namespace lfi
