// The binary extent journal (core/extent_journal.h, docs/journal-format.md):
// property-style XML<->extent conversion round trips over randomized
// journals, torn-tail truncation at every byte offset, footer-index random
// access vs the full scan, kill-and-resume bit-identity in extent mode at
// several worker counts, and the LZ/varint primitives the format builds on.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apps/common/campaign_driver.h"
#include "apps/common/campaign_spec.h"
#include "campaign_test_util.h"
#include "core/campaign_engine.h"
#include "core/extent_journal.h"
#include "core/journal.h"
#include "core/scenario.h"
#include "core/stock_triggers.h"
#include "util/binary_io.h"
#include "util/errno_codes.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace lfi {
namespace {

// The same escaping edge cases journal_test.cc throws at the XML layer: the
// conversion round trip must carry them through both encodings unchanged.
const char* const kNastyStrings[] = {
    "plain",          "with space",       "quo\"te",        "apos'trophe",
    "amp&ersand",     "less<than",        "greater>than",   "comma,separated",
    "new\nline",      "tab\tchar",        "ctrl\x01char",   "mixed<&\"'\x02>end",
};

std::string NastyString(Rng& rng) {
  return kNastyStrings[rng.NextBelow(std::size(kNastyStrings))];
}

const int kErrnoPool[] = {0, kEIO, kENOMEM, kEINTR, 7, 123};

Scenario RandomScenario(Rng& rng) {
  Scenario scenario;
  size_t triggers = 1 + rng.NextBelow(3);
  for (size_t i = 0; i < triggers; ++i) {
    TriggerDecl decl;
    decl.id = NastyString(rng) + StrFormat("-%zu", i);
    decl.class_name = rng.Chance(0.5) ? "CallCountTrigger" : NastyString(rng);
    if (rng.Chance(0.5)) {
      auto args = std::make_unique<XmlNode>("args");
      args->AddChild("count")->set_text(StrFormat("%llu", (unsigned long long)rng.NextBelow(9)));
      args->AddChild("extra")->SetAttr("value", NastyString(rng));
      decl.args = std::shared_ptr<XmlNode>(args.release());
    }
    scenario.AddTrigger(std::move(decl));
  }
  size_t functions = 1 + rng.NextBelow(4);
  for (size_t i = 0; i < functions; ++i) {
    FunctionAssoc assoc;
    assoc.function = rng.Chance(0.3) ? NastyString(rng) : StrFormat("fn_%zu", i);
    assoc.argc = static_cast<int>(rng.NextBelow(4));
    if (rng.Chance(0.2)) {
      assoc.unused = true;
    } else {
      assoc.retval = rng.NextInRange(-1000000, 1000000);
      assoc.errno_value = kErrnoPool[rng.NextBelow(std::size(kErrnoPool))];
    }
    size_t refs = 1 + rng.NextBelow(scenario.triggers().size());
    for (size_t r = 0; r < refs; ++r) {
      TriggerRef ref;
      ref.ref = scenario.triggers()[rng.NextBelow(scenario.triggers().size())].id;
      ref.negate = rng.Chance(0.25);
      assoc.triggers.push_back(ref);
    }
    scenario.AddFunction(std::move(assoc));
  }
  return scenario;
}

JournalRecord RandomRecord(Rng& rng, size_t index) {
  JournalRecord record;
  record.label = StrFormat("job-%zu ", index) + NastyString(rng);
  record.seed = rng.Next();
  record.stream_index = rng.Chance(0.9) ? index : JournalRecord::kNoStreamIndex;
  record.scenario = RandomScenario(rng);
  if (rng.Chance(0.1)) {
    record.gated = true;  // gated records carry no result/feedback
    return record;
  }
  record.result.fingerprint = rng.Chance(0.5) ? NastyString(rng) : "";
  record.result.injections = rng.NextBelow(5);
  if (rng.Chance(0.3)) {
    record.result.bugs.push_back(
        FoundBug{"git", NastyString(rng), NastyString(rng), record.label});
  }
  size_t log_records = rng.NextBelow(3);
  for (size_t i = 0; i < log_records; ++i) {
    InjectionRecord injection;
    injection.sequence = i + 1;
    injection.function = StrFormat("call_%zu", i);
    injection.retval = rng.NextInRange(-1000, 1000);
    injection.errno_value = kErrnoPool[rng.NextBelow(std::size(kErrnoPool))];
    injection.trigger_ids.push_back(NastyString(rng));
    injection.call_number = 1 + rng.NextBelow(100);
    injection.stack.push_back(StackFrame{NastyString(rng), StrFormat("frame_%zu", i),
                                         static_cast<uint32_t>(rng.NextBelow(0x1000))});
    if (rng.Chance(0.5)) {
      injection.process = NastyString(rng);
    }
    record.result.log.Record(std::move(injection));
  }
  // Mostly-overlapping block names across records: the per-extent string
  // pool's intended workload.
  size_t blocks = 1 + rng.NextBelow(6);
  for (size_t i = 0; i < blocks; ++i) {
    std::string name = StrFormat("app.block_%zu", rng.NextBelow(8));
    record.result.coverage.RegisterBlock(name, /*recovery=*/i % 2 == 0,
                                         /*lines=*/1 + rng.NextBelow(20));
    for (size_t hit = rng.NextBelow(4); hit > 0; --hit) {
      record.result.coverage.Hit(name);
    }
  }
  record.feedback.new_bug = !record.result.bugs.empty();
  record.feedback.injections = record.result.injections;
  record.feedback.fingerprint = record.result.fingerprint;
  if (rng.Chance(0.5)) {
    record.feedback.new_blocks.push_back("app.block_0");
  }
  return record;
}

void ExpectRecordsEqual(const std::vector<JournalRecord>& got,
                        const std::vector<JournalRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].label, want[i].label) << i;
    EXPECT_EQ(got[i].seed, want[i].seed) << i;
    EXPECT_EQ(got[i].gated, want[i].gated) << i;
    EXPECT_EQ(got[i].stream_index, want[i].stream_index) << i;
    EXPECT_TRUE(got[i].scenario == want[i].scenario) << i;
    EXPECT_EQ(got[i].result.fingerprint, want[i].result.fingerprint) << i;
    EXPECT_EQ(got[i].result.injections, want[i].result.injections) << i;
    EXPECT_TRUE(got[i].result.bugs == want[i].result.bugs) << i;
    EXPECT_TRUE(got[i].result.log == want[i].result.log) << i;
    EXPECT_EQ(got[i].result.coverage.hits(), want[i].result.coverage.hits()) << i;
    EXPECT_TRUE(got[i].feedback == want[i].feedback) << i;
  }
}

// Writes `records` into a finalized journal at `path` in `format`.
void WriteJournal(const std::string& path, const JournalMetadata& meta,
                  const std::vector<JournalRecord>& records, JournalFormat format) {
  std::remove(path.c_str());
  CampaignJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Create(path, meta, &error, format)) << error;
  for (const JournalRecord& record : records) {
    ASSERT_TRUE(journal.Append(record));
  }
  ASSERT_TRUE(journal.Finalize(&error)) << error;
}

// --- conversion round trips -------------------------------------------------

// The bit-equivalence contract: extent -> xml -> extent reproduces the exact
// input bytes, the xml leg byte-matches a live XML-mode write of the same
// records, and every field survives. Record counts straddle the 16-record
// extent boundary (0, 1, partial, exact, multi-extent).
TEST(ExtentJournal, ConvertRoundTripsByteIdentically) {
  Rng rng(2026);
  for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{16}, size_t{41}}) {
    SCOPED_TRACE(count);
    JournalMetadata meta = {{"command", "explore"}, {"system", "git"},
                           {"note", NastyString(rng)}};
    std::vector<JournalRecord> records;
    for (size_t i = 0; i < count; ++i) {
      records.push_back(RandomRecord(rng, i));
    }

    std::string extent_path = TempPath(StrFormat("ext_conv_%zu.lfij", count).c_str());
    std::string xml_path = TempPath(StrFormat("ext_conv_%zu.xml", count).c_str());
    std::string live_xml_path = TempPath(StrFormat("ext_conv_%zu_live.xml", count).c_str());
    std::string back_path = TempPath(StrFormat("ext_conv_%zu_back.lfij", count).c_str());
    std::remove(xml_path.c_str());
    std::remove(back_path.c_str());

    WriteJournal(extent_path, meta, records, JournalFormat::kExtent);
    ASSERT_TRUE(IsExtentJournal(ReadFile(extent_path)));

    // extent -> xml: defaults to the opposite encoding, and matches what a
    // live XML-mode run of the same records would have written.
    std::string error;
    size_t converted = 0;
    JournalFormat written = JournalFormat::kExtent;
    ASSERT_TRUE(ConvertJournal(extent_path, xml_path, std::nullopt, &error, &converted,
                               &written)) << error;
    EXPECT_EQ(converted, count);
    EXPECT_EQ(written, JournalFormat::kXml);
    WriteJournal(live_xml_path, meta, records, JournalFormat::kXml);
    EXPECT_EQ(ReadFile(xml_path), ReadFile(live_xml_path));

    // xml -> extent: bit-identical to the original.
    ASSERT_TRUE(ConvertJournal(xml_path, back_path, std::nullopt, &error)) << error;
    EXPECT_EQ(ReadFile(back_path), ReadFile(extent_path));

    // And both encodings load back to the same records and header.
    auto loaded = CampaignJournal::Load(extent_path, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(loaded->format(), JournalFormat::kExtent);
    EXPECT_EQ(loaded->metadata(), meta);
    ExpectRecordsEqual(loaded->records(), records);
    auto xml_loaded = CampaignJournal::Load(xml_path, &error);
    ASSERT_TRUE(xml_loaded.has_value()) << error;
    EXPECT_EQ(xml_loaded->format(), JournalFormat::kXml);
    EXPECT_EQ(xml_loaded->metadata(), meta);
    ExpectRecordsEqual(xml_loaded->records(), records);
  }
}

// Converting onto an existing file must refuse, not clobber the artifact.
TEST(ExtentJournal, ConvertRefusesToOverwrite) {
  Rng rng(3);
  std::string path = TempPath("ext_noclobber.lfij");
  WriteJournal(path, {{"command", "explore"}}, {RandomRecord(rng, 0)},
               JournalFormat::kExtent);
  std::string error;
  EXPECT_FALSE(ConvertJournal(path, path, std::nullopt, &error));
  EXPECT_FALSE(error.empty());
}

// --- torn-tail recovery -----------------------------------------------------

// Truncates a finalized multi-extent journal at EVERY byte offset: each
// prefix must either fail to parse (file-header bytes cut) or recover
// exactly the records of the extents that survived intact -- never garbage,
// never a partial extent. Only the untruncated file has a valid footer.
TEST(ExtentJournal, TruncationAtEveryByteRecoversWholeExtentsOnly) {
  Rng rng(17);
  JournalMetadata meta = {{"command", "explore"}, {"system", "git"}};
  std::vector<JournalRecord> records;
  for (size_t i = 0; i < 40; ++i) {  // 3 extents: 16 + 16 + 8
    records.push_back(RandomRecord(rng, i));
  }
  std::string path = TempPath("ext_torn.lfij");
  WriteJournal(path, meta, records, JournalFormat::kExtent);
  std::string bytes = ReadFile(path);

  auto full = ParseExtentJournal(bytes);
  ASSERT_TRUE(full.has_value());
  ASSERT_TRUE(full->footer_valid);
  ASSERT_EQ(full->extents.size(), 3u);

  // Cumulative record counts at each sealed-extent boundary.
  std::vector<size_t> boundary_counts = {0};
  std::vector<uint64_t> boundary_offsets = {full->extents[0].offset};
  size_t running = 0;
  for (const ExtentInfo& extent : full->extents) {
    running += extent.record_count;
    boundary_counts.push_back(running);
    boundary_offsets.push_back(extent.offset + kExtentHeaderBytes + extent.stored_size);
  }

  size_t header_end = static_cast<size_t>(full->extents[0].offset);
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    std::string error;
    auto torn = ParseExtentJournal(std::string_view(bytes).substr(0, cut), &error);
    if (cut < header_end) {
      EXPECT_FALSE(torn.has_value()) << "cut=" << cut;
      continue;
    }
    ASSERT_TRUE(torn.has_value()) << "cut=" << cut << ": " << error;
    // The recovered prefix is exactly the extents wholly inside the cut.
    size_t sealed = 0;
    while (sealed + 1 < boundary_offsets.size() && boundary_offsets[sealed + 1] <= cut) {
      ++sealed;
    }
    EXPECT_EQ(torn->records.size(), boundary_counts[sealed]) << "cut=" << cut;
    EXPECT_EQ(torn->extents.size(), sealed) << "cut=" << cut;
    EXPECT_EQ(torn->intact_bytes, boundary_offsets[sealed]) << "cut=" << cut;
    EXPECT_EQ(torn->footer_valid, cut == bytes.size()) << "cut=" << cut;
    EXPECT_EQ(torn->meta, meta);
  }
}

// Reopening a torn journal for append truncates the tail and continues the
// extent stream; re-appending the lost records and finalizing reproduces the
// uninterrupted file byte-for-byte (the resume bit-identity contract at the
// encoding level).
TEST(ExtentJournal, AppendAfterTornTailRegrowsBitIdentically) {
  Rng rng(23);
  JournalMetadata meta = {{"command", "explore"}, {"system", "git"}};
  std::vector<JournalRecord> records;
  for (size_t i = 0; i < 40; ++i) {
    records.push_back(RandomRecord(rng, i));
  }
  std::string full_path = TempPath("ext_regrow_full.lfij");
  WriteJournal(full_path, meta, records, JournalFormat::kExtent);
  std::string bytes = ReadFile(full_path);

  // A spread of cuts: mid first extent, exactly at a boundary, mid second
  // extent, mid footer, and mid trailer.
  Rng cut_rng(7);
  std::vector<size_t> cuts;
  auto full = ParseExtentJournal(bytes);
  ASSERT_TRUE(full.has_value());
  cuts.push_back(static_cast<size_t>(full->extents[0].offset) + 3);
  cuts.push_back(static_cast<size_t>(full->extents[1].offset));
  cuts.push_back(static_cast<size_t>(full->extents[1].offset) + kExtentHeaderBytes + 5);
  cuts.push_back(bytes.size() - kExtentTrailerBytes - 2);
  cuts.push_back(bytes.size() - 3);
  for (int i = 0; i < 5; ++i) {
    cuts.push_back(static_cast<size_t>(full->extents[0].offset) +
                   cut_rng.NextBelow(bytes.size() - full->extents[0].offset));
  }

  for (size_t cut : cuts) {
    SCOPED_TRACE(cut);
    std::string torn_path = TempPath(StrFormat("ext_regrow_%zu.lfij", cut).c_str());
    {
      std::ofstream out(torn_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    std::string error;
    auto torn = CampaignJournal::Load(torn_path, &error);
    ASSERT_TRUE(torn.has_value()) << error;
    size_t kept = torn->records().size();
    ASSERT_LE(kept, records.size());
    ASSERT_TRUE(torn->OpenAppend(torn_path, &error)) << error;
    for (size_t i = kept; i < records.size(); ++i) {
      ASSERT_TRUE(torn->Append(records[i]));
    }
    ASSERT_TRUE(torn->Finalize(&error)) << error;
    EXPECT_EQ(ReadFile(torn_path), bytes);
  }
}

// --- footer-index random access ---------------------------------------------

// Decoding each extent independently through its footer index entry must
// reproduce the full-scan record stream, and the index's stream-index ranges
// must bracket the records they point at.
TEST(ExtentJournal, FooterIndexRandomAccessEqualsFullScan) {
  Rng rng(31);
  JournalMetadata meta = {{"command", "explore"}, {"system", "pbft"}};
  std::vector<JournalRecord> records;
  for (size_t i = 0; i < 40; ++i) {
    records.push_back(RandomRecord(rng, i));
  }
  std::string path = TempPath("ext_index.lfij");
  WriteJournal(path, meta, records, JournalFormat::kExtent);
  std::string bytes = ReadFile(path);

  auto parsed = ParseExtentJournal(bytes);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->footer_valid);
  ExpectRecordsEqual(parsed->records, records);

  std::vector<JournalRecord> via_index;
  for (const ExtentInfo& extent : parsed->extents) {
    std::vector<JournalRecord> chunk;
    std::string error;
    ASSERT_TRUE(DecodeExtentRecords(bytes, extent, &chunk, &error)) << error;
    ASSERT_EQ(chunk.size(), extent.record_count);
    for (const JournalRecord& record : chunk) {
      if (record.stream_index != JournalRecord::kNoStreamIndex) {
        EXPECT_GE(record.stream_index, extent.first_index);
        EXPECT_LE(record.stream_index, extent.last_index);
      }
      via_index.push_back(record);
    }
  }
  ExpectRecordsEqual(via_index, parsed->records);

  // Corrupting one payload byte must fail that extent's CRC check, loudly.
  std::string corrupt = bytes;
  size_t flip = static_cast<size_t>(parsed->extents[1].offset) + kExtentHeaderBytes + 2;
  corrupt[flip] = static_cast<char>(corrupt[flip] ^ 0x40);
  std::vector<JournalRecord> chunk;
  std::string error;
  EXPECT_FALSE(DecodeExtentRecords(corrupt, parsed->extents[1], &chunk, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

// --- kill-and-resume in extent mode ------------------------------------------

// The driver-level determinism bar, rerun against the binary encoding: kill
// artifacts (byte-truncated extent journals) resumed at 1/2/8 workers must
// regrow bit-identically to the uninterrupted single-worker run.
TEST(ExtentJournal, KillAndResumeBitIdenticalAcrossWorkerCounts) {
  EnsureStockTriggersRegistered();
  std::string full_path = TempPath("ext_resume_full.lfij");
  std::remove(full_path.c_str());

  CampaignSpec spec;
  spec.system = "pbft";
  spec.mode = CampaignMode::kExplore;
  spec.strategy = ExploreStrategy::kRandom;
  spec.budget = 20;  // two extents: 16 + 4
  spec.seed = 3;
  spec.journal_path = full_path;
  std::string error;
  auto uninterrupted = CampaignDriver(spec).Run(&error);
  ASSERT_TRUE(uninterrupted.has_value()) << error;
  std::string full_bytes = ReadFile(full_path);
  ASSERT_TRUE(IsExtentJournal(full_bytes));

  auto parsed = ParseExtentJournal(full_bytes);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->extents.size(), 2u);

  // Cuts: before any extent sealed, mid second extent, and mid footer.
  std::vector<size_t> cuts = {
      static_cast<size_t>(parsed->extents[0].offset) + 7,
      static_cast<size_t>(parsed->extents[1].offset) + kExtentHeaderBytes + 1,
      full_bytes.size() - kExtentTrailerBytes - 1,
  };
  for (int workers : {1, 2, 8}) {
    for (size_t cut : cuts) {
      SCOPED_TRACE(StrFormat("workers=%d cut=%zu", workers, cut));
      std::string partial_path =
          TempPath(StrFormat("ext_resume_%d_%zu.lfij", workers, cut).c_str());
      {
        std::ofstream out(partial_path, std::ios::binary | std::ios::trunc);
        out.write(full_bytes.data(), static_cast<std::streamsize>(cut));
      }
      CampaignSpec resume_spec;
      resume_spec.mode = CampaignMode::kResume;
      resume_spec.journal_path = partial_path;
      resume_spec.workers = workers;
      auto resumed = CampaignDriver(resume_spec).Run(&error);
      ASSERT_TRUE(resumed.has_value()) << error;
      EXPECT_EQ(resumed->bugs, uninterrupted->bugs);
      EXPECT_EQ(resumed->coverage.hits(), uninterrupted->coverage.hits());
      EXPECT_EQ(resumed->scenarios_run, uninterrupted->scenarios_run);
      EXPECT_EQ(ReadFile(partial_path), full_bytes);
    }
  }
}

// --- the primitives ----------------------------------------------------------

TEST(BinaryIo, VarintAndZigZagRoundTrip) {
  Rng rng(5);
  ByteWriter writer;
  std::vector<uint64_t> unsigned_values = {0, 1, 127, 128, 16383, 16384,
                                           uint64_t(-1), uint64_t(-1) - 1};
  std::vector<int64_t> signed_values = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (int i = 0; i < 100; ++i) {
    unsigned_values.push_back(rng.Next() >> rng.NextBelow(64));
    signed_values.push_back(static_cast<int64_t>(rng.Next()));
  }
  for (uint64_t v : unsigned_values) {
    writer.PutVarint(v);
  }
  for (int64_t v : signed_values) {
    writer.PutSigned(v);
  }
  ByteReader reader(writer.buffer());
  for (uint64_t v : unsigned_values) {
    EXPECT_EQ(reader.GetVarint(), v);
  }
  for (int64_t v : signed_values) {
    EXPECT_EQ(reader.GetSigned(), v);
  }
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinaryIo, LzRoundTripsRandomBuffers) {
  Rng rng(9);
  std::vector<std::string> buffers = {"", "a", "abcabcabcabc"};
  for (int i = 0; i < 50; ++i) {
    std::string buffer;
    size_t length = rng.NextBelow(4096);
    while (buffer.size() < length) {
      if (rng.Chance(0.5) && !buffer.empty()) {
        // Repeat a previous slice: the compressible case.
        size_t start = rng.NextBelow(buffer.size());
        size_t run = 1 + rng.NextBelow(64);
        buffer.append(buffer.substr(start, run));
      } else {
        buffer.push_back(static_cast<char>(rng.NextBelow(256)));
      }
    }
    buffers.push_back(std::move(buffer));
  }
  for (const std::string& buffer : buffers) {
    std::string packed = LzCompress(buffer);
    auto unpacked = LzDecompress(packed, buffer.size());
    ASSERT_TRUE(unpacked.has_value());
    EXPECT_EQ(*unpacked, buffer);
    // Wrong raw_size must be rejected, not padded or truncated.
    if (!buffer.empty()) {
      EXPECT_FALSE(LzDecompress(packed, buffer.size() - 1).has_value());
    }
  }
}

}  // namespace
}  // namespace lfi
