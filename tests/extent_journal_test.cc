// The binary extent journal (core/extent_journal.h, docs/journal-format.md):
// property-style write -> load -> re-encode round trips over randomized
// journals, torn-tail truncation at every byte offset, footer-index random
// access vs the full scan, kill-and-resume bit-identity at several worker
// counts, the LZ/varint primitives the format builds on, and the standalone
// JobResult codec read as hostile input.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <fstream>
#include <string>
#include <tuple>
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
#include "util/sha1.h"
#include "util/string_util.h"

namespace lfi {
namespace {

// The same escaping edge cases journal_test.cc throws at the XML layer: the
// encoding must carry them through unchanged.
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
      decl.set_args(std::move(args));
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

// --- encoding round trips ---------------------------------------------------

// The bit-equivalence contract: write -> load returns every field of every
// record and the header, and re-encoding the loaded journal reproduces the
// exact input bytes. Record counts straddle the 16-record extent boundary
// (0, 1, partial, exact, multi-extent).
TEST(ExtentJournal, WriteLoadReencodeRoundTripsByteIdentically) {
  Rng rng(2026);
  for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{16}, size_t{41}}) {
    SCOPED_TRACE(count);
    JournalMetadata meta = {{"command", "explore"}, {"system", "git"},
                           {"note", NastyString(rng)}};
    std::vector<JournalRecord> records;
    for (size_t i = 0; i < count; ++i) {
      records.push_back(RandomRecord(rng, i));
    }

    std::string path = TempPath(StrFormat("ext_roundtrip_%zu.lfij", count).c_str());
    std::string again_path = TempPath(StrFormat("ext_roundtrip_%zu_again.lfij", count).c_str());
    WriteJournal(path, meta, records);
    ASSERT_TRUE(IsExtentJournal(ReadFile(path)));

    std::string error;
    auto loaded = CampaignJournal::Load(path, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_TRUE(loaded->sealed());
    EXPECT_EQ(loaded->metadata(), meta);
    ExpectRecordsEqual(loaded->records(), records);

    WriteJournal(again_path, loaded->metadata(), loaded->records());
    EXPECT_EQ(ReadFile(again_path), ReadFile(path));
  }
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
  WriteJournal(path, meta, records);
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
  WriteJournal(full_path, meta, records);
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
  WriteJournal(path, meta, records);
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

// --- encoder pins -------------------------------------------------------------

// A record's coverage encodes in block-name order, never in the process-wide
// block-id order, and a string is spelled once per extent whichever section
// (label, scenario, log, coverage, feedback) first uses it. The digests pin
// the bytes of journals built to stress both rules.

// Writes `records` and returns the SHA-1 of the journal bytes, after checking
// that loading and re-encoding reproduces them.
std::string PinnedJournalDigest(const std::string& name,
                                const std::vector<JournalRecord>& records) {
  JournalMetadata meta = {{"command", "explore"}, {"system", "git"}};
  std::string path = TempPath(name);
  WriteJournal(path, meta, records);
  std::string bytes = ReadFile(path);
  std::string error;
  auto loaded = CampaignJournal::Load(path, &error);
  EXPECT_TRUE(loaded.has_value()) << error;
  if (loaded) {
    ExpectRecordsEqual(loaded->records(), records);
    std::string again = TempPath("again_" + name);
    WriteJournal(again, loaded->metadata(), loaded->records());
    EXPECT_EQ(ReadFile(again), bytes);
    std::remove(again.c_str());
  }
  std::remove(path.c_str());
  return Sha1::HexDigest(bytes);
}

TEST(ExtentJournalPins, CoverageIdsInternedOutOfNameOrder) {
  // Names no other test interns, interned in reverse name order.
  for (const char* name : {"pin.order.zeta", "pin.order.mid", "pin.order.alpha"}) {
    CoverageMap::InternBlock(name);
  }
  ASSERT_LT(CoverageMap::InternBlock("pin.order.zeta"),
            CoverageMap::InternBlock("pin.order.alpha"));
  std::vector<JournalRecord> records;
  for (size_t i = 0; i < 3; ++i) {
    JournalRecord record;
    record.label = StrFormat("order-%zu", i);
    record.seed = 11 + i;
    record.stream_index = i;
    record.scenario = MakeCallCountScenario("read", i + 1, -1, kEIO);
    CoverageMap& coverage = record.result.coverage;
    coverage.RegisterBlock("pin.order.zeta", /*recovery=*/true, /*lines=*/3);
    coverage.RegisterBlock("pin.order.alpha", /*recovery=*/false, /*lines=*/1);
    coverage.Hit("pin.order.zeta");
    coverage.Hit("pin.order.zeta");
    for (size_t hit = 0; hit < i; ++hit) {
      coverage.Hit("pin.order.mid");  // auto-registers from the second record on
    }
    if (i == 2) {
      // Interned last, so its id is the largest; its name sorts second.
      coverage.RegisterBlock("pin.order.beta", /*recovery=*/true, /*lines=*/7);
    }
    record.feedback.new_blocks = {"pin.order.mid"};
    records.push_back(std::move(record));
  }
  EXPECT_EQ(PinnedJournalDigest("pin_order.lfij", records),
            "4499837fae345b659a22602e623ff7c815f4a6c2");
}

TEST(ExtentJournalPins, BlockNamesEqualToPooledStrings) {
  std::vector<JournalRecord> records;
  for (size_t i = 0; i < 2; ++i) {
    JournalRecord record;
    // The label, the scenario's function, a stack frame and the fingerprint
    // are pooled before the coverage section spells block names equal to
    // them; the second record's label is the first record's block name.
    record.label = i == 0 ? "pin.shared.label" : "pin.shared.block";
    record.seed = 5;
    record.stream_index = i;
    record.scenario = MakeCallCountScenario("pin.shared.fn", 2, 0, 0);
    record.result.fingerprint = "pin.shared.fingerprint";
    record.result.injections = 1;
    InjectionRecord injection;
    injection.sequence = 1;
    injection.function = "pin.shared.fn";
    injection.call_number = 2;
    injection.trigger_ids.push_back("nth");
    injection.stack.push_back(StackFrame{"pin.shared.module", "pin.shared.frame", 0x40});
    record.result.log.Record(std::move(injection));
    for (const char* name : {"pin.shared.label", "pin.shared.fn", "pin.shared.frame",
                             "pin.shared.fingerprint", "nth", "pin.shared.block"}) {
      record.result.coverage.RegisterBlock(name, /*recovery=*/i == 1, /*lines=*/2);
      record.result.coverage.Hit(name);
    }
    record.feedback.fingerprint = record.result.fingerprint;
    record.feedback.injections = 1;
    record.feedback.new_blocks = {"pin.shared.block", "pin.shared.label"};
    records.push_back(std::move(record));
  }
  EXPECT_EQ(PinnedJournalDigest("pin_shared.lfij", records),
            "4071e32301e141b31b0382819a3fe917cfeb8fda");
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

// --- standalone job results (the fork server's pipe) -------------------------

// Largest single operator-new request since the last reset: the hostile-input
// cases below assert the decoder never sizes an allocation from a forged
// count or length.
std::atomic<size_t> largest_allocation{0};

JobResult SampleResult(Rng& rng) {
  JournalRecord record;
  do {
    record = RandomRecord(rng, 0);
  } while (record.gated || record.result.log.empty());
  record.result.bugs.push_back(FoundBug{"pbft", "hang", "unresponsive", record.label});
  return std::move(record.result);
}

TEST(JobResultCodec, EveryFieldRoundTrips) {
  Rng rng(31);
  std::vector<JobResult> results = {JobResult{}};
  for (int i = 0; i < 40; ++i) {
    results.push_back(SampleResult(rng));
  }
  results.back().call_counts = CallCounts{{"fopen", 3}};
  for (const JobResult& want : results) {
    std::string bytes = EncodeJobResult(want);
    std::string error;
    std::optional<JobResult> got = DecodeJobResult(bytes, &error);
    ASSERT_TRUE(got.has_value()) << error;
    EXPECT_EQ(got->fingerprint, want.fingerprint);
    EXPECT_EQ(got->injections, want.injections);
    EXPECT_TRUE(got->bugs == want.bugs);
    EXPECT_TRUE(got->log == want.log);
    // Every known block with its registration metadata and hit count.
    EXPECT_EQ(got->coverage.ToXml(), want.coverage.ToXml());
    EXPECT_FALSE(got->call_counts.has_value());  // out of band, never encoded
    EXPECT_EQ(EncodeJobResult(*got), bytes);
  }
}

TEST(JobResultCodec, TruncatedOrExtendedInputIsRejected) {
  Rng rng(32);
  std::string bytes = EncodeJobResult(SampleResult(rng));
  for (size_t length = 0; length < bytes.size(); ++length) {
    std::string error;
    EXPECT_FALSE(DecodeJobResult(bytes.substr(0, length), &error).has_value()) << length;
    EXPECT_FALSE(error.empty()) << length;
  }
  EXPECT_FALSE(DecodeJobResult(bytes + '\0').has_value());
}

TEST(JobResultCodec, BitFlippedInputIsRejected) {
  Rng rng(33);
  std::string bytes = EncodeJobResult(SampleResult(rng));
  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[offset] = static_cast<char>(flipped[offset] ^ (1 << bit));
      std::string error;
      EXPECT_FALSE(DecodeJobResult(flipped, &error).has_value()) << offset << ":" << bit;
      EXPECT_FALSE(error.empty());
    }
  }
}

// Forged payloads carry a valid checksum, so the decoder itself must refuse
// them -- promptly, and without allocating for the counts they claim.
TEST(JobResultCodec, ForgedHugeVarintsAreRejectedWithoutAllocating) {
  auto seal = [](const ByteWriter& payload) {
    ByteWriter sealed;
    sealed.PutBytes(payload.buffer());
    sealed.PutU32(Crc32(payload.buffer()));
    return sealed.TakeBuffer();
  };
  const uint64_t huge = uint64_t{1} << 62;
  std::vector<std::string> forged;
  {
    ByteWriter w;  // a new fingerprint string 2^62 bytes long
    w.PutVarint(0);
    w.PutVarint(huge);
    forged.push_back(seal(w));
  }
  {
    ByteWriter w;  // a back-reference far past the (empty) string pool
    w.PutVarint(huge);
    forged.push_back(seal(w));
  }
  for (int field = 0; field < 3; ++field) {
    ByteWriter w;  // "" fingerprint, 0 injections, then 2^62 bugs, log records or blocks
    w.PutVarint(0);
    w.PutVarint(0);
    w.PutVarint(0);
    for (int before = 0; before < field; ++before) {
      w.PutVarint(0);
    }
    w.PutVarint(huge);
    forged.push_back(seal(w));
  }
  {
    ByteWriter w;  // an 11-byte varint: longer than any 64-bit value
    for (int i = 0; i < 11; ++i) {
      w.PutU8(0xff);
    }
    forged.push_back(seal(w));
  }
  for (const std::string& bytes : forged) {
    largest_allocation = 0;
    std::string error;
    EXPECT_FALSE(DecodeJobResult(bytes, &error).has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_LT(largest_allocation.load(), size_t{1} << 20) << error;
  }
}

// --- standalone job lists (the shard supervisor's pipe) ---------------------

std::vector<CampaignJob> SampleJobs(Rng& rng, size_t count) {
  std::vector<CampaignJob> jobs;
  for (size_t i = 0; i < count; ++i) {
    CampaignJob job;
    job.scenario = RandomScenario(rng);
    job.label = StrFormat("job-%zu ", i) + NastyString(rng);
    job.seed = rng.Next();
    job.stream_index = rng.Chance(0.8) ? rng.NextBelow(1000) : CampaignJob::kNoStreamIndex;
    job.skip_when_saturated = rng.Chance(0.5);
    job.count_calls = rng.Chance(0.5);
    job.second_phase = rng.Chance(0.5);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(CampaignJobsCodec, EveryFieldRoundTrips) {
  Rng rng(41);
  for (size_t count : {size_t{0}, size_t{1}, size_t{9}}) {
    SCOPED_TRACE(count);
    std::vector<CampaignJob> jobs = SampleJobs(rng, count);
    const std::string bytes = EncodeCampaignJobs(jobs);
    std::string error;
    std::optional<std::vector<CampaignJob>> got = DecodeCampaignJobs(bytes, &error);
    ASSERT_TRUE(got.has_value()) << error;
    ASSERT_EQ(got->size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
      const CampaignJob& want = jobs[i];
      const CampaignJob& job = (*got)[i];
      EXPECT_EQ(job.label, want.label) << i;
      EXPECT_EQ(job.seed, want.seed) << i;
      EXPECT_EQ(job.stream_index, want.stream_index) << i;
      EXPECT_EQ(job.skip_when_saturated, want.skip_when_saturated) << i;
      EXPECT_EQ(job.count_calls, want.count_calls) << i;
      EXPECT_EQ(job.second_phase, want.second_phase) << i;
      EXPECT_EQ(job.scenario.ToXml(), want.scenario.ToXml()) << i;
    }
    EXPECT_EQ(EncodeCampaignJobs(*got), bytes);
  }
}

// A second-phase job is data like any other: its flag crosses the wire
// beside every other field set, and each flag keeps its own bit.
TEST(CampaignJobsCodec, SecondPhaseFlagRoundTripsBesideEveryField) {
  Rng rng(42);
  for (bool second_phase : {false, true}) {
    SCOPED_TRACE(second_phase);
    CampaignJob job = SampleJobs(rng, 1).front();
    job.stream_index = 17;
    job.skip_when_saturated = true;
    job.count_calls = true;
    job.second_phase = second_phase;
    std::string error;
    std::optional<std::vector<CampaignJob>> got =
        DecodeCampaignJobs(EncodeCampaignJobs({job}), &error);
    ASSERT_TRUE(got.has_value()) << error;
    ASSERT_EQ(got->size(), 1u);
    const CampaignJob& decoded = got->front();
    EXPECT_EQ(decoded.label, job.label);
    EXPECT_EQ(decoded.seed, job.seed);
    EXPECT_EQ(decoded.stream_index, 17u);
    EXPECT_TRUE(decoded.skip_when_saturated);
    EXPECT_TRUE(decoded.count_calls);
    EXPECT_EQ(decoded.second_phase, second_phase);
    EXPECT_EQ(decoded.scenario.ToXml(), job.scenario.ToXml());
  }
}

// Hostile input, seeded: every prefix, every single-bit flip, then random
// mutations resealed with a valid checksum (so they reach the decoder
// itself) and forged huge counts and lengths. Each ends in a clean error or
// a well-formed list -- never a crash -- and no input makes the decoder
// allocate 1 MiB.
TEST(CampaignJobsCodec, HostileInputEndsInACleanError) {
  Rng rng(43);
  const std::string bytes = EncodeCampaignJobs(SampleJobs(rng, 5));
  auto expect_refused = [](const std::string& input, const std::string& what) {
    largest_allocation = 0;
    std::string error;
    EXPECT_FALSE(DecodeCampaignJobs(input, &error).has_value()) << what;
    EXPECT_FALSE(error.empty()) << what;
    EXPECT_LT(largest_allocation.load(), size_t{1} << 20) << what;
  };
  for (size_t length = 0; length < bytes.size(); ++length) {
    expect_refused(bytes.substr(0, length), StrFormat("truncated at %zu", length));
  }
  expect_refused(bytes + '\0', "extended");
  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[offset] = static_cast<char>(flipped[offset] ^ (1 << bit));
      expect_refused(flipped, StrFormat("bit %d of byte %zu", bit, offset));
    }
  }

  auto seal = [](std::string_view payload) {
    ByteWriter sealed;
    sealed.PutBytes(payload);
    sealed.PutU32(Crc32(payload));
    return sealed.TakeBuffer();
  };
  const std::string payload = bytes.substr(0, bytes.size() - 4);
  for (int round = 0; round < 4000; ++round) {
    std::string mutated = payload;
    size_t at = rng.NextBelow(mutated.size());
    switch (rng.NextBelow(4)) {
      case 0:  // overwrite a byte
        mutated[at] = static_cast<char>(rng.NextBelow(256));
        break;
      case 1:  // cut the tail
        mutated.resize(at);
        break;
      case 2: {  // a forged varint, up to 2^63, spliced in
        ByteWriter forged;
        forged.PutVarint(rng.Next() >> rng.NextBelow(64));
        mutated.insert(at, forged.buffer());
        break;
      }
      default: {  // duplicate a slice
        size_t length = rng.NextBelow(mutated.size() - at + 1);
        mutated.insert(at, mutated.substr(at, length));
        break;
      }
    }
    largest_allocation = 0;
    std::string error;
    std::optional<std::vector<CampaignJob>> got = DecodeCampaignJobs(seal(mutated), &error);
    EXPECT_TRUE(got.has_value() || !error.empty()) << round;
    EXPECT_LT(largest_allocation.load(), size_t{1} << 20) << round << ": " << error;
  }

  const uint64_t huge = uint64_t{1} << 62;
  {
    ByteWriter w;  // 2^62 jobs, none present
    w.PutVarint(huge);
    expect_refused(seal(w.buffer()), "forged job count");
  }
  {
    ByteWriter w;  // one job whose label claims 2^62 bytes
    w.PutVarint(1);
    w.PutVarint(0);
    w.PutVarint(huge);
    expect_refused(seal(w.buffer()), "forged label length");
  }
  {
    ByteWriter w;  // one job whose scenario claims 2^62 triggers
    w.PutVarint(1);
    w.PutVarint(0);
    w.PutVarint(0);  // "" label
    w.PutVarint(1);  // seed
    w.PutVarint(0);  // no stream index
    w.PutU8(0);
    w.PutVarint(huge);
    expect_refused(seal(w.buffer()), "forged trigger count");
  }
  {
    ByteWriter w;  // unknown flag bits
    w.PutVarint(1);
    w.PutVarint(0);
    w.PutVarint(0);
    w.PutVarint(1);
    w.PutVarint(0);
    w.PutU8(0x80);
    w.PutVarint(0);
    w.PutVarint(0);
    expect_refused(seal(w.buffer()), "unknown flags");
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

// LZ output is part of the journal format (extents are stored compressed):
// a fixed corpus -- random bytes, runs, and repeats of earlier slices, from
// empty to 64 KiB -- must compress to the same bytes on every build.
std::vector<std::string> LzCorpus() {
  Rng rng(4242);
  std::vector<std::string> corpus = {"", "a", "abcd", "abcdabcdabcdabcdabcd",
                                     std::string(1000, 'x')};
  for (int i = 0; i < 60; ++i) {
    std::string buffer;
    size_t length = i % 10 == 0 ? rng.NextBelow(size_t{1} << 16) : rng.NextBelow(2048);
    while (buffer.size() < length) {
      if (rng.Chance(0.6) && !buffer.empty()) {
        size_t start = rng.NextBelow(buffer.size());
        buffer.append(buffer.substr(start, 1 + rng.NextBelow(200)));
      } else if (rng.Chance(0.2)) {
        buffer.append(1 + rng.NextBelow(40), static_cast<char>(rng.NextBelow(4)));
      } else {
        buffer.push_back(static_cast<char>(rng.NextBelow(256)));
      }
    }
    buffer.resize(length);
    corpus.push_back(std::move(buffer));
  }
  return corpus;
}

constexpr const char* kLzCorpusDigest = "f0be961f7a1c2665fd331fea5408f867bf523846";

TEST(BinaryIo, LzCompressOutputIsPinned) {
  Sha1 sha;
  for (const std::string& buffer : LzCorpus()) {
    std::string packed = LzCompress(buffer);
    sha.Update(StrFormat("%zu:", packed.size()));
    sha.Update(packed);
  }
  EXPECT_EQ(Sha1::ToHex(sha.Finish()), kLzCorpusDigest);
}

// A journal writer compresses every extent through one LzCompressor, whose
// match table keeps the earlier calls' entries: they must never match. Two
// passes over the corpus on one compressor give the pinned bytes both times.
TEST(BinaryIo, ReusedLzCompressorMatchesFreshTables) {
  std::vector<std::string> corpus = LzCorpus();
  LzCompressor compressor;
  for (int pass = 0; pass < 2; ++pass) {
    Sha1 sha;
    for (const std::string& buffer : corpus) {
      std::string packed = compressor.Compress(buffer);
      sha.Update(StrFormat("%zu:", packed.size()));
      sha.Update(packed);
    }
    EXPECT_EQ(Sha1::ToHex(sha.Finish()), kLzCorpusDigest) << "pass " << pass;
  }
}

}  // namespace
}  // namespace lfi

// Records the largest request for JobResultCodec's allocation bound; every
// other operator new/delete form forwards here. Out of line, so the compiler
// never pairs a new-expression with the free() inside.
[[gnu::noinline]] void* operator new(size_t size) {
  size_t seen = lfi::largest_allocation.load(std::memory_order_relaxed);
  while (size > seen &&
         !lfi::largest_allocation.compare_exchange_weak(seen, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept { std::free(p); }
