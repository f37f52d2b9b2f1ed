// Journal inspection (apps/common/journal_inspect.h): the `journal dump`
// rendering pinned byte for byte and the extent encoding's size against it
// (at least 5x smaller), the `journal info` totals and per-epoch
// breakdown with its stream-index/epoch invariant walk, and `journal doctor`
// on torn and unsealed journals, invariant violations, unknown systems, and
// orphaned sibling artifacts laid out with the CampaignSpec path helpers.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apps/common/campaign_spec.h"
#include "apps/common/journal_inspect.h"
#include "campaign_test_util.h"
#include "core/extent_journal.h"
#include "core/journal.h"
#include "util/errno_codes.h"
#include "util/string_util.h"

namespace lfi {
namespace {

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

Scenario ReadFaultScenario() {
  Scenario scenario;
  scenario.AddTrigger(TriggerDecl{"t0", "CallCountTrigger", nullptr});
  FunctionAssoc assoc;
  assoc.function = "read";
  assoc.argc = 3;
  assoc.retval = -1;
  assoc.errno_value = kEIO;
  assoc.triggers.push_back(TriggerRef{"t0"});
  scenario.AddFunction(std::move(assoc));
  return scenario;
}

// A record with one injection, one bug and one covered block, labelled and
// placed at `stream_index` in `epoch`.
JournalRecord BugRecord(size_t stream_index, size_t epoch, const std::string& where,
                        const std::string& block) {
  JournalRecord record;
  record.label = StrFormat("job-%zu", stream_index);
  record.seed = 5 + stream_index;
  record.stream_index = stream_index;
  record.epoch = epoch;
  record.scenario = ReadFaultScenario();
  record.result.fingerprint = "read#1";
  record.result.injections = 1;
  record.result.bugs.push_back(FoundBug{"git", "SIGSEGV", where, "read=-1@read_object"});
  InjectionRecord injection;
  injection.sequence = 1;
  injection.function = "read";
  injection.retval = -1;
  injection.errno_value = kEIO;
  injection.trigger_ids = {"t0"};
  injection.call_number = 1;
  injection.stack.push_back(StackFrame{"git", "read_object", 0x10});
  record.result.log.Record(std::move(injection));
  record.result.coverage.RegisterBlock(block, /*recovery=*/true, /*lines=*/2);
  record.result.coverage.Hit(block);
  record.feedback.new_bug = true;
  record.feedback.injections = 1;
  record.feedback.fingerprint = "read#1";
  record.feedback.new_blocks = {block};
  return record;
}

JournalRecord GatedRecord(size_t stream_index, size_t epoch) {
  JournalRecord record;
  record.label = StrFormat("job-%zu", stream_index);
  record.seed = 5 + stream_index;
  record.stream_index = stream_index;
  record.epoch = epoch;
  record.gated = true;
  record.scenario = ReadFaultScenario();
  return record;
}

// --- journal dump -----------------------------------------------------------

// The rendering is the XML the retired XML encoding wrote for the same
// journal: the header element with one <meta> per key, then each record.
TEST(JournalDump, RendersHeaderAndRecordsAsXml) {
  std::string path = TempPath("inspect_dump.lfij");
  WriteJournal(path, {{"command", "explore"}, {"system", "git"}},
               {BugRecord(0, kNoEpoch, "read_object", "git.recover"),
                GatedRecord(1, kNoEpoch)});
  std::string error;
  auto dump = DumpJournal(path, &error);
  ASSERT_TRUE(dump.has_value()) << error;
  EXPECT_EQ(*dump,
            "<journal version=\"1\">\n"
            "  <meta key=\"command\" value=\"explore\" />\n"
            "  <meta key=\"system\" value=\"git\" />\n"
            "</journal>\n"
            "<record label=\"job-0\" seed=\"0x5\" index=\"0\">\n"
            "  <scenario>\n"
            "    <trigger id=\"t0\" class=\"CallCountTrigger\" />\n"
            "    <function name=\"read\" argc=\"3\" return=\"-1\" errno=\"EIO\">\n"
            "      <reftrigger ref=\"t0\" />\n"
            "    </function>\n"
            "  </scenario>\n"
            "  <result fingerprint=\"read#1\" injections=\"1\">\n"
            "    <bug system=\"git\" kind=\"SIGSEGV\" where=\"read_object\" "
            "injected=\"read=-1@read_object\" />\n"
            "    <log>\n"
            "      <injection sequence=\"1\" function=\"read\" retval=\"-1\" errno=\"EIO\" "
            "call=\"1\">\n"
            "        <trigger id=\"t0\" />\n"
            "        <frame module=\"git\" function=\"read_object\" offset=\"0x10\" />\n"
            "      </injection>\n"
            "    </log>\n"
            "    <coverage>\n"
            "      <block id=\"git.recover\" recovery=\"true\" lines=\"2\" hits=\"1\" />\n"
            "    </coverage>\n"
            "  </result>\n"
            "  <feedback new-bug=\"true\" injections=\"1\" fingerprint=\"read#1\">\n"
            "    <newblock id=\"git.recover\" />\n"
            "  </feedback>\n"
            "</record>\n"
            "<record label=\"job-1\" seed=\"0x6\" index=\"1\" gated=\"true\">\n"
            "  <scenario>\n"
            "    <trigger id=\"t0\" class=\"CallCountTrigger\" />\n"
            "    <function name=\"read\" argc=\"3\" return=\"-1\" errno=\"EIO\">\n"
            "      <reftrigger ref=\"t0\" />\n"
            "    </function>\n"
            "  </scenario>\n"
            "</record>\n");
}

// The extent encoding's size bar: a real pbft random explore's records,
// tiled and renumbered into a 1,000-record journal (the random scenario
// space saturates at a few hundred uniques; bigger campaigns are this shape
// repeated), take at least 5x fewer bytes per record than the dump's XML,
// and the journal loads back whole.
TEST(JournalDump, ExtentJournalIsFiveTimesSmallerThanItsXmlDump) {
  constexpr size_t kRecords = 1000;
  std::string campaign_path = TempPath("inspect_size_campaign.lfij");
  std::string tiled_path = TempPath("inspect_size_tiled.lfij");
  std::remove(campaign_path.c_str());
  RunSpec({.system = "pbft", .strategy = ExploreStrategy::kRandom, .budget = kRecords,
           .seed = 5, .journal_path = campaign_path});
  std::string error;
  auto campaign = CampaignJournal::Load(campaign_path, &error);
  ASSERT_TRUE(campaign.has_value()) << error;
  ASSERT_FALSE(campaign->records().empty());

  std::vector<JournalRecord> tiled;
  for (size_t i = 0; i < kRecords; ++i) {
    tiled.push_back(campaign->records()[i % campaign->records().size()]);
    tiled.back().stream_index = i;
  }
  WriteJournal(tiled_path, campaign->metadata(), tiled);
  auto dump = DumpJournal(tiled_path, &error);
  ASSERT_TRUE(dump.has_value()) << error;
  size_t extent_bytes = ReadFile(tiled_path).size();
  EXPECT_GE(dump->size(), 5 * extent_bytes) << "extent " << extent_bytes << " B, dump "
                                            << dump->size() << " B";

  auto loaded = CampaignJournal::Load(tiled_path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->records().size(), kRecords);
}

// --- journal info -----------------------------------------------------------

TEST(JournalInfo, SumsRecordsAndBreaksEpochsDown) {
  std::string path = TempPath("inspect_info.lfij");
  WriteJournal(path, {{"command", "explore"}, {"system", "git"}},
               {BugRecord(0, 0, "a", "git.r0"), GatedRecord(1, 0),
                BugRecord(2, 1, "a", "git.r0"), BugRecord(3, 1, "b", "git.r1")});
  std::string error;
  auto info = InspectJournal(path, &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_EQ(info->violation, "");
  EXPECT_EQ(info->records, 4u);
  EXPECT_EQ(info->gated, 1u);
  EXPECT_EQ(info->injections, 3u);
  ASSERT_EQ(info->bugs.size(), 2u);
  EXPECT_EQ(info->bugs[0].where, "a");
  EXPECT_EQ(info->bugs[1].where, "b");
  EXPECT_EQ(info->coverage.ComputeStats().covered_recovery_blocks, 2u);
  ASSERT_EQ(info->epochs.size(), 2u);
  EXPECT_EQ(info->epochs[0].epoch, 0u);
  EXPECT_EQ(info->epochs[0].records, 2u);
  EXPECT_EQ(info->epochs[0].gated, 1u);
  EXPECT_EQ(info->epochs[0].new_bugs, 1u);
  EXPECT_EQ(info->epochs[0].new_recovery_blocks, 1u);
  EXPECT_EQ(info->epochs[1].epoch, 1u);
  EXPECT_EQ(info->epochs[1].records, 2u);
  EXPECT_EQ(info->epochs[1].new_bugs, 1u);  // "a" was first seen in epoch 0
  EXPECT_EQ(info->epochs[1].new_recovery_blocks, 1u);
}

// Each way a merged journal can break the epoch wire invariants is caught,
// naming the first offending record; the doctor reports it as an
// unrepairable invariant violation (exit 4) and --repair leaves the journal
// alone.
TEST(JournalInfo, EpochInvariantViolationsAreCaught) {
  struct Case {
    const char* name;
    std::vector<JournalRecord> records;
    const char* violation;
  };
  const Case cases[] = {
      {"stream index repeats",
       {BugRecord(0, 0, "a", "x"), BugRecord(1, 0, "a", "x"), BugRecord(1, 1, "a", "x")},
       "record 2 stream index 1 does not advance past 1 (overlapping or reordered shard "
       "records)"},
      {"epoch regresses",
       {BugRecord(0, 1, "a", "x"), BugRecord(1, 0, "a", "x")},
       "record 1 regresses to epoch 0 after epoch 1"},
      {"epoch stamp disappears",
       {BugRecord(0, 0, "a", "x"), BugRecord(1, kNoEpoch, "a", "x")},
       "record 1 has no epoch after epoch-stamped records"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string path = TempPath("inspect_violation.lfij");
    WriteJournal(path, {{"command", "explore"}, {"system", "git"}}, c.records);
    std::string error;
    auto info = InspectJournal(path, &error);
    ASSERT_TRUE(info.has_value()) << error;
    EXPECT_EQ(info->violation, c.violation);

    std::string bytes = ReadFile(path);
    for (bool repair : {false, true}) {
      auto report = DiagnoseJournal(path, repair, &error);
      ASSERT_TRUE(report.has_value()) << error;
      EXPECT_EQ(report->violation, c.violation);
      EXPECT_TRUE(report->invariant_violation);
      ASSERT_EQ(report->issues.size(), 1u);
      EXPECT_EQ(report->issues[0].kind, "invariant-violation");
      EXPECT_FALSE(report->issues[0].repaired);
      EXPECT_EQ(report->ExitCode(), 4);
    }
    EXPECT_EQ(ReadFile(path), bytes);
  }
}

// --- journal doctor ---------------------------------------------------------

// A kill leaves a journal without its footer -- cut mid-extent (a torn
// tail) or exactly at an extent boundary (unsealed only). The doctor
// reports both as repairable (exit 3); --repair truncates and reseals, after
// which the journal is healthy, keeps every sealed record, and equals a
// journal freshly written with those records.
TEST(JournalDoctor, RepairsTornAndUnsealedJournals) {
  JournalMetadata meta = {{"command", "explore"}, {"system", "git"}};
  std::vector<JournalRecord> records;
  for (size_t i = 0; i < 20; ++i) {  // two extents: 16 + 4
    records.push_back(BugRecord(i, kNoEpoch, StrFormat("w%zu", i % 3), "git.r"));
  }
  std::string full_path = TempPath("inspect_doctor_full.lfij");
  WriteJournal(full_path, meta, records);
  std::string bytes = ReadFile(full_path);
  auto parsed = ParseExtentJournal(bytes);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->extents.size(), 2u);
  size_t boundary = static_cast<size_t>(parsed->extents[1].offset);

  std::string sixteen_path = TempPath("inspect_doctor_16.lfij");
  WriteJournal(sixteen_path, meta, std::vector<JournalRecord>(records.begin(),
                                                              records.begin() + 16));
  std::string error;
  auto healthy = DiagnoseJournal(full_path, /*repair=*/false, &error);
  ASSERT_TRUE(healthy.has_value()) << error;
  EXPECT_TRUE(healthy->healthy());
  EXPECT_TRUE(healthy->sealed);
  EXPECT_EQ(healthy->ExitCode(), 0);

  struct Cut {
    const char* name;
    size_t at;
    std::vector<std::string> kinds;
  };
  const Cut cuts[] = {
      {"mid-extent", boundary + kExtentHeaderBytes + 3, {"torn-tail", "stale-footer"}},
      {"extent boundary", boundary, {"stale-footer"}},
  };
  for (const Cut& cut : cuts) {
    SCOPED_TRACE(cut.name);
    std::string path = TempPath("inspect_doctor_cut.lfij");
    WriteBytes(path, bytes.substr(0, cut.at));

    auto report = DiagnoseJournal(path, /*repair=*/false, &error);
    ASSERT_TRUE(report.has_value()) << error;
    EXPECT_FALSE(report->sealed);
    EXPECT_EQ(report->records, 16u);
    EXPECT_EQ(report->intact_bytes, boundary);
    EXPECT_EQ(report->file_bytes, cut.at);
    std::vector<std::string> kinds;
    for (const DoctorIssue& issue : report->issues) {
      kinds.push_back(issue.kind);
      EXPECT_TRUE(issue.repairable);
      EXPECT_FALSE(issue.repaired);
    }
    EXPECT_EQ(kinds, cut.kinds);
    EXPECT_EQ(report->ExitCode(), 3);
    EXPECT_EQ(ReadFile(path), bytes.substr(0, cut.at));  // diagnosis alone writes nothing

    auto repaired = DiagnoseJournal(path, /*repair=*/true, &error);
    ASSERT_TRUE(repaired.has_value()) << error;
    EXPECT_EQ(repaired->repaired, cut.kinds.size());
    for (const DoctorIssue& issue : repaired->issues) {
      EXPECT_TRUE(issue.repaired);
    }
    EXPECT_EQ(repaired->ExitCode(), 0);

    auto after = DiagnoseJournal(path, /*repair=*/false, &error);
    ASSERT_TRUE(after.has_value()) << error;
    EXPECT_TRUE(after->healthy());
    EXPECT_TRUE(after->sealed);
    EXPECT_EQ(after->records, 16u);
    EXPECT_EQ(ReadFile(path), ReadFile(sixteen_path));
  }
}

// The artifacts a sharded or epoch campaign leaves next to its merged
// journal, laid out with the same CampaignSpec helpers the orchestrator
// names them with, are orphans once the journal is finalized.
// Scans stop at the first gap, so a stray high-numbered shard and unrelated
// files are never touched. --repair removes exactly the reported orphans.
TEST(JournalDoctor, FindsAndRemovesOrphansNamedByTheSpecHelpers) {
  CampaignSpec spec;
  spec.journal_path = TempPath("inspect_orphans.lfij");
  WriteJournal(spec.journal_path, {{"command", "explore"}, {"system", "pbft"}},
               {BugRecord(0, kNoEpoch, "a", "x")});
  const std::vector<std::string> orphans = {
      spec.ShardJournalPath(0),
      spec.ShardJournalPath(1),
      spec.EpochFrontierPath(0),
      spec.EpochShardJournalPath(0, 0),
      spec.EpochShardJournalPath(0, 1),
      spec.EpochFrontierPath(1) + ".tmp",
  };
  const std::vector<std::string> kept = {
      spec.ShardJournalPath(5),           // after a gap in the shard numbering
      spec.EpochShardJournalPath(3, 0),   // after a gap in the epoch numbering
      spec.journal_path + ".bak",         // not a campaign artifact the merge consumes
      spec.journal_path + ".tmp",         // no campaign writes a journal through a tmp file
      spec.EpochShardJournalPath(1, 0) + ".tmp",
  };
  for (const std::string& path : orphans) {
    WriteBytes(path, "x");
  }
  for (const std::string& path : kept) {
    WriteBytes(path, "x");
  }

  std::string error;
  auto report = DiagnoseJournal(spec.journal_path, /*repair=*/false, &error);
  ASSERT_TRUE(report.has_value()) << error;
  ASSERT_EQ(report->issues.size(), 1u);
  std::string detail = StrFormat("%zu stale sibling artifact(s):", orphans.size());
  for (const std::string& path : orphans) {
    detail += " " + path;
  }
  EXPECT_EQ(report->issues[0].kind, "orphaned-artifacts");
  EXPECT_EQ(report->issues[0].detail, detail);
  EXPECT_EQ(report->ExitCode(), 3);

  auto repaired = DiagnoseJournal(spec.journal_path, /*repair=*/true, &error);
  ASSERT_TRUE(repaired.has_value()) << error;
  EXPECT_EQ(repaired->ExitCode(), 0);
  for (const std::string& path : orphans) {
    EXPECT_FALSE(std::ifstream(path).good()) << path;
  }
  for (const std::string& path : kept) {
    EXPECT_TRUE(std::ifstream(path).good()) << path;
    std::remove(path.c_str());
  }
  auto after = DiagnoseJournal(spec.journal_path, /*repair=*/false, &error);
  ASSERT_TRUE(after.has_value()) << error;
  EXPECT_TRUE(after->healthy());
}

// A torn journal's siblings may still be needed to finish recovering it, so
// plain diagnosis leaves them out; a campaign identity naming a system this
// build cannot re-run is an unrepairable violation.
TEST(JournalDoctor, SparesSiblingsOfTornJournalsAndRejectsUnknownSystems) {
  CampaignSpec spec;
  spec.journal_path = TempPath("inspect_torn_siblings.lfij");
  WriteJournal(spec.journal_path, {{"command", "explore"}, {"system", "pbft"}},
               {BugRecord(0, kNoEpoch, "a", "x")});
  std::string bytes = ReadFile(spec.journal_path);
  WriteBytes(spec.journal_path, bytes.substr(0, bytes.size() - 1));  // footer torn
  WriteBytes(spec.ShardJournalPath(0), "x");
  std::string error;
  auto report = DiagnoseJournal(spec.journal_path, /*repair=*/false, &error);
  ASSERT_TRUE(report.has_value()) << error;
  ASSERT_EQ(report->issues.size(), 2u);
  EXPECT_EQ(report->issues[0].kind, "torn-tail");
  EXPECT_EQ(report->issues[1].kind, "stale-footer");
  EXPECT_TRUE(std::ifstream(spec.ShardJournalPath(0)).good());
  std::remove(spec.ShardJournalPath(0).c_str());

  std::string zfs_path = TempPath("inspect_zfs.lfij");
  WriteJournal(zfs_path, {{"command", "explore"}, {"system", "zfs"}}, {});
  auto zfs = DiagnoseJournal(zfs_path, /*repair=*/true, &error);
  ASSERT_TRUE(zfs.has_value()) << error;
  ASSERT_EQ(zfs->issues.size(), 1u);
  EXPECT_EQ(zfs->issues[0].kind, "unknown-system");
  EXPECT_FALSE(zfs->issues[0].repairable);
  EXPECT_EQ(zfs->violation, "");
  EXPECT_EQ(zfs->ExitCode(), 4);
}

}  // namespace
}  // namespace lfi
