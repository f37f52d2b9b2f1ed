// The persistent campaign journal: XML round trips for the artifacts that
// are still read back from XML (scenarios, fault profiles), journal file
// append/load semantics, loud rejection of anything that is not an extent
// journal, the kill-and-resume determinism contract, and disk-only replay of
// journaled injections.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "apps/common/campaign_spec.h"
#include "apps/common/journal_inspect.h"
#include "apps/common/warm_targets.h"
#include "campaign_test_util.h"
#include "core/campaign_engine.h"
#include "core/exploration.h"
#include "core/injection_log.h"
#include "core/journal.h"
#include "core/scenario.h"
#include "core/stock_triggers.h"
#include "coverage/coverage.h"
#include "profiler/fault_profile.h"
#include "util/errno_codes.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace lfi {
namespace {

// Strings exercising every attribute-escaping edge the XML layer must
// survive: the five predefined entities, control characters, and the comma
// that used to make trigger-id lists ambiguous.
const char* const kNastyStrings[] = {
    "plain",          "with space",       "quo\"te",        "apos'trophe",
    "amp&ersand",     "less<than",        "greater>than",   "comma,separated",
    "new\nline",      "tab\tchar",        "ctrl\x01char",   "mixed<&\"'\x02>end",
};

std::string NastyString(Rng& rng) {
  return kNastyStrings[rng.NextBelow(std::size(kNastyStrings))];
}

const int kErrnoPool[] = {0, kEIO, kENOMEM, kEINTR, 7, 123};  // named + fallback-coded

// The journaled coverage-guided pbft exploration most tests below run.
CampaignSpec PbftCoverageSpec(const std::string& journal, size_t budget = 12) {
  return {.system = "pbft",
          .strategy = ExploreStrategy::kCoverage,
          .budget = budget,
          .seed = 3,
          .journal_path = journal};
}

// --- property-style XML round trips ----------------------------------------

Scenario RandomScenario(Rng& rng) {
  Scenario scenario;
  size_t triggers = 1 + rng.NextBelow(3);
  for (size_t i = 0; i < triggers; ++i) {
    TriggerDecl decl;
    decl.id = NastyString(rng) + StrFormat("-%zu", i);  // unique per scenario
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

TEST(XmlRoundTrip, RandomScenariosParseBackEqual) {
  Rng rng(2026);
  for (int iteration = 0; iteration < 100; ++iteration) {
    Scenario scenario = RandomScenario(rng);
    std::string xml = scenario.ToXml();
    std::string error;
    auto parsed = Scenario::Parse(xml, &error);
    ASSERT_TRUE(parsed.has_value()) << error << "\n" << xml;
    EXPECT_TRUE(*parsed == scenario) << xml;
    // Serialization is canonical: a second trip is byte-stable.
    EXPECT_EQ(parsed->ToXml(), xml);
  }
}

TEST(XmlRoundTrip, RandomFaultProfilesParseBackEqual) {
  Rng rng(42);
  for (int iteration = 0; iteration < 100; ++iteration) {
    FaultProfile profile(NastyString(rng));
    size_t functions = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < functions; ++i) {
      FunctionProfile fn;
      fn.name = rng.Chance(0.3) ? NastyString(rng) + StrFormat("%zu", i)
                                : StrFormat("fn_%zu", i);
      size_t errors = rng.NextBelow(3);
      for (size_t e = 0; e < errors; ++e) {
        ErrorSpec spec;
        spec.retval = rng.NextInRange(-100, 0);
        size_t errnos = rng.NextBelow(3);
        for (size_t n = 0; n < errnos; ++n) {
          int value = kErrnoPool[1 + rng.NextBelow(std::size(kErrnoPool) - 1)];
          spec.errnos.push_back(value);
        }
        fn.errors.push_back(std::move(spec));
      }
      if (rng.Chance(0.5)) {
        fn.success_constants.push_back(rng.NextInRange(0, 10));
      }
      fn.has_computed_success = rng.Chance(0.5);
      profile.AddFunction(std::move(fn));
    }
    std::string xml = profile.ToXml();
    std::string error;
    auto parsed = FaultProfile::FromXml(xml, &error);
    ASSERT_TRUE(parsed.has_value()) << error << "\n" << xml;
    EXPECT_EQ(parsed->library(), profile.library());
    EXPECT_EQ(parsed->functions().size(), profile.functions().size());
    EXPECT_EQ(parsed->ToXml(), xml);
  }
}

// --- journal file semantics -------------------------------------------------

InjectionLog RandomInjectionLog(Rng& rng) {
  InjectionLog log;
  size_t records = rng.NextBelow(4);
  for (size_t i = 0; i < records; ++i) {
    InjectionRecord record;
    record.sequence = i + 1;
    record.function = rng.Chance(0.3) ? NastyString(rng) : StrFormat("call_%zu", i);
    record.retval = rng.NextInRange(-1000, 1000);
    record.errno_value = kErrnoPool[rng.NextBelow(std::size(kErrnoPool))];
    size_t triggers = rng.NextBelow(3);
    for (size_t t = 0; t < triggers; ++t) {
      record.trigger_ids.push_back(NastyString(rng));
    }
    record.call_number = 1 + rng.NextBelow(100);
    size_t frames = rng.NextBelow(3);
    for (size_t f = 0; f < frames; ++f) {
      record.stack.push_back(StackFrame{NastyString(rng), StrFormat("frame_%zu", f),
                                        static_cast<uint32_t>(rng.NextBelow(0x1000))});
    }
    if (rng.Chance(0.5)) {
      record.process = NastyString(rng);
    }
    log.Record(std::move(record));
  }
  return log;
}

JournalRecord MakeRecord(Rng& rng, const std::string& label) {
  JournalRecord record;
  record.label = label;
  record.seed = rng.Next();  // full-range: exercises the hex seed encoding
  record.scenario = RandomScenario(rng);
  record.result.fingerprint = NastyString(rng);
  record.result.injections = rng.NextBelow(5);
  record.result.bugs.push_back(
      FoundBug{"git", NastyString(rng), NastyString(rng), label});
  record.result.log = RandomInjectionLog(rng);
  record.result.coverage.RegisterBlock("j.block", true, 4);
  record.result.coverage.Hit("j.block");
  record.feedback.new_bug = true;
  record.feedback.injections = record.result.injections;
  record.feedback.new_blocks = {"j.block"};
  return record;
}

TEST(CampaignJournal, CreateAppendLoadRoundTrips) {
  Rng rng(5);
  std::string path = TempPath("journal_roundtrip.lfij");
  JournalMetadata meta = {{"command", "explore"}, {"system", "git"}, {"note", NastyString(rng)}};

  CampaignJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Create(path, meta, &error)) << error;
  std::vector<JournalRecord> written;
  for (int i = 0; i < 4; ++i) {
    written.push_back(MakeRecord(rng, StrFormat("job-%d", i)));
    ASSERT_TRUE(journal.Append(written.back()));
  }
  JournalRecord gated;
  gated.label = "gated-job";
  gated.seed = 99;
  gated.gated = true;
  gated.scenario = RandomScenario(rng);
  ASSERT_TRUE(journal.Append(gated));
  // Extent journals buffer the open extent; Finalize seals it and writes the
  // footer index (the engine does this via JournalHook::Finish).
  ASSERT_TRUE(journal.Finalize(&error)) << error;

  auto loaded = CampaignJournal::Load(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->metadata(), meta);
  EXPECT_EQ(loaded->Meta("system"), "git");
  ASSERT_EQ(loaded->records().size(), 5u);
  for (size_t i = 0; i < written.size(); ++i) {
    const JournalRecord& got = loaded->records()[i];
    EXPECT_EQ(got.label, written[i].label);
    EXPECT_EQ(got.seed, written[i].seed);
    EXPECT_FALSE(got.gated);
    EXPECT_TRUE(got.scenario == written[i].scenario);
    EXPECT_EQ(got.result.fingerprint, written[i].result.fingerprint);
    EXPECT_EQ(got.result.injections, written[i].result.injections);
    ASSERT_EQ(got.result.bugs.size(), written[i].result.bugs.size());
    EXPECT_TRUE(got.result.bugs[0] == written[i].result.bugs[0]);
    EXPECT_TRUE(got.result.log == written[i].result.log);
    EXPECT_EQ(got.result.coverage.hits(), written[i].result.coverage.hits());
    EXPECT_TRUE(got.feedback == written[i].feedback);
  }
  EXPECT_TRUE(loaded->records()[4].gated);
  EXPECT_EQ(loaded->records()[4].label, "gated-job");
}

// {"a,b"} and {"a","b"} used to serialize to the same comma-joined string.
// As a vector they must stay distinguishable through a journal write and
// load.
TEST(CampaignJournal, CommaBearingTriggerIdsStayUnambiguous) {
  InjectionRecord joined;
  joined.sequence = 1;
  joined.function = "read";
  joined.call_number = 1;
  joined.trigger_ids = {"a,b"};
  InjectionRecord split = joined;
  split.trigger_ids = {"a", "b"};

  std::vector<JournalRecord> records(2);
  records[0].result.log.Record(joined);
  records[1].result.log.Record(split);
  std::string path = TempPath("journal_comma_ids.lfij");
  WriteJournal(path, {{"command", "explore"}}, records);

  std::string error;
  auto loaded = CampaignJournal::Load(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->records().size(), 2u);
  EXPECT_EQ(loaded->records()[0].result.log.records()[0].trigger_ids,
            std::vector<std::string>{"a,b"});
  EXPECT_EQ(loaded->records()[1].result.log.records()[0].trigger_ids,
            (std::vector<std::string>{"a", "b"}));
  // The human-readable line is unchanged for the common (comma-free) case.
  InjectionLog log_joined;
  log_joined.Record(joined);
  EXPECT_NE(log_joined.ToString().find("triggers: a,b"), std::string::npos);
}

// A journal killed before the first merge holds only its file header; it
// loads as an empty journal.
TEST(CampaignJournal, HeaderOnlyJournalLoads) {
  std::string path = TempPath("journal_headeronly.lfij");
  CampaignJournal header_only;
  std::string error;
  ASSERT_TRUE(header_only.Create(path, {{"command", "explore"}}, &error)) << error;
  auto empty = CampaignJournal::Load(path, &error);
  ASSERT_TRUE(empty.has_value()) << error;
  EXPECT_TRUE(empty->records().empty());
  EXPECT_EQ(empty->Meta("command"), "explore");
}

// The three shapes the retired XML reader accepted -- a header-only XML
// journal, a torn one, and junk in front of a self-closing header (which it
// read as a valid empty journal) -- must all fail to load, naming the extent
// magic. Every reader built on Load fails with them: `journal info`,
// `journal doctor` (with and without --repair), resume and replay, each of
// which `lfi_tool` reports as exit status 1 (a valid spec that failed to
// run). None of them may touch the file.
TEST(CampaignJournal, RejectsEveryNonExtentInputLoudly) {
  const std::string header =
      "<journal version=\"1\">\n  <meta key=\"command\" value=\"explore\" />\n"
      "  <meta key=\"system\" value=\"pbft\" />\n  <meta key=\"strategy\" value=\"random\" "
      "/>\n  <meta key=\"budget\" value=\"16\" />\n  <meta key=\"seed\" value=\"0x5\" />\n"
      "</journal>\n";
  const std::pair<const char*, std::string> shapes[] = {
      {"header_only", header},
      {"torn", header + "<record label=\"torn\" seed=\"0x1\">\n  <scenario>\n    <trigger id=\"x"},
      {"junk", "junk bytes \x01\x02 here\n<journal version=\"1\"/>"},
  };
  for (const auto& [name, bytes] : shapes) {
    SCOPED_TRACE(name);
    std::string path = TempPath(StrFormat("journal_xml_%s.xml", name));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    std::string error;
    EXPECT_FALSE(CampaignJournal::Load(path, &error).has_value());
    EXPECT_NE(error.find("\"LFIJ\""), std::string::npos) << error;
    EXPECT_NE(error.find("XML journals are no longer read"), std::string::npos) << error;
    EXPECT_FALSE(CampaignJournal::Parse(bytes).has_value());

    EXPECT_FALSE(InspectJournal(path, &error).has_value());
    EXPECT_FALSE(DiagnoseJournal(path, /*repair=*/false, &error).has_value());
    EXPECT_FALSE(DiagnoseJournal(path, /*repair=*/true, &error).has_value());
    for (CampaignMode mode : {CampaignMode::kResume, CampaignMode::kReplay}) {
      CampaignSpec spec{.mode = mode, .journal_path = path};
      ASSERT_EQ(spec.Validate(), "");
      error.clear();
      EXPECT_FALSE(CampaignDriver(spec).Run(&error).has_value());
      EXPECT_NE(error.find("XML journals are no longer read"), std::string::npos) << error;
    }
    EXPECT_EQ(ReadFile(path), bytes);
  }
}

// --- kill-and-resume determinism (the acceptance bar) ----------------------

// Runs the coverage-guided pbft exploration journaled, simulates a kill
// after `keep` merged records by rewriting the journal to that prefix, then
// resumes at several worker counts: the final bug list and coverage must be
// bit-identical to the uninterrupted run, and the resumed journal must have
// re-grown to the full record count.
TEST(CampaignJournal, KillAndResumeIsBitIdenticalAtAnyWorkerCount) {
  EnsureStockTriggersRegistered();
  std::string full_path = TempPath("journal_full.lfij");
  std::remove(full_path.c_str());

  CampaignOutcome uninterrupted = RunSpec(PbftCoverageSpec(full_path));
  ASSERT_FALSE(uninterrupted.bugs.empty());

  std::string error;
  auto full = CampaignJournal::Load(full_path, &error);
  ASSERT_TRUE(full.has_value()) << error;
  ASSERT_EQ(full->records().size(), 12u);

  for (int workers : {1, 2, 8}) {
    for (size_t keep : {size_t{0}, size_t{5}, size_t{11}}) {
      // The kill artifact: the first `keep` records, plus a torn tail.
      std::string partial_path =
          TempPath(StrFormat("journal_partial_%d_%zu.lfij", workers, keep).c_str());
      {
        // Scoped: the journal must be closed (extent mode: sealed) before the
        // torn tail is appended and the resume below rewrites the file.
        CampaignJournal partial;
        ASSERT_TRUE(partial.Create(partial_path, full->metadata(), &error)) << error;
        for (size_t i = 0; i < keep; ++i) {
          ASSERT_TRUE(partial.Append(full->records()[i]));
        }
        ASSERT_TRUE(partial.Finalize(&error)) << error;
      }
      {
        std::ofstream out(partial_path, std::ios::app | std::ios::binary);
        out << "<record label=\"torn";
      }

      CampaignSpec resume_spec = PbftCoverageSpec(partial_path);
      resume_spec.workers = workers;
      resume_spec.resume = true;
      CampaignOutcome resumed = RunSpec(resume_spec);

      ExpectSameBugs(uninterrupted.bugs, resumed.bugs);
      EXPECT_EQ(uninterrupted.coverage.hits(), resumed.coverage.hits());
      EXPECT_EQ(uninterrupted.scenarios_run, resumed.scenarios_run);

      auto regrown = CampaignJournal::Load(partial_path, &error);
      ASSERT_TRUE(regrown.has_value()) << error;
      EXPECT_EQ(regrown->records().size(), 12u);
    }
  }
}

// Resume mode reconstructs the whole configuration from the journal header
// alone (what `lfi_tool resume` runs).
TEST(CampaignJournal, ResumeReadsConfigFromHeader) {
  EnsureStockTriggersRegistered();
  std::string path = TempPath("journal_header_resume.lfij");
  std::remove(path.c_str());
  CampaignOutcome uninterrupted = RunSpec(PbftCoverageSpec(path));

  CampaignOutcome resumed =
      RunSpec({.mode = CampaignMode::kResume, .workers = 2, .journal_path = path});
  ExpectSameBugs(uninterrupted.bugs, resumed.bugs);
  EXPECT_EQ(uninterrupted.coverage.hits(), resumed.coverage.hits());
}

// Resuming a journal recorded under a different campaign identity must be
// refused, not silently diverge.
TEST(CampaignJournal, ResumeRejectsMismatchedCampaignIdentity) {
  EnsureStockTriggersRegistered();
  std::string path = TempPath("journal_mismatch.lfij");
  std::remove(path.c_str());

  RunSpec(PbftCoverageSpec(path, /*budget=*/8));

  CampaignSpec different = PbftCoverageSpec(path, /*budget=*/8);
  different.seed = 4;
  different.resume = true;
  EXPECT_THROW(RunSpec(different), std::runtime_error);
}

// An open-loop source (one drained batch) journals and resumes too.
TEST(CampaignJournal, GitCampaignJournalsAndResumes) {
  EnsureStockTriggersRegistered();
  std::string path = TempPath("journal_git_campaign.lfij");
  std::remove(path.c_str());

  std::vector<FoundBug> uninterrupted =
      RunSpec({.system = "git", .mode = CampaignMode::kTable1, .journal_path = path}).bugs;
  ASSERT_FALSE(uninterrupted.empty());

  std::string error;
  auto full = CampaignJournal::Load(path, &error);
  ASSERT_TRUE(full.has_value()) << error;
  ASSERT_GT(full->records().size(), 4u);

  // Kill artifact: keep a 3-record prefix, then resume through the header.
  std::string partial_path = TempPath("journal_git_partial.lfij");
  CampaignJournal partial;
  ASSERT_TRUE(partial.Create(partial_path, full->metadata(), &error)) << error;
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(partial.Append(full->records()[i]));
  }
  CampaignOutcome resumed =
      RunSpec({.mode = CampaignMode::kResume, .workers = 2, .journal_path = partial_path});
  ExpectSameBugs(uninterrupted, resumed.bugs);
}

// --- disk-only replay -------------------------------------------------------

// Every journaled record that exposed a bug must reproduce its crash site
// from the journal alone: fresh process state, scenario rebuilt with the
// stock call-count trigger from the serialized injection log. Each record's
// last injection (the one the run died on) is replayed alone.
TEST(CampaignJournal, ReplayReproducesEveryJournaledCrashSiteFromDisk) {
  EnsureStockTriggersRegistered();
  std::string path = TempPath("journal_replay.lfij");
  std::remove(path.c_str());
  ASSERT_FALSE(RunSpec(PbftCoverageSpec(path)).bugs.empty());

  std::string error;
  auto journal = CampaignJournal::Load(path, &error);
  ASSERT_TRUE(journal.has_value()) << error;
  size_t bug_records = 0;
  for (size_t i = 0; i < journal->records().size(); ++i) {
    const JournalRecord& record = journal->records()[i];
    if (record.result.bugs.empty()) {
      continue;
    }
    ASSERT_FALSE(record.result.log.empty()) << record.label;
    ++bug_records;
    CampaignOutcome replayed =
        RunSpec({.mode = CampaignMode::kReplay,
                 .journal_path = path,
                 .replay_selector = StrFormat("%zu:%zu", i, record.result.log.size() - 1)});
    ASSERT_EQ(replayed.replays.size(), 1u) << record.label;
    EXPECT_TRUE(replayed.replays[0].crashed) << record.label;
    EXPECT_TRUE(replayed.replays[0].reproduced) << record.label;
  }
  EXPECT_GT(bug_records, 0u);
}

// Replay runs every record on persistent workers forked from a zygote of
// the recorded workload: one bring-up by default, with each record starting
// from the post-setup state through a Reset() in its worker; one bring-up
// per record (built in a worker) and no Reset() under cold_start. Outcomes
// are identical either way, and every expected crash reproduces. A journal
// naming a system this build does not know is refused.
TEST(CampaignJournal, ReplayStartsEveryRecordFromThePostSetupStateAndRefusesUnknownSystems) {
  EnsureStockTriggersRegistered();
  for (const char* system : {"pbft", "bfs"}) {
    SCOPED_TRACE(system);
    std::string path = TempPath(StrFormat("journal_replay_pool_%s.lfij", system));
    std::remove(path.c_str());
    RunSpec({.system = system,
             .strategy = ExploreStrategy::kCoverage,
             .budget = 32,
             .seed = 1,
             .journal_path = path});

    CampaignSpec replay{.mode = CampaignMode::kReplay, .workers = 2, .journal_path = path};
    CampaignOutcome plain = RunSpec(replay);
    replay.cold_start = true;
    CampaignOutcome cold = RunSpec(replay);
    EXPECT_GT(plain.replays_expected, 0u);
    EXPECT_EQ(plain.pool.builds, 1u);
    EXPECT_EQ(cold.pool.builds, cold.replays.size());
    // No worker dies here, so every warm record ends in a Reset() or retires
    // its worker; cold workers build per record and never reset.
    EXPECT_EQ(plain.pool.resets + plain.pool.dropped, plain.pool.runs);
    EXPECT_EQ(cold.pool.resets, 0u);
    EXPECT_EQ(cold.pool.dropped, 0u);
    if (std::string(system) == "pbft") {
      // A worker serves many records: at most one per worker skips its
      // Reset(). Falling back to one fork per record fails this.
      EXPECT_GE(plain.pool.resets + 2, plain.pool.runs);
    }
    for (const CampaignOutcome* outcome : {&plain, &cold}) {
      EXPECT_EQ(outcome->replays_reproduced, outcome->replays_expected);
      EXPECT_EQ(outcome->pool.runs, outcome->replays.size());
    }
    ASSERT_EQ(plain.replays.size(), cold.replays.size());
    for (size_t i = 0; i < plain.replays.size(); ++i) {
      const ReplayOutcome& w = plain.replays[i];
      const ReplayOutcome& c = cold.replays[i];
      EXPECT_EQ(std::tie(w.record, w.injection, w.function, w.call_number, w.crashed, w.where,
                         w.recorded_bug, w.distributed, w.informational, w.reproduced),
                std::tie(c.record, c.injection, c.function, c.call_number, c.crashed, c.where,
                         c.recorded_bug, c.distributed, c.informational, c.reproduced))
          << "replay " << i;
    }
  }

  std::string path = TempPath("journal_replay_unknown.lfij");
  std::remove(path.c_str());
  CampaignJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Create(path, {{"command", "explore"}, {"system", "zfs"}}, &error)) << error;
  ASSERT_TRUE(journal.Finalize(&error)) << error;
  auto refused = CampaignDriver({.mode = CampaignMode::kReplay, .journal_path = path}).Run(&error);
  EXPECT_FALSE(refused.has_value());
  EXPECT_EQ(error, "journal names unknown system 'zfs'");
}

// A replay child that dies or outlives job_timeout_ms fails only its own
// record: the record reads crashed, with a site naming the exit (or the
// engine's deterministic hang), every other record replays exactly as in a
// clean run, and the run is not ok. Failpoints reach child K under scope
// "replay<K>". The deadline leaves the healthy records room to finish under
// sanitizers.
TEST(CampaignJournal, ReplayIsolatesACrashedOrHungChildToItsOwnRecord) {
  EnsureStockTriggersRegistered();
  std::string path = TempPath("journal_replay_isolation.lfij");
  std::remove(path.c_str());
  RunSpec({.system = "pbft",
           .strategy = ExploreStrategy::kCoverage,
           .budget = 16,
           .seed = 1,
           .journal_path = path});
  CampaignSpec replay{.mode = CampaignMode::kReplay, .workers = 2, .journal_path = path};
  CampaignOutcome clean = RunSpec(replay);
  struct Disarm {  // the driver arms failpoints process-wide
    ~Disarm() { Failpoints::Instance().Clear(); }
  } disarm;
  ASSERT_TRUE(clean.ok);
  ASSERT_GE(clean.replays.size(), 2u);

  struct Case {
    const char* failpoints;
    uint64_t job_timeout_ms;
    size_t failed;
    std::string where;
  };
  const std::string label0 = "replay " + std::to_string(clean.replays[0].record) + ":" +
                             std::to_string(clean.replays[0].injection) + " of " + path;
  for (const Case& c : {Case{"replay1:engine.job.run=exit:9", 0, 1,
                             "child process exited with status 9"},
                        Case{"replay0:engine.job.run=hang", 5000, 0,
                             "unresponsive under injected fault: " + label0}}) {
    SCOPED_TRACE(c.failpoints);
    replay.failpoints = c.failpoints;
    replay.job_timeout_ms = c.job_timeout_ms;
    CampaignOutcome hurt = RunSpec(replay);
    EXPECT_FALSE(hurt.ok);
    ASSERT_EQ(hurt.replays.size(), clean.replays.size());
    for (size_t i = 0; i < clean.replays.size(); ++i) {
      const ReplayOutcome& want = clean.replays[i];
      const ReplayOutcome& got = hurt.replays[i];
      if (i == c.failed) {
        EXPECT_TRUE(got.crashed);
        EXPECT_EQ(got.where, c.where);
        EXPECT_FALSE(got.reproduced);
        continue;
      }
      EXPECT_EQ(std::tie(got.crashed, got.where, got.reproduced),
                std::tie(want.crashed, want.where, want.reproduced))
          << "replay " << i;
    }
  }
}

// --- the doctor's campaign-identity surface ---------------------------------

// `lfi_tool journal doctor` flags a campaign identity that names a system
// this build cannot re-run. The decision surface it consults lives here in
// the library: a bfs identity must round-trip through a journal header into
// a valid spec and resolve a pool runner, while an unknown system must fail
// all three -- the doctor's unknown-system issue and resume/replay's refusal
// key off exactly these checks.
TEST(CampaignJournal, DoctorIdentitySurfaceRecognizesBfsAndRefusesUnknown) {
  CampaignSpec spec;
  spec.system = "bfs";
  spec.mode = CampaignMode::kExplore;
  spec.strategy = ExploreStrategy::kCoverage;
  spec.budget = 16;
  spec.seed = 9;
  spec.journal_path = TempPath("journal_bfs_identity.lfij");
  EXPECT_EQ(spec.Validate(), "");

  std::remove(spec.journal_path.c_str());
  CampaignJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Create(spec.journal_path, spec.ToJournalMeta(), &error)) << error;
  ASSERT_TRUE(journal.Finalize(&error)) << error;
  auto loaded = CampaignJournal::Load(spec.journal_path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->Meta("system"), "bfs");
  auto parsed = CampaignSpec::FromJournalMeta(loaded->metadata(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->system, "bfs");
  EXPECT_EQ(parsed->Validate(), "");
  EXPECT_TRUE(IsCampaignSystem("bfs"));
  EXPECT_TRUE(WorkloadFactory("bfs", CampaignMode::kExplore) != nullptr);

  // An identity naming a system this build does not know: not a member, no
  // runner, and a spec parsed from it does not validate as runnable.
  EXPECT_FALSE(IsCampaignSystem("zfs"));
  EXPECT_TRUE(WorkloadFactory("zfs", CampaignMode::kExplore) == nullptr);
  JournalMetadata unknown = spec.ToJournalMeta();
  for (auto& [key, value] : unknown) {
    if (key == "system") {
      value = "zfs";
    }
  }
  auto refused = CampaignSpec::FromJournalMeta(unknown, &error);
  EXPECT_TRUE(!refused.has_value() || !refused->Validate().empty());
}

}  // namespace
}  // namespace lfi
