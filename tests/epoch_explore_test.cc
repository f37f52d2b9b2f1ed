// Epoch-synchronized distributed coverage-guided exploration (the epoch
// protocol in docs/architecture.md): FrontierState round trips exactly, a
// source reseeded from an exported frontier is indistinguishable from the
// live-fed one, and the distributed deal -> run -> merge -> feedback
// campaign on persistent shard workers writes a merged journal
// byte-identical to the single-process --epoch-len run -- at any worker
// count, under any merge input order, and after killing the orchestrator
// and resuming from the sealed per-epoch shard journals.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/callsite_analyzer.h"
#include "apps/common/campaign_driver.h"
#include "apps/common/campaign_spec.h"
#include "campaign_test_util.h"
#include "core/campaign_engine.h"
#include "core/exploration.h"
#include "core/journal.h"
#include "core/stock_triggers.h"
#include "profiler/fault_profile.h"
#include "util/string_util.h"

namespace lfi {
namespace {

// The driver refuses to clobber an existing merged journal, so tests clear
// the journal plus every per-epoch artifact a previous run may have left.
void RemoveEpochArtifacts(const std::string& journal, size_t shards) {
  std::remove(journal.c_str());
  for (size_t epoch = 0; epoch < 8; ++epoch) {
    std::remove((journal + StrFormat(".epoch%zu.frontier", epoch)).c_str());
    for (size_t shard = 0; shard < shards; ++shard) {
      std::remove((journal + StrFormat(".epoch%zu.shard%zu", epoch, shard)).c_str());
    }
  }
}

// The canonical distributed-explore spec the equivalence tests share: pbft,
// coverage strategy, a budget that spans several epochs at epoch_len 2.
CampaignSpec EpochSpec(const std::string& journal, size_t shards, int workers = 1) {
  CampaignSpec spec;
  spec.system = "pbft";
  spec.mode = CampaignMode::kExplore;
  spec.strategy = ExploreStrategy::kCoverage;
  spec.budget = 32;
  spec.seed = 7;
  spec.workers = workers;
  spec.epoch_len = 2;
  spec.journal_path = journal;
  spec.shard_count = shards;
  return spec;
}

std::optional<CampaignOutcome> RunDriver(CampaignSpec spec, std::string* error) {
  CampaignDriver driver(std::move(spec));
  return driver.Run(error);
}

void ExpectSameOutcome(const CampaignOutcome& a, const CampaignOutcome& b) {
  ASSERT_EQ(a.bugs.size(), b.bugs.size());
  for (size_t i = 0; i < a.bugs.size(); ++i) {
    EXPECT_EQ(a.bugs[i].system, b.bugs[i].system) << i;
    EXPECT_EQ(a.bugs[i].kind, b.bugs[i].kind) << i;
    EXPECT_EQ(a.bugs[i].where, b.bugs[i].where) << i;
    EXPECT_EQ(a.bugs[i].injected, b.bugs[i].injected) << i;
  }
  CoverageMap::Stats sa = a.coverage.ComputeStats();
  CoverageMap::Stats sb = b.coverage.ComputeStats();
  EXPECT_EQ(sa.covered_recovery_blocks, sb.covered_recovery_blocks);
  EXPECT_EQ(sa.covered_blocks, sb.covered_blocks);
  EXPECT_EQ(a.scenarios_run, b.scenarios_run);
}

// --- FrontierState: the epoch-boundary snapshot ------------------------------

// A synthetic analysis small enough to reason about: two profiled functions,
// four call sites across two enclosing functions and all three check classes.
FaultProfile SyntheticProfile() {
  FaultProfile profile("synlib");
  FunctionProfile alpha;
  alpha.name = "alpha";
  alpha.errors = {{-1, {2, 13}}, {0, {}}};
  profile.AddFunction(alpha);
  FunctionProfile beta;
  beta.name = "beta";
  beta.errors = {{-1, {5}}};
  profile.AddFunction(beta);
  return profile;
}

std::vector<CallSiteReport> SyntheticReports() {
  std::vector<CallSiteReport> reports;
  auto add = [&](const char* function, uint32_t offset, const char* enclosing,
                 CheckClass check_class) {
    CallSiteReport report;
    report.site.module = "app";
    report.site.offset = offset;
    report.site.function = function;
    report.site.enclosing = enclosing;
    report.check_class = check_class;
    reports.push_back(std::move(report));
  };
  add("alpha", 0x10, "fn_a", CheckClass::kNone);
  add("beta", 0x20, "fn_a", CheckClass::kPartial);
  add("alpha", 0x30, "fn_b", CheckClass::kFull);
  add("beta", 0x40, "fn_b", CheckClass::kNone);
  return reports;
}

// Deterministic synthetic feedback, a pure function of the job label, so the
// live and the reseeded source observe identical feedback without running
// anything. Distinct fingerprints keep the mutation path exercised.
RunFeedback SyntheticFeedback(const CampaignJob& job) {
  uint64_t h = 1469598103934665603ull;
  for (char c : job.label) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  RunFeedback feedback;
  feedback.injections = 1;
  feedback.fingerprint = job.label;
  feedback.new_bug = h % 5 == 0;
  if (h % 3 == 0) {
    feedback.new_blocks = {job.label + "#block"};
  }
  return feedback;
}

TEST(FrontierState, XmlRoundTripsExactlyAndIsCanonical) {
  FrontierState state;
  state.explore = {{0, -1, 2, 0}, {3, -1, 5, 0}};
  state.exploit = {{1, -1, 13, 2}};
  state.seen_keys = {"0|-1|2|0", "1|-1|5|0", "3|-1|5|0"};
  state.seen_fingerprints = {"fp-a", "fp-b"};
  state.scheduled = 9;
  std::string xml = state.ToXml();
  std::string error;
  auto parsed = FrontierState::Parse(xml, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(*parsed == state);
  EXPECT_EQ(parsed->ToXml(), xml);  // canonical: second trip is byte-stable
}

TEST(FrontierState, ReseededSourceContinuesExactlyLikeTheLiveOne) {
  FaultProfile profile = SyntheticProfile();
  CoverageGuidedSource::Options options;
  options.budget = 24;
  options.seed = 11;
  CoverageGuidedSource live(SyntheticReports(), profile, options);
  auto feedback_round = [](CoverageGuidedSource& source) {
    std::vector<CampaignJob> batch = source.NextBatch(4);
    for (const CampaignJob& job : batch) {
      source.OnFeedback(job, SyntheticFeedback(job));
    }
    return batch;
  };
  feedback_round(live);
  feedback_round(live);

  FrontierState state = live.ExportFrontier();
  EXPECT_EQ(state.scheduled, live.scheduled());
  EXPECT_GT(state.scheduled, 0u);
  // The snapshot survives its wire format.
  std::string error;
  auto parsed = FrontierState::Parse(state.ToXml(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_TRUE(*parsed == state);

  // A fresh source reseeded from the parsed snapshot emits the same jobs as
  // the live source from here to exhaustion, given the same feedback.
  CoverageGuidedSource reseeded(SyntheticReports(), profile, options);
  reseeded.ImportFrontier(*parsed);
  while (true) {
    std::vector<CampaignJob> a = feedback_round(live);
    std::vector<CampaignJob> b = feedback_round(reseeded);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].label, b[i].label) << i;
      EXPECT_EQ(a[i].seed, b[i].seed) << i;
      EXPECT_EQ(a[i].stream_index, b[i].stream_index) << i;
    }
    if (a.empty()) {
      break;
    }
  }
  EXPECT_TRUE(live.ExportFrontier() == reseeded.ExportFrontier());
}

TEST(FrontierState, ExportRefusesWithFeedbackOutstanding) {
  FaultProfile profile = SyntheticProfile();
  CoverageGuidedSource::Options options;
  options.budget = 8;
  options.seed = 3;
  CoverageGuidedSource source(SyntheticReports(), profile, options);
  std::vector<CampaignJob> batch = source.NextBatch(4);
  ASSERT_FALSE(batch.empty());
  EXPECT_THROW(source.ExportFrontier(), std::logic_error);
  for (const CampaignJob& job : batch) {
    source.OnFeedback(job, SyntheticFeedback(job));
  }
  EXPECT_NO_THROW(source.ExportFrontier());
}

// --- the distributed campaign's acceptance bar ------------------------------

TEST(EpochExplore, DistributedRunIsByteIdenticalToSingleProcess) {
  std::string single_path = TempPath("epoch_single.lfij");
  std::string error;
  RemoveEpochArtifacts(single_path, 0);
  auto single = RunDriver(EpochSpec(single_path, 1), &error);
  ASSERT_TRUE(single.has_value()) << error;
  EXPECT_FALSE(single->bugs.empty());
  std::string single_bytes = ReadFile(single_path);

  // Same schedule, more workers: the epoch protocol keys feedback timing to
  // merged batches, never the worker count.
  for (int workers : {2, 8}) {
    std::string path = TempPath(StrFormat("epoch_single_w%d.lfij", workers).c_str());
    RemoveEpochArtifacts(path, 0);
    auto outcome = RunDriver(EpochSpec(path, 1, workers), &error);
    ASSERT_TRUE(outcome.has_value()) << error;
    ExpectSameOutcome(*single, *outcome);
    EXPECT_EQ(ReadFile(path), single_bytes) << "workers=" << workers;
  }

  // Distributed at 2 and 4 shards: same bug set, same coverage, and the
  // merged journal is the same file, byte for byte.
  for (size_t shards : {size_t{2}, size_t{4}}) {
    std::string path = TempPath(StrFormat("epoch_dist_%zu.lfij", shards).c_str());
    RemoveEpochArtifacts(path, shards);
    auto distributed = RunDriver(EpochSpec(path, shards), &error);
    ASSERT_TRUE(distributed.has_value()) << error;
    ExpectSameOutcome(*single, *distributed);
    EXPECT_EQ(distributed->shards.size(), shards);
    EXPECT_EQ(ReadFile(path), single_bytes) << "shards=" << shards;
    // One persistent worker per shard ran every epoch.
    for (const ShardOutcome& shard : distributed->shards) {
      EXPECT_EQ(shard.workers, 1u) << "shards=" << shards;
    }
  }
}

TEST(EpochExplore, MergeOfEpochShardJournalsIsInputOrderInvariant) {
  std::string dist_path = TempPath("epoch_shuffle.lfij");
  std::string error;
  RemoveEpochArtifacts(dist_path, 2);
  CampaignSpec spec = EpochSpec(dist_path, 2);
  auto distributed = RunDriver(spec, &error);
  ASSERT_TRUE(distributed.has_value()) << error;
  std::string merged_bytes = ReadFile(dist_path);

  // Every per-epoch shard journal the run left behind, merged in one step
  // through the orchestrator's merge in shuffled input orders, reproduces
  // the orchestrator's merged bytes.
  std::vector<std::string> inputs;
  for (size_t epoch = 0; epoch < 8; ++epoch) {
    for (size_t shard = 0; shard < 2; ++shard) {
      std::string path = spec.EpochShardJournalPath(epoch, shard);
      if (std::ifstream(path).good()) {
        inputs.push_back(path);
      }
    }
  }
  ASSERT_GE(inputs.size(), 4u);  // at least two epochs of two shards
  for (int permutation = 0; permutation < 3; ++permutation) {
    std::string out_path =
        TempPath(StrFormat("epoch_shuffle_out_%d.lfij", permutation).c_str());
    EXPECT_EQ(MergeJournalFiles(inputs, out_path, spec.ToJournalMeta()), "");
    EXPECT_EQ(ReadFile(out_path), merged_bytes) << "permutation " << permutation;
    std::next_permutation(inputs.begin(), inputs.end());
  }
}

TEST(EpochExplore, ResumeAfterKillRebuildsIdenticalBytesFromShardJournals) {
  std::string path = TempPath("epoch_resume.lfij");
  std::string error;
  RemoveEpochArtifacts(path, 4);
  auto full = RunDriver(EpochSpec(path, 4), &error);
  ASSERT_TRUE(full.has_value()) << error;
  std::string full_bytes = ReadFile(path);

  // Simulate the orchestrator dying mid-campaign: the merged journal is torn
  // somewhere past the header while the sealed per-epoch shard journals
  // survive. Resume must rebuild the merged journal bit-identically without
  // rerunning the completed epochs (their shard journals replay from disk).
  for (size_t keep : {full_bytes.size() / 2, full_bytes.size() / 4}) {
    {
      std::ofstream torn(path, std::ios::binary | std::ios::trunc);
      torn.write(full_bytes.data(), static_cast<std::streamsize>(keep));
    }
    CampaignSpec resume;
    resume.mode = CampaignMode::kResume;
    resume.journal_path = path;
    resume.shard_count = 4;
    auto resumed = RunDriver(resume, &error);
    ASSERT_TRUE(resumed.has_value()) << error << " keep=" << keep;
    ExpectSameOutcome(*full, *resumed);
    EXPECT_EQ(ReadFile(path), full_bytes) << "keep=" << keep;
  }
}

// A shard journal written by hand with one record per stream index in
// `stream_indexes` (kNoStreamIndex = a record that carries none).
std::string ShardJournal(const char* name, const char* shard,
                         const std::vector<size_t>& stream_indexes) {
  std::string path = TempPath(name);
  std::vector<JournalRecord> records;
  for (size_t index : stream_indexes) {
    JournalRecord& record = records.emplace_back();
    record.label = StrFormat("%s-%zu", shard, index);
    record.seed = 1;
    record.stream_index = index;
    record.epoch = 0;
  }
  WriteJournal(path,
               {{"command", "explore"}, {"system", "pbft"}, {"strategy", "coverage"},
                {"budget", "8"}, {"seed", "0x1"}, {"epoch-len", "1"}, {"shard", shard},
                {"shards", "2"}, {"epoch", "0"}},
               records);
  return path;
}

const JournalMetadata kMergedMeta = {{"command", "explore"}, {"system", "pbft"},
                                     {"strategy", "coverage"}, {"budget", "8"},
                                     {"seed", "0x1"}, {"epoch-len", "1"}};

TEST(EpochExplore, MergeRejectsOverlappingStreamIndexes) {
  std::string a = ShardJournal("epoch_overlap_a.lfij", "0", {0, 2});
  std::string b = ShardJournal("epoch_overlap_b.lfij", "1", {2, 3});  // 2 collides with a
  std::string error =
      MergeJournalFiles({a, b}, TempPath("epoch_overlap_out.lfij"), kMergedMeta);
  EXPECT_NE(error.find("stream index 2"), std::string::npos) << error;
  // The same shard journal listed twice overlaps itself.
  error = MergeJournalFiles({a, a}, TempPath("epoch_overlap_out.lfij"), kMergedMeta);
  EXPECT_NE(error.find("overlap"), std::string::npos) << error;
}

// Every merge input is a shard worker's journal, whose records all carry
// their stream index: a record without one cannot be placed and is refused.
TEST(EpochExplore, MergeRefusesARecordWithoutAStreamIndex) {
  std::string a = ShardJournal("epoch_unindexed_a.lfij", "0", {0, 2});
  std::string b =
      ShardJournal("epoch_unindexed_b.lfij", "1", {1, JournalRecord::kNoStreamIndex});
  std::string error =
      MergeJournalFiles({a, b}, TempPath("epoch_unindexed_out.lfij"), kMergedMeta);
  EXPECT_NE(error.find("has no stream index"), std::string::npos) << error;
}

}  // namespace
}  // namespace lfi
