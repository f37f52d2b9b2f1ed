// The unified campaign API: CampaignSpec's journal-header identity round
// trip, the spec schema (pinned header bytes, strict readers, the flag
// parser), spec validation, the one name-table, ShardSource dealing, and the multi-process acceptance bar -- merging N shard journals
// in any input order yields a bit-identical merged journal (and the same bug
// list and coverage as the unsharded run at equal total budget) that resumes
// cleanly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/bind/bind.h"
#include "apps/common/campaign_driver.h"
#include "apps/common/campaign_spec.h"
#include "campaign_test_util.h"
#include "core/exploration.h"
#include "core/journal.h"
#include "core/scenario.h"
#include "core/stock_triggers.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace lfi {
namespace {

// The driver refuses to clobber existing artifacts, so tests must clear a
// previous run's journal plus its per-shard files to stay re-runnable.
void RemoveCampaignArtifacts(const std::string& journal_path, size_t shards = 0) {
  std::remove(journal_path.c_str());
  for (size_t i = 0; i < shards; ++i) {
    std::remove((journal_path + StrFormat(".shard%zu", i)).c_str());
  }
}

CampaignSpec RandomSpec(Rng& rng) {
  CampaignSpec spec;
  const auto& systems = CampaignSystemNames();
  spec.system = systems[rng.NextBelow(systems.size())];
  spec.mode = rng.Chance(0.5) ? CampaignMode::kExplore : CampaignMode::kTable1;
  switch (rng.NextBelow(3)) {
    case 0:
      spec.strategy = ExploreStrategy::kExhaustive;
      break;
    case 1:
      spec.strategy = ExploreStrategy::kRandom;
      break;
    default:
      spec.strategy = ExploreStrategy::kCoverage;
      break;
  }
  spec.exhaustive = rng.Chance(0.5);
  spec.budget = rng.NextBelow(1000);
  spec.seed = rng.Next();  // full-range: exercises the hex encoding
  spec.workers = static_cast<int>(rng.NextBelow(9));
  if (rng.Chance(0.5)) {
    spec.journal_path = StrFormat("journal with \"quotes\" & <angles> %zu.lfij",
                                  rng.NextBelow(100));
  }
  spec.resume = rng.Chance(0.3);
  if (rng.Chance(0.4)) {
    spec.shard_count = 2 + rng.NextBelow(7);
    if (rng.Chance(0.5)) {
      spec.shard_index = rng.NextBelow(spec.shard_count);
    }
  }
  if (rng.Chance(0.2)) {
    spec.replay_selector = StrFormat("%zu:%zu", rng.NextBelow(20), rng.NextBelow(4));
  }
  spec.abort_after_records = rng.NextBelow(10);
  return spec;
}

TEST(CampaignSpec, JournalMetaRoundTripsTheIdentity) {
  Rng rng(99);
  for (int iteration = 0; iteration < 100; ++iteration) {
    CampaignSpec spec = RandomSpec(rng);
    // The journal identity covers exactly what resume needs: mode, system,
    // strategy/budget/seed (explore) or exhaustive (table1), and the shard
    // coordinates. Environment fields are deliberately excluded.
    auto back = CampaignSpec::FromJournalMeta(spec.ToJournalMeta());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->mode, spec.mode);
    EXPECT_EQ(back->system, spec.system);
    EXPECT_EQ(back->shard_index, spec.shard_index);
    if (spec.shard_index != CampaignSpec::kNoShard) {
      EXPECT_EQ(back->shard_count, spec.shard_count);
    }
    if (spec.mode == CampaignMode::kExplore) {
      EXPECT_EQ(back->strategy, spec.strategy);
      EXPECT_EQ(back->budget, spec.budget);
      EXPECT_EQ(back->seed, spec.seed);
    } else {
      EXPECT_EQ(back->exhaustive, spec.exhaustive);
    }
  }
}

// --- the spec schema --------------------------------------------------------

// The number of fields in an aggregate, counted by brace initialization.
struct AnyField {
  template <typename T>
  operator T() const;
};

template <typename T, typename... Fields>
constexpr size_t FieldCount() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return FieldCount<T, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

// A new CampaignSpec field fails here until it is in the schema table
// (campaign_spec.cc) or set by hand in EveryFlagSetsItsField, and in
// EveryFieldOffDefault below.
static_assert(FieldCount<CampaignSpec>() == 22);

std::string MetaText(const JournalMetadata& meta) {
  std::string text;
  for (const auto& [key, value] : meta) {
    text += key + "=" + value + ";";
  }
  return text;
}

std::vector<CampaignSpec> GoldenSpecs() {
  std::vector<CampaignSpec> specs;
  specs.push_back({.system = "git", .mode = CampaignMode::kTable1});
  specs.push_back({.system = "bfs", .mode = CampaignMode::kTable1, .exhaustive = true,
                   .journal_path = "t1.lfij", .shard_count = 3});
  specs.push_back({.system = "pbft", .strategy = ExploreStrategy::kExhaustive});
  specs.push_back({.system = "git", .strategy = ExploreStrategy::kRandom, .budget = 64,
                   .seed = 7, .workers = 4, .journal_path = "git.lfij"});
  specs.push_back({.system = "pbft", .strategy = ExploreStrategy::kCoverage, .budget = 16,
                   .workers = 0});
  specs.push_back({.system = "mysql", .strategy = ExploreStrategy::kRandom, .budget = 24,
                   .seed = 5, .workers = -2, .journal_path = "m.lfij", .shard_index = 1,
                   .shard_count = 4});
  specs.push_back({.system = "pbft", .strategy = ExploreStrategy::kCoverage, .budget = 32,
                   .seed = 7, .journal_path = "e.lfij.epoch3.shard1", .resume = true,
                   .shard_index = 1, .shard_count = 4, .epoch_len = 2, .epoch_index = 3});
  specs.push_back({.system = "bfs", .strategy = ExploreStrategy::kCoverage, .budget = 96,
                   .journal_path = "b.lfij", .epoch_len = 4});
  specs.push_back({.system = "bind", .strategy = ExploreStrategy::kRandom, .budget = 10,
                   .journal_path = "s.lfij", .shard_count = 2, .child_timeout_ms = 60000,
                   .max_retries = 0, .backoff_ms = 5, .job_timeout_ms = 250});
  specs.push_back({.mode = CampaignMode::kReplay, .journal_path = "r & <q>.lfij",
                   .cold_start = true, .failpoints = "epoch1.shard0:child.start=exit:9",
                   .replay_selector = "14:0", .abort_after_records = 5});
  specs.push_back({.system = "git", .strategy = ExploreStrategy::kRandom, .budget = 8,
                   .seed = 0x8000000000000000ull});
  return specs;
}

// Header bytes of GoldenSpecs(), as the hand-written serializer that
// preceded the field table wrote them: existing journals must keep
// resuming, so the encoding may not change.
TEST(SpecSchema, JournalHeaderBytesArePinned) {
  const char* const kWant[] = {
      "command=campaign;system=git;exhaustive=false;",
      "command=campaign;system=bfs;exhaustive=true;",
      "command=explore;system=pbft;strategy=exhaustive;budget=0;seed=0x1;",
      "command=explore;system=git;strategy=random;budget=64;seed=0x7;",
      "command=explore;system=pbft;strategy=coverage;budget=16;seed=0x1;",
      "command=explore;system=mysql;strategy=random;budget=24;seed=0x5;shard=1;shards=4;",
      "command=explore;system=pbft;strategy=coverage;budget=32;seed=0x7;epoch-len=2;"
      "shard=1;shards=4;epoch=3;",
      "command=explore;system=bfs;strategy=coverage;budget=96;seed=0x1;epoch-len=4;",
      "command=explore;system=bind;strategy=random;budget=10;seed=0x1;",
      "command=explore;system=;strategy=exhaustive;budget=0;seed=0x1;",
      "command=explore;system=git;strategy=random;budget=8;seed=0x8000000000000000;",
  };
  std::vector<CampaignSpec> specs = GoldenSpecs();
  ASSERT_EQ(specs.size(), std::size(kWant));
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(MetaText(specs[i].ToJournalMeta()), kWant[i]) << "spec " << i;
  }
}

// Every field off its default (the mode stays explore; `format` has a
// single value).
CampaignSpec EveryFieldOffDefault() {
  return {.system = "bfs",
          .strategy = ExploreStrategy::kCoverage,
          .exhaustive = true,
          .budget = 12,
          .seed = 0x8000000000000001ull,
          .workers = -3,
          .journal_path = "a b&<c>.lfij",
          .resume = true,
          .shard_index = 1,
          .shard_count = 3,
          .epoch_len = 2,
          .epoch_index = 4,
          .child_timeout_ms = 9000,
          .max_retries = 0,
          .backoff_ms = 7,
          .job_timeout_ms = 250,
          .cold_start = true,
          .failpoints = "engine.record=error@3",
          .replay_selector = "3:1",
          .abort_after_records = 6};
}

// CLI argv -> spec sets every field a flag names: a flag the table mapped
// to the wrong field, or a field no flag reaches and no one sets by hand,
// would stay at its default and break ==.
TEST(SpecSchema, EveryFlagSetsItsField) {
  const CampaignSpec want = EveryFieldOffDefault();
  const std::vector<std::string> argv = {
      "explore",     "bfs",        "--strategy",         "coverage", "--exhaustive",
      "--budget",    "12",         "--seed",             "0x8000000000000001",
      "--workers",   "-3",         "--journal",          "a b&<c>.lfij",
      "--shard",     "1/3",        "--epoch-len",        "2",
      "--child-timeout-ms",        "9000",               "--max-retries",    "0",
      "--backoff-ms", "7",         "--job-timeout-ms",   "250",      "--cold-start",
      "--failpoints", "engine.record=error@3",           "--abort-after",    "6"};
  CampaignSpec parsed{.system = "bfs"};
  std::string error;
  ASSERT_TRUE(ParseSpecFlags(argv, 2, &parsed, &error)) << error;
  // No flag sets these: the driver sets the resume marker and an epoch
  // child's coordinates, lfi_tool replay's positional selector.
  parsed.resume = true;
  parsed.epoch_index = 4;
  parsed.replay_selector = "3:1";
  EXPECT_TRUE(parsed == want) << MetaText(parsed.ToJournalMeta());
}

// Resume is the journal's identity run under the invocation's environment.
TEST(SpecSchema, ResumeTakesIdentityFromTheJournalAndEnvironmentFromTheInvocation) {
  CampaignSpec recorded = EveryFieldOffDefault();
  CampaignSpec invocation{.mode = CampaignMode::kResume,
                          .workers = 5,
                          .journal_path = "j.lfij",
                          .shard_count = 4,
                          .child_timeout_ms = 1,
                          .max_retries = 9,
                          .backoff_ms = 1,
                          .job_timeout_ms = 2,
                          .cold_start = false,
                          .abort_after_records = 3};
  std::string error;
  auto resumed = CampaignSpec::FromJournalMeta(recorded.ToJournalMeta(), &error);
  ASSERT_TRUE(resumed.has_value()) << error;
  resumed->AdoptEnvironment(invocation);

  CampaignSpec want = invocation;
  want.system = recorded.system;
  want.mode = recorded.mode;
  want.strategy = recorded.strategy;
  want.budget = recorded.budget;
  want.seed = recorded.seed;
  want.epoch_len = recorded.epoch_len;
  want.shard_index = recorded.shard_index;
  want.epoch_index = recorded.epoch_index;
  // `exhaustive` is identity too, but only a Table 1 header records it.
  EXPECT_TRUE(*resumed == want) << MetaText(resumed->ToJournalMeta());
}

TEST(SpecSchema, HeaderReaderRefusesHostileIdentities) {
  CampaignSpec spec{.system = "pbft",
                    .strategy = ExploreStrategy::kRandom,
                    .budget = 16,
                    .seed = 5,
                    .shard_index = 1,
                    .shard_count = 4};
  const JournalMetadata good = spec.ToJournalMeta();
  std::string error;
  ASSERT_TRUE(CampaignSpec::FromJournalMeta(good, &error).has_value()) << error;
  const std::pair<const char*, const char*> kHostile[] = {
      {"budget", "12abc"},  {"shard", "x"},         {"shards", "-1"},
      {"seed", "0x1g"},     {"seed", "18446744073709551616"},
      {"command", "resume"}, {"command", "bogus"},  {"strategy", "fast"},
      {"epoch-len", "0"},   {"exhaustive", "1"},    {"epoch", ""}};
  for (const auto& [key, value] : kHostile) {
    JournalMetadata bad = good;
    auto it = std::find_if(bad.begin(), bad.end(), [&](const auto& kv) { return kv.first == key; });
    if (it != bad.end()) {
      it->second = value;
    } else {
      bad.emplace_back(key, value);
    }
    EXPECT_FALSE(CampaignSpec::FromJournalMeta(bad, &error).has_value()) << key << "=" << value;
  }
  // Keys the schema does not know are annotations: merges carry them along.
  JournalMetadata annotated = good;
  annotated.emplace_back("note", "anything");
  auto back = CampaignSpec::FromJournalMeta(annotated, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->ToJournalMeta(), good);
}

// One parser per field: every seed a journal header records is a valid
// --seed, in the header's hex spelling and in decimal.
TEST(SpecSchema, EverySeedAJournalRecordsIsAValidSeedFlag) {
  for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{INT64_MAX},
                        uint64_t{0x8000000000000000ull}, uint64_t{UINT64_MAX}}) {
    CampaignSpec recorded{.system = "git", .strategy = ExploreStrategy::kRandom, .seed = seed};
    std::string header_seed = MetaValue(recorded.ToJournalMeta(), "seed", "");
    for (const std::string& text : {header_seed, std::to_string(seed)}) {
      CampaignSpec parsed;
      std::string error;
      ASSERT_TRUE(ParseSpecFlags({"--seed", text}, 0, &parsed, &error)) << error;
      EXPECT_EQ(parsed.seed, seed) << text;
    }
  }
}

TEST(SpecSchema, FlagParserAcceptsTheHistoricalSpellingsAndRefusesTheRest) {
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSpecFlags({"4"}, 0, &spec, &error)) << error;  // `campaign git 4`
  EXPECT_EQ(spec.workers, 4);
  ASSERT_TRUE(ParseSpecFlags({"--workers", "0", "--shard", "0/1", "--shards", "1"}, 0, &spec,
                             &error))
      << error;
  EXPECT_EQ(spec.workers, 0);
  EXPECT_EQ(spec.shard_index, 0u);
  EXPECT_EQ(spec.shard_count, 1u);

  const std::vector<std::vector<std::string>> kRefused = {
      {"--bogus"},        {"--json"},           {"--repair"},          {"--budget"},
      {"--budget", "1x"}, {"--budget", "-1"},   {"--shards", "0"},     {"--epoch-len", "0"},
      {"--shard", "1"},   {"--shard", "1/0"},   {"--shard", "a/2"},    {"--seed", "-1"},
      {"--workers", "two"}, {"--cold-start", "--bogus"}, {"two"},   {"--shards", "-1"},
      {"--budget", "12abc"}, {"--budget", ""},  {"--budget", "18446744073709551616"},
      {"--seed", "0x"},   {"--strategy", "fast"}, {"--workers", "4294967296"}};
  for (const std::vector<std::string>& args : kRefused) {
    CampaignSpec refused;
    EXPECT_FALSE(ParseSpecFlags(args, 0, &refused, &error)) << args[0];
    EXPECT_NE(error, "");
  }
  // The full unsigned range is not malformed.
  ASSERT_TRUE(ParseSpecFlags({"--budget", "18446744073709551615"}, 0, &spec, &error)) << error;
  EXPECT_EQ(spec.budget, SIZE_MAX);
  // The range check across fields stays in Validate.
  CampaignSpec out_of_range{.system = "pbft", .journal_path = "j.lfij"};
  ASSERT_TRUE(ParseSpecFlags({"--shard", "4/4"}, 0, &out_of_range, &error)) << error;
  EXPECT_NE(out_of_range.Validate(), "");
}

TEST(SpecSchema, UsageListsEveryDocumentedFlag) {
  std::string usage = SpecFlagsUsage();
  for (const char* flag : {"--strategy", "--exhaustive", "--budget", "--seed", "--workers",
                           "--journal", "--shard I/N", "--shards", "--epoch-len",
                           "--child-timeout-ms", "--max-retries", "--backoff-ms",
                           "--job-timeout-ms", "--cold-start", "--failpoints"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
  EXPECT_EQ(usage.find("--abort-after"), std::string::npos);  // a test hook
}

TEST(CampaignSpec, NameTablesRoundTrip) {
  for (CampaignMode mode : {CampaignMode::kTable1, CampaignMode::kExplore,
                            CampaignMode::kResume, CampaignMode::kReplay}) {
    EXPECT_EQ(ParseCampaignMode(CampaignModeName(mode)), mode);
  }
  // The historical journal-header spelling of table1 mode stays parseable.
  EXPECT_EQ(ParseCampaignMode("campaign"), CampaignMode::kTable1);
  EXPECT_FALSE(ParseCampaignMode("bogus").has_value());
  for (ExploreStrategy strategy : {ExploreStrategy::kExhaustive, ExploreStrategy::kRandom,
                                   ExploreStrategy::kCoverage}) {
    EXPECT_EQ(ParseExploreStrategy(ExploreStrategyName(strategy)), strategy);
  }
  EXPECT_FALSE(ParseExploreStrategy("bogus").has_value());
  for (const std::string& system : CampaignSystemNames()) {
    EXPECT_TRUE(IsCampaignSystem(system));
  }
  EXPECT_FALSE(IsCampaignSystem("all"));
  EXPECT_FALSE(IsCampaignSystem("httpd"));
}

TEST(CampaignSpec, ValidateRejectsUnrunnableSpecs) {
  auto spec = [] {
    CampaignSpec s;
    s.system = "pbft";
    s.mode = CampaignMode::kExplore;
    s.journal_path = "j.lfij";
    return s;
  };
  EXPECT_EQ(spec().Validate(), "");

  CampaignSpec s = spec();
  s.system = "nope";
  EXPECT_NE(s.Validate(), "");

  s = spec();  // coverage strategy cannot be dealt across processes
  s.strategy = ExploreStrategy::kCoverage;
  s.shard_count = 4;
  EXPECT_NE(s.Validate(), "");
  s.strategy = ExploreStrategy::kRandom;
  EXPECT_EQ(s.Validate(), "");

  s = spec();  // sharding needs the journal artifacts
  s.shard_count = 4;
  s.journal_path.clear();
  EXPECT_NE(s.Validate(), "");

  s = spec();  // shard index in range
  s.shard_count = 4;
  s.shard_index = 4;
  EXPECT_NE(s.Validate(), "");

  s = spec();  // table1 sharding requires the cutoff-free variant
  s.mode = CampaignMode::kTable1;
  s.shard_count = 2;
  EXPECT_NE(s.Validate(), "");
  s.exhaustive = true;
  EXPECT_EQ(s.Validate(), "");

  s = CampaignSpec();  // resume/replay operate on a journal
  s.mode = CampaignMode::kResume;
  EXPECT_NE(s.Validate(), "");
  s.journal_path = "j.lfij";
  EXPECT_EQ(s.Validate(), "");

  s = CampaignSpec();  // "all" only in table1 mode, never journaled
  s.system = "all";
  s.mode = CampaignMode::kTable1;
  EXPECT_EQ(s.Validate(), "");
  s.journal_path = "j.lfij";
  EXPECT_NE(s.Validate(), "");
  s.journal_path.clear();
  s.mode = CampaignMode::kExplore;
  EXPECT_NE(s.Validate(), "");
}

// --- ShardSource dealing ----------------------------------------------------

TEST(ShardSource, DealsByFingerprintIntoADisjointCover) {
  EnsureStockTriggersRegistered();
  std::vector<CampaignJob> jobs;
  for (uint64_t i = 1; i <= 40; ++i) {
    CampaignJob job;
    job.scenario = MakeCallCountScenario("read", i, -1, 5);
    job.label = StrFormat("job-%llu", (unsigned long long)i);
    job.seed = i;
    jobs.push_back(std::move(job));
  }

  constexpr size_t kShards = 4;
  std::vector<size_t> stream_indices;
  size_t total = 0;
  for (size_t shard = 0; shard < kShards; ++shard) {
    ExhaustiveSource inner(jobs);
    ShardSource source(inner, shard, kShards);
    EXPECT_EQ(source.stream_size(), jobs.size());
    std::vector<CampaignJob> dealt = source.NextBatch(jobs.size());
    EXPECT_EQ(dealt.size(), source.size());
    total += dealt.size();
    for (const CampaignJob& job : dealt) {
      ASSERT_NE(job.stream_index, CampaignJob::kNoStreamIndex);
      // The stamped position refers back to the unsharded stream.
      EXPECT_TRUE(job.scenario == jobs[job.stream_index].scenario);
      EXPECT_EQ(job.label, jobs[job.stream_index].label);
      // Dealing is content-keyed: the assignment recomputes from the
      // scenario alone.
      EXPECT_EQ(ScenarioShard(job.scenario, kShards), shard);
      stream_indices.push_back(job.stream_index);
    }
  }
  // Union of the shards is exactly the stream, each job exactly once.
  EXPECT_EQ(total, jobs.size());
  std::sort(stream_indices.begin(), stream_indices.end());
  for (size_t i = 0; i < stream_indices.size(); ++i) {
    EXPECT_EQ(stream_indices[i], i);
  }

  // Feedback-driven sources cannot be dealt; out-of-range coordinates throw.
  ExhaustiveSource inner(jobs);
  EXPECT_THROW(ShardSource(inner, 4, 4), std::invalid_argument);
}

// --- the multi-process acceptance bar ---------------------------------------

// Runs the pbft exploration single-process and as 2 and 4 forked shards,
// then checks the satellite property: merging the shard journals in ANY
// input order yields a bit-identical merged journal -- which is also
// byte-identical to the single-process journal -- with the same bug list and
// coverage at equal total budget, and the merged journal resumes cleanly.
TEST(ShardedCampaign, MergeIsOrderInvariantAndMatchesSingleProcess) {
  EnsureStockTriggersRegistered();
  std::string single_path = TempPath("spec_single.lfij");
  RemoveCampaignArtifacts(single_path);

  CampaignSpec spec;
  spec.system = "pbft";
  spec.mode = CampaignMode::kExplore;
  spec.strategy = ExploreStrategy::kRandom;
  spec.budget = 12;
  spec.seed = 5;

  CampaignSpec single = spec;
  single.journal_path = single_path;
  std::string error;
  auto single_outcome = CampaignDriver(single).Run(&error);
  ASSERT_TRUE(single_outcome.has_value()) << error;
  std::string single_bytes = ReadFile(single_path);

  for (size_t shards : {2u, 4u}) {
    SCOPED_TRACE(shards);
    std::string merged_path = TempPath(StrFormat("spec_merged_%zu.lfij", shards));
    RemoveCampaignArtifacts(merged_path, shards);
    CampaignSpec sharded = spec;
    sharded.journal_path = merged_path;
    sharded.shard_count = shards;
    auto sharded_outcome = CampaignDriver(sharded).Run(&error);
    ASSERT_TRUE(sharded_outcome.has_value()) << error;
    ASSERT_EQ(sharded_outcome->shards.size(), shards);

    // Equal total budget, same bugs, same coverage, byte-identical journal.
    EXPECT_EQ(sharded_outcome->scenarios_run, single_outcome->scenarios_run);
    EXPECT_EQ(sharded_outcome->bugs, single_outcome->bugs);
    EXPECT_EQ(sharded_outcome->coverage.hits(), single_outcome->coverage.hits());
    EXPECT_EQ(ReadFile(merged_path), single_bytes);

    // Every input permutation merges to the same bytes.
    std::vector<std::string> inputs;
    size_t shard_records = 0;
    for (const MergeInputStats& shard : sharded_outcome->shards) {
      inputs.push_back(shard.path);
      shard_records += shard.records;
    }
    EXPECT_EQ(shard_records, single_outcome->scenarios_run);
    std::sort(inputs.begin(), inputs.end());
    int permutation = 0;
    do {
      std::string out_path = TempPath(StrFormat("spec_perm_%d.lfij", permutation));
      std::remove(out_path.c_str());
      auto merged = MergeJournals(inputs, out_path, &error);
      ASSERT_TRUE(merged.has_value()) << error;
      EXPECT_EQ(merged->bugs, single_outcome->bugs);
      EXPECT_EQ(ReadFile(out_path), single_bytes) << "permutation " << permutation;
      ++permutation;
    } while (std::next_permutation(inputs.begin(), inputs.end()) && permutation < 6);
    EXPECT_GE(permutation, 2);

    // The merged journal is a valid resumable campaign: resume replays it to
    // the same result without re-executing (and without touching the bytes).
    CampaignOutcome resumed =
        RunSpec({.mode = CampaignMode::kResume, .workers = 2, .journal_path = merged_path});
    EXPECT_EQ(resumed.bugs, single_outcome->bugs);
    EXPECT_EQ(resumed.coverage.hits(), single_outcome->coverage.hits());
    EXPECT_EQ(resumed.scenarios_run, single_outcome->scenarios_run);
    EXPECT_EQ(ReadFile(merged_path), single_bytes);

    // A killed orchestration leaves finished shard journals behind;
    // re-running the same spec resumes them from disk (completed shards
    // replay entirely) instead of demanding their deletion, and still merges
    // byte-identically.
    std::remove(merged_path.c_str());
    auto rerun_outcome = CampaignDriver(sharded).Run(&error);
    ASSERT_TRUE(rerun_outcome.has_value()) << error;
    EXPECT_EQ(rerun_outcome->bugs, single_outcome->bugs);
    EXPECT_EQ(ReadFile(merged_path), single_bytes);
  }
}

// shards > scenarios: the empty shards still write valid header-only
// journals (the satellite regression) and the merge still reconstructs the
// single-process campaign.
TEST(ShardedCampaign, MoreShardsThanScenariosLeavesValidEmptyShardJournals) {
  EnsureStockTriggersRegistered();
  std::string single_path = TempPath("spec_tiny_single.lfij");
  std::string merged_path = TempPath("spec_tiny_merged.lfij");
  RemoveCampaignArtifacts(single_path);
  RemoveCampaignArtifacts(merged_path, /*shards=*/8);

  CampaignSpec spec;
  spec.system = "git";
  spec.mode = CampaignMode::kExplore;
  spec.strategy = ExploreStrategy::kRandom;
  spec.budget = 3;
  spec.seed = 7;

  CampaignSpec single = spec;
  single.journal_path = single_path;
  std::string error;
  auto single_outcome = CampaignDriver(single).Run(&error);
  ASSERT_TRUE(single_outcome.has_value()) << error;
  ASSERT_EQ(single_outcome->scenarios_run, 3u);

  CampaignSpec sharded = spec;
  sharded.journal_path = merged_path;
  sharded.shard_count = 8;  // > 3 scenarios: at least five shards are empty
  auto sharded_outcome = CampaignDriver(sharded).Run(&error);
  ASSERT_TRUE(sharded_outcome.has_value()) << error;

  size_t empty_shards = 0;
  for (const MergeInputStats& shard : sharded_outcome->shards) {
    if (shard.records != 0) {
      continue;
    }
    ++empty_shards;
    // The empty shard's artifact is a loadable header-only journal whose
    // header still names the campaign (and its shard coordinates).
    auto journal = CampaignJournal::Load(shard.path, &error);
    ASSERT_TRUE(journal.has_value()) << shard.path << ": " << error;
    EXPECT_TRUE(journal->records().empty());
    EXPECT_EQ(journal->Meta("system"), "git");
    EXPECT_EQ(journal->Meta("shards"), "8");
  }
  EXPECT_GE(empty_shards, 5u);
  EXPECT_EQ(sharded_outcome->bugs, single_outcome->bugs);
  EXPECT_EQ(ReadFile(merged_path), ReadFile(single_path));
}

// Sharded Table 1 is the same one-epoch orchestration: bfs's and bind's
// exhaustive job lists, second-phase jobs included, merge to the
// single-process journal's bytes. The phase jobs cross to the shard workers
// as data and run there on the second-phase workload.
TEST(ShardedCampaign, Table1ExhaustiveAtThreeShardsMatchesSingleProcess) {
  EnsureStockTriggersRegistered();
  for (const char* system : {"bfs", "bind"}) {
    SCOPED_TRACE(system);
    std::string single_path = TempPath(StrFormat("spec_t1_%s_single.lfij", system));
    std::string merged_path = TempPath(StrFormat("spec_t1_%s_merged.lfij", system));
    RemoveCampaignArtifacts(single_path);
    RemoveCampaignArtifacts(merged_path, /*shards=*/3);

    CampaignSpec spec{.system = system, .mode = CampaignMode::kTable1, .exhaustive = true};
    CampaignSpec single = spec;
    single.journal_path = single_path;
    CampaignOutcome single_outcome = RunSpec(single);
    CampaignSpec sharded = spec;
    sharded.journal_path = merged_path;
    sharded.shard_count = 3;
    CampaignOutcome sharded_outcome = RunSpec(sharded);

    ExpectSameBugs(single_outcome.bugs, sharded_outcome.bugs);
    EXPECT_EQ(ReadFile(merged_path), ReadFile(single_path));
    ASSERT_EQ(sharded_outcome.shards.size(), 3u);
    EXPECT_EQ(sharded_outcome.shards[1].path, sharded.ShardJournalPath(1));

    // The phase jobs ran on the phase workload, not the main one: the vnet
    // partial-transfer harness fingerprints its runs "mux:<faults>", and
    // only bind's dst_lib_init sweep trips dst_lib_destroy's assertion.
    std::string error;
    auto journal = CampaignJournal::Load(merged_path, &error);
    ASSERT_TRUE(journal.has_value()) << error;
    size_t phase_jobs = 0;
    bool dst_bug = false;
    for (const JournalRecord& record : journal->records()) {
      EXPECT_EQ(record.epoch, kNoEpoch);
      if (StartsWith(record.label, "partial send/recv over vnet")) {
        ++phase_jobs;
        EXPECT_TRUE(StartsWith(record.result.fingerprint, "mux:")) << record.label;
      } else if (record.label.ends_with("= NULL in dst_lib_init")) {
        ++phase_jobs;
        for (const FoundBug& bug : record.result.bugs) {
          dst_bug |= bug.where == "dst_lib_destroy: REQUIRE(dst_initialized)";
        }
      }
    }
    const bool bind = std::string(system) == "bind";
    EXPECT_EQ(phase_jobs, bind ? static_cast<size_t>(MiniBind::kDstAllocations) : size_t{12});
    EXPECT_EQ(dst_bug, bind);
  }
}

// An open-loop orchestration killed after it merged (before the merged
// journal's tail was sealed) resumes with `resume --shards 4`: the finished
// shard journals replay from disk and the merged bytes equal the unkilled
// run's.
TEST(ShardedCampaign, KilledOpenLoopOrchestrationResumesByteIdentical) {
  EnsureStockTriggersRegistered();
  std::string full_path = TempPath("spec_kill_full.lfij");
  std::string killed_path = TempPath("spec_kill_killed.lfij");
  RemoveCampaignArtifacts(full_path, /*shards=*/4);
  RemoveCampaignArtifacts(killed_path, /*shards=*/4);

  CampaignSpec spec{.system = "pbft", .strategy = ExploreStrategy::kRandom, .budget = 24,
                    .seed = 5, .shard_count = 4};
  CampaignSpec full = spec;
  full.journal_path = full_path;
  CampaignOutcome full_outcome = RunSpec(full);

  CampaignSpec killed = spec;
  killed.journal_path = killed_path;
  killed.abort_after_records = 1;
  EXPECT_EXIT(RunSpec(killed), ::testing::ExitedWithCode(3), "");
  // 24 records: the first 16-record extent is sealed, the rest torn away.
  std::string error;
  auto torn = CampaignJournal::Load(killed_path, &error);
  ASSERT_TRUE(torn.has_value()) << error;
  EXPECT_LT(torn->records().size(), 24u);

  CampaignOutcome resumed = RunSpec(
      {.mode = CampaignMode::kResume, .journal_path = killed_path, .shard_count = 4});
  ExpectSameBugs(full_outcome.bugs, resumed.bugs);
  EXPECT_EQ(ReadFile(killed_path), ReadFile(full_path));
}

// Merging journals from different campaigns must be refused, not silently
// interleaved.
TEST(ShardedCampaign, MergeRejectsMismatchedCampaignIdentity) {
  EnsureStockTriggersRegistered();
  std::string a_path = TempPath("spec_merge_a.lfij");
  std::string b_path = TempPath("spec_merge_b.lfij");
  std::string out_path = TempPath("spec_merge_out.lfij");
  std::remove(a_path.c_str());
  std::remove(b_path.c_str());
  std::remove(out_path.c_str());

  CampaignSpec spec;
  spec.system = "git";
  spec.mode = CampaignMode::kExplore;
  spec.strategy = ExploreStrategy::kRandom;
  spec.budget = 2;
  spec.seed = 1;
  spec.journal_path = a_path;
  std::string error;
  ASSERT_TRUE(CampaignDriver(spec).Run(&error).has_value()) << error;
  spec.seed = 2;  // a different campaign
  spec.journal_path = b_path;
  ASSERT_TRUE(CampaignDriver(spec).Run(&error).has_value()) << error;

  EXPECT_FALSE(MergeJournals({a_path, b_path}, out_path, &error).has_value());
  EXPECT_NE(error.find("different campaigns"), std::string::npos) << error;

  // Overlapping inputs (the same journal twice) would double-count results
  // into a journal no resume could align; refused too.
  EXPECT_FALSE(MergeJournals({a_path, a_path}, out_path, &error).has_value());
  EXPECT_NE(error.find("overlap"), std::string::npos) << error;

  // And an existing output is never clobbered.
  EXPECT_FALSE(MergeJournals({a_path}, a_path, &error).has_value());
}

// --- driver modes beyond explore --------------------------------------------

TEST(CampaignDriver, ReplayModeReproducesJournaledCrashes) {
  EnsureStockTriggersRegistered();
  std::string path = TempPath("spec_replay.lfij");
  std::remove(path.c_str());

  CampaignSpec record;
  record.system = "pbft";
  record.mode = CampaignMode::kExplore;
  record.strategy = ExploreStrategy::kCoverage;
  record.budget = 12;
  record.seed = 3;
  record.journal_path = path;
  std::string error;
  auto recorded = CampaignDriver(record).Run(&error);
  ASSERT_TRUE(recorded.has_value()) << error;
  ASSERT_FALSE(recorded->bugs.empty());

  CampaignSpec replay;
  replay.mode = CampaignMode::kReplay;
  replay.journal_path = path;
  auto outcome = CampaignDriver(replay).Run(&error);
  ASSERT_TRUE(outcome.has_value()) << error;
  EXPECT_TRUE(outcome->ok);
  EXPECT_GT(outcome->replays_expected, 0u);
  EXPECT_EQ(outcome->replays_reproduced, outcome->replays_expected);
  EXPECT_FALSE(outcome->replays.empty());
}

}  // namespace
}  // namespace lfi
