// lfi_tool: the command-line face of the tool chain, operating on SimELF
// binaries on disk exactly the way the released LFI operated on ELF files.
//
//   lfi_tool emit-libc <out.self>            write the libc binary to disk
//   lfi_tool emit-app {git|bind|mysql|pbft|bfs|httpd} <out.self>
//   lfi_tool disasm <binary.self>            disassembly listing
//   lfi_tool profile <library.self>          fault profile XML to stdout
//   lfi_tool analyze <app.self> <library.self> [function]
//                                            call-site report + generated
//                                            injection scenarios (C_not)
//
// Every campaign-shaped subcommand below is one CampaignSpec handed to one
// CampaignDriver (src/apps/common); the tool only parses options and prints
// the CampaignOutcome.
//
//   lfi_tool campaign {git|mysql|bind|pbft|bfs|all} [workers]
//       [--workers W] [--exhaustive] [--journal PATH] [--json]
//                                            the §7.1 bug campaign
//   lfi_tool explore {git|mysql|bind|pbft|bfs}
//       [--strategy exhaustive|random|coverage] [--budget N] [--seed S]
//       [--workers W] [--journal PATH] [--shard I/N] [--shards N]
//       [--epoch-len K] [--json]             feedback-driven exploration;
//                                            --shard runs one dealt shard of
//                                            the stream (manual multi-machine
//                                            sharding); --shards N with the
//                                            coverage strategy runs the
//                                            epoch-synchronized distributed
//                                            campaign (requires --epoch-len K
//                                            merged batches per epoch)
//   lfi_tool shard {git|mysql|bind|pbft|bfs} --shards N --journal PATH
//       [--strategy exhaustive|random|coverage] [--budget N] [--seed S]
//       [--workers W] [--epoch-len K] [--json]
//                                            multi-process campaign: spawns N
//                                            child lfi_tool processes, one
//                                            per shard, then merges their
//                                            journals into PATH (coverage
//                                            strategy: epoch-synchronized,
//                                            needs --epoch-len K)
//   lfi_tool merge <out.lfij> <in.lfij...> [--json]
//                                            merge shard journals into one
//                                            resumable campaign journal
//   lfi_tool resume <journal> [--workers W] [--shards N] [--json]
//                                            continue a killed journaled
//                                            campaign bit-identically;
//                                            --shards N continues it as a
//                                            multi-process orchestration
//   lfi_tool replay <journal> [record[:injection]] [--json]
//                                            re-inject a journaled injection
//                                            from disk alone and check it
//                                            reproduces the recorded crash
//   lfi_tool journal info <path> [--json]    inspect a journal artifact,
//                                            including a per-epoch breakdown
//                                            for epoch-synchronized journals;
//                                            exits nonzero if stream indexes
//                                            fail to advance or epochs
//                                            overlap/regress
//   lfi_tool journal dump <path>             print a journal as XML (header
//                                            and every record) for reading
//                                            by eye
//   lfi_tool journal doctor <path> [--repair] [--json]
//                                            diagnose a journal artifact:
//                                            torn tails, stale/missing extent
//                                            footers, epoch invariant
//                                            violations, a campaign identity
//                                            naming an unknown target system,
//                                            and orphaned shard/
//                                            frontier artifacts. --repair
//                                            truncates torn tails, reseals
//                                            the footer, and removes orphans.
//                                            Exit: 0 healthy/repaired, 1
//                                            unreadable, 2 usage, 3
//                                            repairable issues found, 4
//                                            invariant violation
//   lfi_tool run-spec <spec.xml>             run a serialized CampaignSpec
//                                            (the shard orchestrator's
//                                            parent->child wire format).
//                                            Exit 78 when it refuses the
//                                            spec (unparsable, invalid, or
//                                            its journal records another
//                                            campaign): never retried
//
// Campaign-shaped subcommands also accept the supervision options
// --child-timeout-ms MS, --max-retries R, --backoff-ms MS (shard child
// deadline/retry policy), --job-timeout-ms MS (per-job hang detection), and
// --failpoints SPEC (deterministic fault injection into the orchestrator
// itself; see src/util/failpoint.h for the spec syntax). None of these enter
// the campaign identity.
//
// Journals have one on-disk encoding, the binary extent format
// (docs/journal-format.md); the journal subcommands are thin printers over
// src/apps/common/journal_inspect.h.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/callsite_analyzer.h"
#include "apps/bfs/bfs.h"
#include "apps/bind/bind.h"
#include "apps/common/campaign_driver.h"
#include "apps/common/campaign_spec.h"
#include "apps/common/journal_inspect.h"
#include "apps/common/shard_supervisor.h"
#include "apps/git/git.h"
#include "apps/httpd/httpd.h"
#include "apps/mysql/mysql.h"
#include "apps/pbft/pbft.h"
#include "core/analysis_cache.h"
#include "core/journal.h"
#include "core/scenario_gen.h"
#include "core/stock_triggers.h"
#include "profiler/profiler.h"
#include "profiler/stub_gen.h"
#include "util/string_util.h"
#include "vlib/library_profiles.h"

namespace {

bool WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

std::optional<lfi::Image> ReadImage(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  auto image = lfi::Image::Deserialize(bytes);
  if (!image) {
    std::fprintf(stderr, "%s is not a valid SimELF image\n", path.c_str());
  }
  return image;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  lfi_tool emit-libc <out.self>\n"
               "  lfi_tool emit-app {git|bind|mysql|pbft|bfs|httpd} <out.self>\n"
               "  lfi_tool disasm <binary.self>\n"
               "  lfi_tool profile <library.self>\n"
               "  lfi_tool analyze <app.self> <library.self> [function]\n"
               "  lfi_tool campaign {git|mysql|bind|pbft|bfs|all} [workers] [--workers W]\n"
               "                    [--exhaustive] [--journal PATH] [--json]\n"
               "  lfi_tool explore {git|mysql|bind|pbft|bfs} [--strategy "
               "exhaustive|random|coverage]\n"
               "                   [--budget N] [--seed S] [--workers W] [--journal PATH]\n"
               "                   [--shard I/N] [--shards N] [--epoch-len K] [--json]\n"
               "  lfi_tool shard {git|mysql|bind|pbft|bfs} --shards N --journal PATH\n"
               "                 [--strategy exhaustive|random|coverage] [--budget N]\n"
               "                 [--seed S] [--workers W] [--epoch-len K] [--json]\n"
               "  lfi_tool merge <out> <in...> [--json]\n"
               "  lfi_tool resume <journal> [--workers W] [--shards N] [--json]\n"
               "  lfi_tool replay <journal> [record[:injection]] [--json]\n"
               "  lfi_tool journal info <path> [--json]\n"
               "  lfi_tool journal dump <path>\n"
               "  lfi_tool journal doctor <path> [--repair] [--json]\n"
               "  lfi_tool run-spec <spec.xml>\n"
               "campaign subcommands also accept supervision options:\n"
               "  --child-timeout-ms MS --max-retries R --backoff-ms MS\n"
               "  --job-timeout-ms MS --failpoints SPEC --cold-start\n");
  return 2;
}

// Options shared by the campaign-shaped subcommands, parsed by the one
// parser so every subcommand accepts the same spellings -- including --json
// -- and rejects unknown options the same way. A bare integer is accepted as
// the worker count (the historical `campaign <system> <workers>` form).
struct ToolOptions {
  int workers = 1;
  lfi::ExploreStrategy strategy = lfi::ExploreStrategy::kExhaustive;
  size_t budget = 0;
  uint64_t seed = 1;
  bool exhaustive = false;
  std::string journal;
  size_t shard_index = lfi::CampaignSpec::kNoShard;  // --shard I/N
  size_t shard_count = 1;                            // --shard I/N or --shards N
  size_t epoch_len = 0;    // --epoch-len K (epoch-synchronized coverage runs)
  size_t abort_after = 0;  // undocumented test hook (CI kill-and-resume)
  // Supervision policy (campaign_spec.h): shard child deadlines and
  // retry/backoff, per-job hang detection, and deterministic failpoints.
  uint64_t child_timeout_ms = 0;
  size_t max_retries = 2;
  uint64_t backoff_ms = 50;
  uint64_t job_timeout_ms = 0;
  std::string failpoints;
  // --cold-start: fresh target per job (the pools' fresh-instance policy).
  bool cold_start = false;
  bool json = false;
};

// Parses args[start..] into `out`. Returns false (after printing the
// offender) on unknown options or missing values.
bool ParseToolOptions(const std::vector<std::string>& args, size_t start, ToolOptions* out) {
  for (size_t i = start; i < args.size(); ++i) {
    auto value = [&](const char* flag) -> const std::string* {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        return nullptr;
      }
      return &args[++i];
    };
    if (args[i] == "--json") {
      out->json = true;
    } else if (args[i] == "--exhaustive") {
      out->exhaustive = true;
    } else if (args[i] == "--cold-start") {
      out->cold_start = true;
    } else if (args[i] == "--strategy") {
      const std::string* v = value("--strategy");
      if (v == nullptr) {
        return false;
      }
      auto strategy = lfi::ParseExploreStrategy(*v);
      if (!strategy) {
        std::fprintf(stderr, "unknown strategy '%s'\n", v->c_str());
        return false;
      }
      out->strategy = *strategy;
    } else if (args[i] == "--budget") {
      const std::string* v = value("--budget");
      if (v == nullptr) {
        return false;
      }
      auto parsed = lfi::ParseInt(*v);
      if (!parsed || *parsed < 0) {
        std::fprintf(stderr, "bad --budget value '%s'\n", v->c_str());
        return false;
      }
      out->budget = static_cast<size_t>(*parsed);
    } else if (args[i] == "--seed") {
      const std::string* v = value("--seed");
      if (v == nullptr) {
        return false;
      }
      auto parsed = lfi::ParseInt(*v);
      if (!parsed || *parsed < 0) {
        std::fprintf(stderr, "bad --seed value '%s'\n", v->c_str());
        return false;
      }
      out->seed = static_cast<uint64_t>(*parsed);
    } else if (args[i] == "--workers") {
      const std::string* v = value("--workers");
      if (v == nullptr) {
        return false;
      }
      auto parsed = lfi::ParseInt(*v);  // <= 0 is meaningful: one per hw thread
      if (!parsed) {
        std::fprintf(stderr, "bad --workers value '%s'\n", v->c_str());
        return false;
      }
      out->workers = static_cast<int>(*parsed);
    } else if (args[i] == "--journal") {
      const std::string* v = value("--journal");
      if (v == nullptr) {
        return false;
      }
      out->journal = *v;
    } else if (args[i] == "--shards") {
      const std::string* v = value("--shards");
      if (v == nullptr) {
        return false;
      }
      auto parsed = lfi::ParseInt(*v);
      if (!parsed || *parsed < 1) {
        std::fprintf(stderr, "bad --shards value '%s'\n", v->c_str());
        return false;
      }
      out->shard_count = static_cast<size_t>(*parsed);
    } else if (args[i] == "--epoch-len") {
      const std::string* v = value("--epoch-len");
      if (v == nullptr) {
        return false;
      }
      auto parsed = lfi::ParseInt(*v);
      if (!parsed || *parsed < 1) {
        std::fprintf(stderr, "bad --epoch-len value '%s'\n", v->c_str());
        return false;
      }
      out->epoch_len = static_cast<size_t>(*parsed);
    } else if (args[i] == "--shard") {
      const std::string* v = value("--shard");
      if (v == nullptr) {
        return false;
      }
      std::vector<std::string> parts = lfi::Split(*v, '/');
      auto index = parts.size() == 2 ? lfi::ParseInt(parts[0]) : std::nullopt;
      auto count = parts.size() == 2 ? lfi::ParseInt(parts[1]) : std::nullopt;
      if (!index || !count || *index < 0 || *count < 1 || *index >= *count) {
        std::fprintf(stderr, "bad --shard value '%s' (want I/N with I < N)\n", v->c_str());
        return false;
      }
      out->shard_index = static_cast<size_t>(*index);
      out->shard_count = static_cast<size_t>(*count);
    } else if (args[i] == "--child-timeout-ms") {
      const std::string* v = value("--child-timeout-ms");
      if (v == nullptr) {
        return false;
      }
      auto parsed = lfi::ParseInt(*v);
      if (!parsed || *parsed < 0) {
        std::fprintf(stderr, "bad --child-timeout-ms value '%s'\n", v->c_str());
        return false;
      }
      out->child_timeout_ms = static_cast<uint64_t>(*parsed);
    } else if (args[i] == "--max-retries") {
      const std::string* v = value("--max-retries");
      if (v == nullptr) {
        return false;
      }
      auto parsed = lfi::ParseInt(*v);
      if (!parsed || *parsed < 0) {
        std::fprintf(stderr, "bad --max-retries value '%s'\n", v->c_str());
        return false;
      }
      out->max_retries = static_cast<size_t>(*parsed);
    } else if (args[i] == "--backoff-ms") {
      const std::string* v = value("--backoff-ms");
      if (v == nullptr) {
        return false;
      }
      auto parsed = lfi::ParseInt(*v);
      if (!parsed || *parsed < 0) {
        std::fprintf(stderr, "bad --backoff-ms value '%s'\n", v->c_str());
        return false;
      }
      out->backoff_ms = static_cast<uint64_t>(*parsed);
    } else if (args[i] == "--job-timeout-ms") {
      const std::string* v = value("--job-timeout-ms");
      if (v == nullptr) {
        return false;
      }
      auto parsed = lfi::ParseInt(*v);
      if (!parsed || *parsed < 0) {
        std::fprintf(stderr, "bad --job-timeout-ms value '%s'\n", v->c_str());
        return false;
      }
      out->job_timeout_ms = static_cast<uint64_t>(*parsed);
    } else if (args[i] == "--failpoints") {
      const std::string* v = value("--failpoints");
      if (v == nullptr) {
        return false;
      }
      out->failpoints = *v;
    } else if (args[i] == "--abort-after") {
      const std::string* v = value("--abort-after");
      if (v == nullptr) {
        return false;
      }
      auto parsed = lfi::ParseInt(*v);
      if (!parsed || *parsed < 0) {
        std::fprintf(stderr, "bad --abort-after value '%s'\n", v->c_str());
        return false;
      }
      out->abort_after = static_cast<size_t>(*parsed);
    } else if (auto workers = lfi::ParseInt(args[i])) {
      out->workers = static_cast<int>(*workers);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", args[i].c_str());
      return false;
    }
  }
  return true;
}

lfi::CampaignSpec SpecFromOptions(lfi::CampaignMode mode, const std::string& system,
                                  const ToolOptions& options) {
  lfi::CampaignSpec spec;
  spec.system = system;
  spec.mode = mode;
  spec.strategy = options.strategy;
  spec.exhaustive = options.exhaustive;
  spec.budget = options.budget;
  spec.seed = options.seed;
  spec.workers = options.workers;
  spec.journal_path = options.journal;
  spec.shard_index = options.shard_index;
  spec.shard_count = options.shard_count;
  spec.epoch_len = options.epoch_len;
  spec.abort_after_records = options.abort_after;
  spec.child_timeout_ms = options.child_timeout_ms;
  spec.max_retries = options.max_retries;
  spec.backoff_ms = options.backoff_ms;
  spec.job_timeout_ms = options.job_timeout_ms;
  spec.failpoints = options.failpoints;
  spec.cold_start = options.cold_start;
  return spec;
}

// --- outcome printing -------------------------------------------------------

// Machine-readable FoundBug records, one JSON object per bug.
std::string BugsJson(const std::vector<lfi::FoundBug>& bugs) {
  std::string out = "[";
  for (size_t i = 0; i < bugs.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += lfi::StrFormat(
        "{\"system\":\"%s\",\"kind\":\"%s\",\"where\":\"%s\",\"injected\":\"%s\"}",
        lfi::JsonEscape(bugs[i].system).c_str(), lfi::JsonEscape(bugs[i].kind).c_str(),
        lfi::JsonEscape(bugs[i].where).c_str(), lfi::JsonEscape(bugs[i].injected).c_str());
  }
  out += "]";
  return out;
}

void PrintBugTable(const std::vector<lfi::FoundBug>& bugs) {
  std::printf("%-7s %-20s %-55s %s\n", "system", "kind", "where", "injected");
  for (const lfi::FoundBug& bug : bugs) {
    std::printf("%-7s %-20s %-55s %s\n", bug.system.c_str(), bug.kind.c_str(),
                bug.where.c_str(), bug.injected.c_str());
  }
  std::printf("%zu distinct bug(s)\n", bugs.size());
}

std::string CoverageJson(const lfi::CoverageMap& coverage) {
  lfi::CoverageMap::Stats stats = coverage.ComputeStats();
  return lfi::StrFormat(
      "{\"recovery_blocks\":%zu,\"covered_recovery_blocks\":%zu,"
      "\"total_blocks\":%zu,\"covered_blocks\":%zu,\"covered_lines\":%d}",
      stats.recovery_blocks, stats.covered_recovery_blocks, stats.total_blocks,
      stats.covered_blocks, stats.covered_lines);
}

std::string ShardsJson(const std::vector<lfi::MergeInputStats>& shards) {
  std::string out = "[";
  for (size_t i = 0; i < shards.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += lfi::StrFormat(
        "{\"shard\":%lld,\"journal\":\"%s\",\"records\":%zu,"
        "\"scenarios_run\":%zu,\"bugs\":%zu}",
        shards[i].shard_index == static_cast<size_t>(-1)
            ? -1LL
            : static_cast<long long>(shards[i].shard_index),
        lfi::JsonEscape(shards[i].path).c_str(), shards[i].records, shards[i].scenarios_run,
        shards[i].bugs);
  }
  out += "]";
  return out;
}

void PrintShardTable(const std::vector<lfi::MergeInputStats>& shards) {
  for (const lfi::MergeInputStats& shard : shards) {
    std::printf("shard %s: %zu record(s), %zu scenario(s) run, %zu bug(s)  [%s]\n",
                shard.shard_index == static_cast<size_t>(-1)
                    ? "?"
                    : lfi::StrFormat("%zu", shard.shard_index).c_str(),
                shard.records, shard.scenarios_run, shard.bugs, shard.path.c_str());
  }
}

void PrintExplorationSummary(const char* command, const std::string& system,
                             const char* strategy, size_t budget, uint64_t seed,
                             const lfi::CampaignOutcome& outcome, bool json) {
  lfi::CoverageMap::Stats stats = outcome.coverage.ComputeStats();
  if (json) {
    std::string extra;
    if (!outcome.shards.empty()) {
      extra = lfi::StrFormat(",\"journal\":\"%s\",\"shards\":%s",
                             lfi::JsonEscape(outcome.journal_path).c_str(),
                             ShardsJson(outcome.shards).c_str());
    }
    std::printf(
        "{\"command\":\"%s\",\"system\":\"%s\",\"strategy\":\"%s\","
        "\"budget\":%zu,\"seed\":%llu,\"scenarios_run\":%zu,"
        "\"coverage\":%s,\"bugs\":%s,\"count\":%zu%s}\n",
        command, lfi::JsonEscape(system).c_str(), strategy, budget, (unsigned long long)seed,
        outcome.scenarios_run, CoverageJson(outcome.coverage).c_str(),
        BugsJson(outcome.bugs).c_str(), outcome.bugs.size(), extra.c_str());
  } else {
    if (!outcome.shards.empty()) {
      PrintShardTable(outcome.shards);
      std::printf("merged journal: %s\n", outcome.journal_path.c_str());
    }
    std::printf("strategy %s, %zu scenario(s) run (budget %zu, seed %llu)\n", strategy,
                outcome.scenarios_run, budget, (unsigned long long)seed);
    if (outcome.shards.empty()) {
      // Run-local accounting, deliberately absent from --json: skipped or
      // not, the journal and the outcome are the same.
      std::printf("jobs executed: %zu   proven inert (fault-free result reused): %zu\n",
                  outcome.jobs_executed, outcome.jobs_proven_inert);
    }
    std::printf("recovery blocks covered: %zu/%zu   blocks covered: %zu/%zu\n",
                stats.covered_recovery_blocks, stats.recovery_blocks, stats.covered_blocks,
                stats.total_blocks);
    PrintBugTable(outcome.bugs);
  }
}

int PrintReplayOutcome(const lfi::CampaignOutcome& outcome, bool json) {
  std::string system = lfi::MetaValue(outcome.metadata, "system", "");
  std::string replays_json = "[";
  for (size_t i = 0; i < outcome.replays.size(); ++i) {
    const lfi::ReplayOutcome& replay = outcome.replays[i];
    if (json) {
      if (i > 0) {
        replays_json += ",";
      }
      replays_json += lfi::StrFormat(
          "{\"record\":%zu,\"injection\":%zu,\"function\":\"%s\",\"call\":%llu,"
          "\"crashed\":%s,\"where\":\"%s\",\"reproduced\":%s}",
          replay.record, replay.injection, lfi::JsonEscape(replay.function).c_str(),
          static_cast<unsigned long long>(replay.call_number),
          replay.crashed ? "true" : "false", lfi::JsonEscape(replay.where).c_str(),
          replay.informational ? "null" : (replay.reproduced ? "true" : "false"));
    } else {
      std::printf("record %zu injection %zu: %s call %llu -> %s%s\n", replay.record,
                  replay.injection, replay.function.c_str(),
                  static_cast<unsigned long long>(replay.call_number),
                  replay.crashed ? ("crash at " + replay.where).c_str() : "no crash",
                  !replay.informational
                      ? (replay.reproduced ? " [reproduced]" : " [MISMATCH]")
                  : replay.distributed && replay.recorded_bug
                      ? " [distributed record: informational]"
                      : "");
    }
  }
  replays_json += "]";
  if (json) {
    std::printf(
        "{\"command\":\"replay\",\"system\":\"%s\",\"replays\":%s,"
        "\"expected\":%zu,\"reproduced\":%zu}\n",
        lfi::JsonEscape(system).c_str(), replays_json.c_str(), outcome.replays_expected,
        outcome.replays_reproduced);
  } else {
    std::printf("%zu/%zu recorded crash site(s) reproduced from disk\n",
                outcome.replays_reproduced, outcome.replays_expected);
  }
  return outcome.ok ? 0 : 1;
}

// Runs a spec through the driver and prints its outcome in the shape the
// subcommand historically used. `command` names the subcommand in JSON
// output ("campaign", "explore", "shard", "resume", "replay").
int RunSpec(const char* command, lfi::CampaignSpec spec, bool json,
            const std::string& tool_path) {
  lfi::CampaignDriver driver(std::move(spec));
  driver.set_tool_path(tool_path);
  std::string error;
  auto outcome = driver.Run(&error);
  if (!outcome) {
    std::fprintf(stderr, "%s failed: %s\n", command, error.c_str());
    if (driver.refused() && std::strcmp(command, "run-spec") == 0) {
      return lfi::kChildRefusedExitStatus;  // the supervisor must not retry
    }
    return driver.spec().Validate().empty() ? 1 : 2;
  }
  switch (driver.spec().mode) {
    case lfi::CampaignMode::kTable1:
      if (json) {
        std::printf("{\"command\":\"%s\",\"system\":\"%s\",\"bugs\":%s,\"count\":%zu}\n",
                    command, lfi::JsonEscape(driver.spec().system).c_str(),
                    BugsJson(outcome->bugs).c_str(), outcome->bugs.size());
      } else {
        PrintBugTable(outcome->bugs);
      }
      return 0;
    case lfi::CampaignMode::kExplore:
      PrintExplorationSummary(command, driver.spec().system,
                              lfi::ExploreStrategyName(driver.spec().strategy),
                              driver.spec().budget, driver.spec().seed, *outcome, json);
      return 0;
    case lfi::CampaignMode::kResume: {
      // The campaign identity comes from the journal header (that is the
      // point of resume); "campaign" doubles as the strategy name for
      // table1-mode journals, as it always has.
      const lfi::JournalMetadata& meta = outcome->metadata;
      std::string strategy =
          lfi::MetaValue(meta, "strategy", lfi::MetaValue(meta, "command", "campaign"));
      size_t budget = static_cast<size_t>(
          std::strtoull(lfi::MetaValue(meta, "budget", "0").c_str(), nullptr, 0));
      uint64_t seed = std::strtoull(lfi::MetaValue(meta, "seed", "0").c_str(), nullptr, 0);
      PrintExplorationSummary(command, lfi::MetaValue(meta, "system", "?"), strategy.c_str(),
                              budget, seed, *outcome, json);
      return 0;
    }
    case lfi::CampaignMode::kReplay:
      return PrintReplayOutcome(*outcome, json);
  }
  return 0;
}

int RunMergeCommand(const std::vector<std::string>& args, size_t start) {
  std::vector<std::string> inputs;
  ToolOptions options;
  size_t i = start + 1;
  for (; i < args.size() && !lfi::StartsWith(args[i], "--"); ++i) {
    inputs.push_back(args[i]);
  }
  if (!ParseToolOptions(args, i, &options)) {
    return Usage();
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "merge needs at least one input journal\n");
    return Usage();
  }
  std::string error;
  auto outcome = lfi::MergeCampaignJournals(inputs, args[start], &error);
  if (!outcome) {
    std::fprintf(stderr, "merge failed: %s\n", error.c_str());
    return 1;
  }
  std::string strategy = lfi::MetaValue(
      outcome->metadata, "strategy", lfi::MetaValue(outcome->metadata, "command", "campaign"));
  size_t budget = static_cast<size_t>(
      std::strtoull(lfi::MetaValue(outcome->metadata, "budget", "0").c_str(), nullptr, 0));
  uint64_t seed =
      std::strtoull(lfi::MetaValue(outcome->metadata, "seed", "0").c_str(), nullptr, 0);
  PrintExplorationSummary("merge", lfi::MetaValue(outcome->metadata, "system", "?"),
                          strategy.c_str(), budget, seed, *outcome, options.json);
  return 0;
}

int RunJournalInfoCommand(const std::string& path, const ToolOptions& options) {
  std::string error;
  auto info = lfi::InspectJournal(path, &error);
  if (!info) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (!info->violation.empty()) {
    std::fprintf(stderr, "invalid journal %s: %s\n", path.c_str(), info->violation.c_str());
    return 1;
  }
  if (options.json) {
    std::string meta_json = "{";
    for (size_t i = 0; i < info->meta.size(); ++i) {
      if (i > 0) {
        meta_json += ",";
      }
      meta_json += lfi::StrFormat("\"%s\":\"%s\"", lfi::JsonEscape(info->meta[i].first).c_str(),
                                  lfi::JsonEscape(info->meta[i].second).c_str());
    }
    meta_json += "}";
    std::string epochs_json = "[";
    for (size_t i = 0; i < info->epochs.size(); ++i) {
      const lfi::EpochSummary& row = info->epochs[i];
      if (i > 0) {
        epochs_json += ",";
      }
      epochs_json += lfi::StrFormat(
          "{\"epoch\":%zu,\"records\":%zu,\"gated\":%zu,\"new_bugs\":%zu,"
          "\"new_recovery_blocks\":%zu,\"new_blocks\":%zu}",
          row.epoch, row.records, row.gated, row.new_bugs, row.new_recovery_blocks,
          row.new_blocks);
    }
    epochs_json += "]";
    std::printf(
        "{\"command\":\"journal-info\",\"path\":\"%s\",\"meta\":%s,"
        "\"records\":%zu,\"gated\":%zu,\"scenarios_run\":%zu,\"injections\":%zu,"
        "\"coverage\":%s,\"epochs\":%s,\"bugs\":%s,\"count\":%zu}\n",
        lfi::JsonEscape(path).c_str(), meta_json.c_str(), info->records, info->gated,
        info->records - info->gated, info->injections, CoverageJson(info->coverage).c_str(),
        epochs_json.c_str(), BugsJson(info->bugs).c_str(), info->bugs.size());
  } else {
    std::printf("journal %s\n", path.c_str());
    for (const auto& [key, value] : info->meta) {
      std::printf("  %-12s %s\n", key.c_str(), value.c_str());
    }
    lfi::CoverageMap::Stats stats = info->coverage.ComputeStats();
    std::printf("%zu record(s) (%zu gated), %zu injection(s)\n", info->records, info->gated,
                info->injections);
    std::printf("recovery blocks covered: %zu/%zu   blocks covered: %zu/%zu\n",
                stats.covered_recovery_blocks, stats.recovery_blocks, stats.covered_blocks,
                stats.total_blocks);
    if (!info->epochs.empty()) {
      std::printf("%-7s %-9s %-7s %-9s %-20s %s\n", "epoch", "records", "gated", "new bugs",
                  "new recovery blocks", "new blocks");
      for (const lfi::EpochSummary& row : info->epochs) {
        std::printf("%-7zu %-9zu %-7zu %-9zu %-20zu %zu\n", row.epoch, row.records, row.gated,
                    row.new_bugs, row.new_recovery_blocks, row.new_blocks);
      }
    }
    PrintBugTable(info->bugs);
  }
  return 0;
}

int RunJournalDoctorCommand(const std::string& path, bool repair, const ToolOptions& options) {
  std::string error;
  auto report = lfi::DiagnoseJournal(path, repair, &error);
  if (!report) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (!report->violation.empty()) {
    std::fprintf(stderr, "invalid journal %s: %s\n", path.c_str(), report->violation.c_str());
  }
  if (options.json) {
    std::string issues_json = "[";
    for (size_t i = 0; i < report->issues.size(); ++i) {
      const lfi::DoctorIssue& issue = report->issues[i];
      if (i > 0) {
        issues_json += ",";
      }
      issues_json += lfi::StrFormat(
          "{\"kind\":\"%s\",\"detail\":\"%s\",\"repairable\":%s,\"repaired\":%s}",
          lfi::JsonEscape(issue.kind).c_str(), lfi::JsonEscape(issue.detail).c_str(),
          issue.repairable ? "true" : "false", issue.repaired ? "true" : "false");
    }
    issues_json += "]";
    std::printf(
        "{\"command\":\"journal-doctor\",\"path\":\"%s\",\"format\":\"extent\","
        "\"records\":%zu,\"intact_bytes\":%zu,\"file_bytes\":%llu,\"sealed\":%s,"
        "\"issues\":%s,\"healthy\":%s,\"repaired\":%zu}\n",
        lfi::JsonEscape(path).c_str(), report->records, report->intact_bytes,
        static_cast<unsigned long long>(report->file_bytes), report->sealed ? "true" : "false",
        issues_json.c_str(), report->healthy() ? "true" : "false", report->repaired);
  } else {
    std::printf("journal %s: extent, %zu record(s), %llu byte(s) (%zu intact)\n", path.c_str(),
                report->records, static_cast<unsigned long long>(report->file_bytes),
                report->intact_bytes);
    for (const lfi::DoctorIssue& issue : report->issues) {
      std::printf("  %s: %s%s\n", issue.kind.c_str(), issue.detail.c_str(),
                  issue.repaired     ? " [repaired]"
                  : issue.repairable ? " [repairable: rerun with --repair]"
                                     : " [NOT repairable]");
    }
    if (report->healthy()) {
      std::printf("healthy\n");
    } else if (report->repaired == report->issues.size()) {
      std::printf("%zu issue(s) repaired\n", report->repaired);
    } else {
      std::printf("%zu issue(s) found\n", report->issues.size());
    }
  }
  return report->ExitCode();
}

int RunJournalDumpCommand(const std::string& path) {
  std::string error;
  auto text = lfi::DumpJournal(path, &error);
  if (!text) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::fwrite(text->data(), 1, text->size(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  lfi::EnsureStockTriggersRegistered();
  std::string tool_path = argv[0] != nullptr ? argv[0] : "";
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    return Usage();
  }
  const std::string& cmd = args[0];

  if (cmd == "emit-libc" && args.size() == 2) {
    lfi::Image libc = lfi::GenerateLibraryImage(lfi::LibcProfile());
    if (!WriteFileBytes(args[1], libc.Serialize())) {
      return 1;
    }
    std::printf("wrote %s (%zu functions, %zu instructions)\n", args[1].c_str(),
                libc.symbols().size(), libc.instruction_count());
    return 0;
  }
  if (cmd == "emit-app" && args.size() == 3) {
    const lfi::AppBinary* binary = nullptr;
    if (args[1] == "git") {
      binary = &lfi::GitBinary();
    } else if (args[1] == "bind") {
      binary = &lfi::BindBinary();
    } else if (args[1] == "mysql") {
      binary = &lfi::MysqlBinary();
    } else if (args[1] == "pbft") {
      binary = &lfi::PbftBinary();
    } else if (args[1] == "bfs") {
      binary = &lfi::BfsBinary();
    } else if (args[1] == "httpd") {
      binary = &lfi::HttpdBinary();
    } else {
      return Usage();
    }
    if (!WriteFileBytes(args[2], binary->image().Serialize())) {
      return 1;
    }
    std::printf("wrote %s (%zu call sites)\n", args[2].c_str(), binary->sites().size());
    return 0;
  }
  if (cmd == "disasm" && args.size() == 2) {
    auto image = ReadImage(args[1]);
    if (!image) {
      return 1;
    }
    std::printf("%s", image->Disassemble().c_str());
    return 0;
  }
  if (cmd == "profile" && args.size() == 2) {
    auto image = ReadImage(args[1]);
    if (!image) {
      return 1;
    }
    lfi::LibraryProfiler profiler;
    std::printf("%s", profiler.Profile(*image).ToXml().c_str());
    return 0;
  }
  if (cmd == "analyze" && (args.size() == 3 || args.size() == 4)) {
    auto app = ReadImage(args[1]);
    auto lib = ReadImage(args[2]);
    if (!app || !lib) {
      return 1;
    }
    lfi::AnalysisCache& cache = lfi::AnalysisCache::Instance();
    const lfi::FaultProfile& profile = cache.Profile(
        lib->module_name(), [&] { return lfi::LibraryProfiler().Profile(*lib); });
    std::string only = args.size() == 4 ? args[3] : "";
    std::vector<lfi::CallSiteReport> all;
    if (only.empty()) {
      all = cache.Reports(*app, profile);
    } else {
      // Filtered query: analyze just the one function instead of paying for
      // a full cached pass this one-shot process would never reuse.
      lfi::CallSiteAnalyzer analyzer;
      if (const lfi::FunctionProfile* fn = profile.Find(only)) {
        all = analyzer.Analyze(*app, only, fn->ErrorCodes());
      }
    }
    std::printf("%-12s %-10s %-24s %s\n", "function", "offset", "in", "class");
    for (const auto& r : all) {
      std::printf("%-12s 0x%-8x %-24s %s\n", r.site.function.c_str(), r.site.offset,
                  r.site.enclosing.c_str(), lfi::CheckClassName(r.check_class));
    }
    lfi::GeneratedScenarios scenarios = lfi::GenerateScenarios(all, profile);
    std::printf("\n<!-- injection scenario for the %zu completely unchecked site(s) -->\n",
                scenarios.unchecked.functions().size());
    std::printf("%s", scenarios.unchecked.ToXml().c_str());
    return 0;
  }

  // --- campaign-shaped subcommands: spec parsing + one driver call ----------

  if ((cmd == "campaign" || cmd == "explore" || cmd == "shard") && args.size() >= 2) {
    ToolOptions options;
    if (!ParseToolOptions(args, 2, &options)) {
      return Usage();
    }
    lfi::CampaignMode mode =
        cmd == "campaign" ? lfi::CampaignMode::kTable1 : lfi::CampaignMode::kExplore;
    lfi::CampaignSpec spec = SpecFromOptions(mode, args[1], options);
    if (cmd == "shard" && spec.shard_index != lfi::CampaignSpec::kNoShard) {
      // Accepting --shard here would silently run one shard's fraction of
      // the campaign into the merged-journal path and exit 0.
      std::fprintf(stderr,
                   "shard orchestrates every shard; use --shards N (run a single shard "
                   "by hand with `explore --shard I/N`)\n");
      return Usage();
    }
    if (cmd == "shard" && spec.shard_count < 2) {
      std::fprintf(stderr, "shard needs --shards N (N >= 2)\n");
      return Usage();
    }
    return RunSpec(cmd.c_str(), std::move(spec), options.json, tool_path);
  }
  if (cmd == "resume" && args.size() >= 2) {
    ToolOptions options;
    if (!ParseToolOptions(args, 2, &options)) {
      return Usage();
    }
    lfi::CampaignSpec spec = SpecFromOptions(lfi::CampaignMode::kResume, "", options);
    spec.journal_path = args[1];
    return RunSpec("resume", std::move(spec), options.json, tool_path);
  }
  if (cmd == "replay" && args.size() >= 2) {
    // The optional positional selector must precede any options.
    std::string selector;
    size_t start = 2;
    if (args.size() >= 3 && !lfi::StartsWith(args[2], "--")) {
      selector = args[2];
      start = 3;
    }
    ToolOptions options;
    if (!ParseToolOptions(args, start, &options)) {
      return Usage();
    }
    lfi::CampaignSpec spec = SpecFromOptions(lfi::CampaignMode::kReplay, "", options);
    spec.journal_path = args[1];
    spec.replay_selector = selector;
    return RunSpec("replay", std::move(spec), options.json, tool_path);
  }
  if (cmd == "merge" && args.size() >= 3) {
    return RunMergeCommand(args, 1);
  }
  if (cmd == "journal" && args.size() >= 3 && args[1] == "info") {
    ToolOptions options;
    if (!ParseToolOptions(args, 3, &options)) {
      return Usage();
    }
    return RunJournalInfoCommand(args[2], options);
  }
  if (cmd == "journal" && args.size() == 3 && args[1] == "dump") {
    return RunJournalDumpCommand(args[2]);
  }
  if (cmd == "journal" && args.size() >= 3 && args[1] == "doctor") {
    // --repair is doctor-only; strip it before the shared option parser.
    bool repair = false;
    std::vector<std::string> rest;
    for (size_t i = 3; i < args.size(); ++i) {
      if (args[i] == "--repair") {
        repair = true;
      } else {
        rest.push_back(args[i]);
      }
    }
    ToolOptions options;
    if (!ParseToolOptions(rest, 0, &options)) {
      return Usage();
    }
    return RunJournalDoctorCommand(args[2], repair, options);
  }
  if (cmd == "run-spec" && args.size() == 2) {
    std::ifstream in(args[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open spec %s\n", args[1].c_str());
      return 1;
    }
    std::string xml((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    std::string error;
    auto spec = lfi::CampaignSpec::Parse(xml, &error);
    if (!spec) {
      std::fprintf(stderr, "bad spec %s: %s\n", args[1].c_str(), error.c_str());
      return lfi::kChildRefusedExitStatus;
    }
    return RunSpec("run-spec", std::move(*spec), /*json=*/false, tool_path);
  }
  return Usage();
}
