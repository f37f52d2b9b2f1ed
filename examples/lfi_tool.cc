// lfi_tool: the command-line face of the tool chain, operating on SimELF
// binaries on disk exactly the way the released LFI operated on ELF files.
//
// Run it without arguments for its usage. Every campaign-shaped subcommand
// is one CampaignSpec handed to one CampaignDriver (src/apps/common): the
// options are the flags of the spec's field table (campaign_spec.cc), and
// this file only reads the positional arguments and prints outcomes. The
// journal subcommands print what src/apps/common/journal_inspect.h returns.
// README.md walks through the workflows.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/callsite_analyzer.h"
#include "apps/bfs/bfs.h"
#include "apps/bind/bind.h"
#include "apps/common/campaign_driver.h"
#include "apps/common/campaign_spec.h"
#include "apps/common/journal_inspect.h"
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
               "  lfi_tool campaign {git|mysql|bind|pbft|bfs|all} [workers] [options]\n"
               "  lfi_tool explore {git|mysql|bind|pbft|bfs} [options]\n"
               "  lfi_tool shard {git|mysql|bind|pbft|bfs} --shards N --journal PATH [options]\n"
               "  lfi_tool resume <journal> [options]\n"
               "  lfi_tool replay <journal> [record[:injection]] [options]\n"
               "  lfi_tool merge <out> <in...> [--json]\n"
               "  lfi_tool journal info <path> [--json]\n"
               "  lfi_tool journal dump <path>\n"
               "  lfi_tool journal doctor <path> [--repair] [--json]\n"
               "options:\n"
               "  --json                 machine-readable outcome\n"
               "%s",
               lfi::SpecFlagsUsage().c_str());
  return 2;
}

// Removes every `flag` after the subcommand name; true when there was one.
bool TakeSwitch(std::vector<std::string>* args, const std::string& flag) {
  auto kept_end = std::remove(args->begin() + 1, args->end(), flag);
  bool found = kept_end != args->end();
  args->erase(kept_end, args->end());
  return found;
}

// --- outcome printing -------------------------------------------------------

// item_json(item) for every item, comma-separated inside `brackets`.
template <typename Items, typename Fn>
std::string JsonList(const Items& items, Fn item_json, const char* brackets = "[]") {
  std::string out(1, brackets[0]);
  for (const auto& item : items) {
    out += out.size() > 1 ? "," : "";
    out += item_json(item);
  }
  return out + brackets[1];
}

// Machine-readable FoundBug records, one JSON object per bug.
std::string BugsJson(const std::vector<lfi::FoundBug>& bugs) {
  return JsonList(bugs, [](const lfi::FoundBug& bug) {
    return lfi::StrFormat(
        "{\"system\":\"%s\",\"kind\":\"%s\",\"where\":\"%s\",\"injected\":\"%s\"}",
        lfi::JsonEscape(bug.system).c_str(), lfi::JsonEscape(bug.kind).c_str(),
        lfi::JsonEscape(bug.where).c_str(), lfi::JsonEscape(bug.injected).c_str());
  });
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

std::string ShardsJson(const std::vector<lfi::ShardOutcome>& shards) {
  return JsonList(shards, [](const lfi::ShardOutcome& shard) {
    return lfi::StrFormat(
        "{\"shard\":%lld,\"journal\":\"%s\",\"records\":%zu,"
        "\"scenarios_run\":%zu,\"bugs\":%zu,\"workers\":%zu}",
        shard.shard_index == static_cast<size_t>(-1) ? -1LL
                                                      : static_cast<long long>(shard.shard_index),
        lfi::JsonEscape(shard.path).c_str(), shard.records, shard.scenarios_run, shard.bugs,
        shard.workers);
  });
}

void PrintShardTable(const std::vector<lfi::ShardOutcome>& shards) {
  for (const lfi::ShardOutcome& shard : shards) {
    std::printf("shard %s: %zu record(s), %zu scenario(s) run, %zu bug(s)  [%s]\n",
                shard.shard_index == static_cast<size_t>(-1)
                    ? "?"
                    : lfi::StrFormat("%zu", shard.shard_index).c_str(),
                shard.records, shard.scenarios_run, shard.bugs, shard.path.c_str());
  }
}

void PrintExplorationSummary(const char* command, const lfi::CampaignSpec& spec,
                             const lfi::CampaignOutcome& outcome, bool json) {
  // Table 1 journals record no strategy or seed; resume and merge have
  // always summarized them as strategy "campaign", seed 0.
  bool table1 = spec.mode == lfi::CampaignMode::kTable1;
  const char* strategy = table1 ? "campaign" : lfi::ExploreStrategyName(spec.strategy);
  unsigned long long seed = table1 ? 0 : spec.seed;
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
        command, lfi::JsonEscape(spec.system).c_str(), strategy, spec.budget, seed,
        outcome.scenarios_run, CoverageJson(outcome.coverage).c_str(),
        BugsJson(outcome.bugs).c_str(), outcome.bugs.size(), extra.c_str());
  } else {
    if (!outcome.shards.empty()) {
      PrintShardTable(outcome.shards);
      std::printf("merged journal: %s\n", outcome.journal_path.c_str());
    }
    std::printf("strategy %s, %zu scenario(s) run (budget %zu, seed %llu)\n", strategy,
                outcome.scenarios_run, spec.budget, seed);
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
  if (json) {
    std::string replays_json = JsonList(outcome.replays, [](const lfi::ReplayOutcome& replay) {
      return lfi::StrFormat(
          "{\"record\":%zu,\"injection\":%zu,\"function\":\"%s\",\"call\":%llu,"
          "\"crashed\":%s,\"where\":\"%s\",\"reproduced\":%s}",
          replay.record, replay.injection, lfi::JsonEscape(replay.function).c_str(),
          static_cast<unsigned long long>(replay.call_number),
          replay.crashed ? "true" : "false", lfi::JsonEscape(replay.where).c_str(),
          replay.informational ? "null" : (replay.reproduced ? "true" : "false"));
    });
    std::printf(
        "{\"command\":\"replay\",\"system\":\"%s\",\"replays\":%s,"
        "\"expected\":%zu,\"reproduced\":%zu}\n",
        lfi::JsonEscape(lfi::MetaValue(outcome.metadata, "system", "")).c_str(),
        replays_json.c_str(), outcome.replays_expected, outcome.replays_reproduced);
    return outcome.ok ? 0 : 1;
  }
  for (const lfi::ReplayOutcome& replay : outcome.replays) {
    std::printf("record %zu injection %zu: %s call %llu -> %s%s\n", replay.record,
                replay.injection, replay.function.c_str(),
                static_cast<unsigned long long>(replay.call_number),
                replay.crashed ? ("crash at " + replay.where).c_str() : "no crash",
                !replay.informational ? (replay.reproduced ? " [reproduced]" : " [MISMATCH]")
                : replay.distributed && replay.recorded_bug
                    ? " [distributed record: informational]"
                    : "");
  }
  std::printf("%zu/%zu recorded crash site(s) reproduced from disk\n",
              outcome.replays_reproduced, outcome.replays_expected);
  return outcome.ok ? 0 : 1;
}

// resume and merge summarize the campaign their journal header records.
int PrintJournalSummary(const char* command, const lfi::CampaignOutcome& outcome, bool json) {
  std::string error;
  auto identity = lfi::CampaignSpec::FromJournalMeta(outcome.metadata, &error);
  if (!identity) {
    std::fprintf(stderr, "%s failed: %s\n", command, error.c_str());
    return 1;
  }
  PrintExplorationSummary(command, *identity, outcome, json);
  return 0;
}

// Runs a spec through the driver and prints its outcome in the shape the
// subcommand historically used. `command` names the subcommand in JSON
// output ("campaign", "explore", "shard", "resume", "replay").
int RunSpec(const char* command, lfi::CampaignSpec spec, bool json) {
  lfi::CampaignDriver driver(std::move(spec));
  std::string error;
  auto outcome = driver.Run(&error);
  if (!outcome) {
    std::fprintf(stderr, "%s failed: %s\n", command, error.c_str());
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
      PrintExplorationSummary(command, driver.spec(), *outcome, json);
      return 0;
    case lfi::CampaignMode::kResume:
      return PrintJournalSummary(command, *outcome, json);
    case lfi::CampaignMode::kReplay:
      return PrintReplayOutcome(*outcome, json);
  }
  return 0;
}

int RunJournalInfoCommand(const std::string& path, bool json) {
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
  if (json) {
    std::string meta_json = JsonList(
        info->meta,
        [](const auto& entry) {
          return lfi::StrFormat("\"%s\":\"%s\"", lfi::JsonEscape(entry.first).c_str(),
                                lfi::JsonEscape(entry.second).c_str());
        },
        "{}");
    std::string epochs_json = JsonList(info->epochs, [](const lfi::EpochSummary& row) {
      return lfi::StrFormat(
          "{\"epoch\":%zu,\"records\":%zu,\"gated\":%zu,\"new_bugs\":%zu,"
          "\"new_recovery_blocks\":%zu,\"new_blocks\":%zu}",
          row.epoch, row.records, row.gated, row.new_bugs, row.new_recovery_blocks,
          row.new_blocks);
    });
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

int RunJournalDoctorCommand(const std::string& path, bool repair, bool json) {
  std::string error;
  auto report = lfi::DiagnoseJournal(path, repair, &error);
  if (!report) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (!report->violation.empty()) {
    std::fprintf(stderr, "invalid journal %s: %s\n", path.c_str(), report->violation.c_str());
  }
  if (json) {
    std::string issues_json = JsonList(report->issues, [](const lfi::DoctorIssue& issue) {
      return lfi::StrFormat(
          "{\"kind\":\"%s\",\"detail\":\"%s\",\"repairable\":%s,\"repaired\":%s}",
          lfi::JsonEscape(issue.kind).c_str(), lfi::JsonEscape(issue.detail).c_str(),
          issue.repairable ? "true" : "false", issue.repaired ? "true" : "false");
    });
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

}  // namespace

int main(int argc, char** argv) {
  lfi::EnsureStockTriggersRegistered();
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
    const std::pair<const char*, const lfi::AppBinary& (*)()> kApps[] = {
        {"git", lfi::GitBinary},   {"bind", lfi::BindBinary}, {"mysql", lfi::MysqlBinary},
        {"pbft", lfi::PbftBinary}, {"bfs", lfi::BfsBinary},   {"httpd", lfi::HttpdBinary}};
    auto app = std::find_if(std::begin(kApps), std::end(kApps),
                            [&](const auto& entry) { return args[1] == entry.first; });
    if (app == std::end(kApps)) {
      return Usage();
    }
    const lfi::AppBinary& binary = app->second();
    if (!WriteFileBytes(args[2], binary.image().Serialize())) {
      return 1;
    }
    std::printf("wrote %s (%zu call sites)\n", args[2].c_str(), binary.sites().size());
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

  if (cmd == "journal" && args.size() == 3 && args[1] == "dump") {
    std::string error;
    auto text = lfi::DumpJournal(args[2], &error);
    if (!text) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::fwrite(text->data(), 1, text->size(), stdout);
    return 0;
  }
  // Every other subcommand takes --json (and doctor --repair) anywhere, and
  // the spec flags after its positional arguments.
  bool json = TakeSwitch(&args, "--json");
  bool doctor = cmd == "journal" && args.size() >= 3 && args[1] == "doctor";
  bool repair = doctor && TakeSwitch(&args, "--repair");
  lfi::CampaignSpec spec;
  auto parse_flags = [&](size_t start) {
    std::string error;
    if (!lfi::ParseSpecFlags(args, start, &spec, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return false;
    }
    return true;
  };

  if ((cmd == "campaign" || cmd == "explore" || cmd == "shard") && args.size() >= 2) {
    if (!parse_flags(2)) {
      return Usage();
    }
    spec.system = args[1];
    spec.mode = cmd == "campaign" ? lfi::CampaignMode::kTable1 : lfi::CampaignMode::kExplore;
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
    return RunSpec(cmd.c_str(), std::move(spec), json);
  }
  if ((cmd == "resume" || cmd == "replay") && args.size() >= 2) {
    // replay's optional positional selector must precede any options.
    size_t start = 2;
    if (cmd == "replay" && args.size() >= 3 && !lfi::StartsWith(args[2], "--")) {
      spec.replay_selector = args[start++];
    }
    if (!parse_flags(start)) {
      return Usage();
    }
    spec.mode = cmd == "resume" ? lfi::CampaignMode::kResume : lfi::CampaignMode::kReplay;
    spec.journal_path = args[1];
    return RunSpec(cmd.c_str(), std::move(spec), json);
  }
  if (cmd == "merge" && args.size() >= 3) {
    size_t start = 2;
    while (start < args.size() && !lfi::StartsWith(args[start], "--")) {
      ++start;
    }
    if (!parse_flags(start)) {
      return Usage();
    }
    if (start == 2) {
      std::fprintf(stderr, "merge needs at least one input journal\n");
      return Usage();
    }
    std::string error;
    auto outcome =
        lfi::MergeCampaignJournals({args.begin() + 2, args.begin() + start}, args[1], &error);
    if (!outcome) {
      std::fprintf(stderr, "merge failed: %s\n", error.c_str());
      return 1;
    }
    return PrintJournalSummary("merge", *outcome, json);
  }
  if (cmd == "journal" && args.size() >= 3 && (args[1] == "info" || doctor)) {
    if (!parse_flags(3)) {
      return Usage();
    }
    return doctor ? RunJournalDoctorCommand(args[2], repair, json)
                  : RunJournalInfoCommand(args[2], json);
  }
  return Usage();
}
