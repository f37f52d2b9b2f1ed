// Workload table, set-up, outcome capture and the untraced measurement loop.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "apps/bfs/bfs.h"
#include "apps/bind/bind.h"
#include "apps/git/git.h"
#include "apps/mysql/mysql.h"
#include "apps/pbft/pbft.h"
#include "bench.h"
#include "core/analysis_cache.h"
#include "util/string_util.h"
#include "vlib/library_profiles.h"

namespace bench {
namespace {

namespace fs = std::filesystem;

std::vector<uint64_t> SeedRange(uint64_t first, uint64_t last) {
  std::vector<uint64_t> seeds;
  for (uint64_t seed = first; seed <= last; ++seed) {
    seeds.push_back(seed);
  }
  return seeds;
}

const std::vector<Workload>& Workloads(bool smoke) {
  using lfi::ExploreStrategy;
  static const std::vector<Workload> full = {
      {"pbft-random", {"pbft"}, ExploreStrategy::kRandom, 400, 0, 1, SeedRange(1, 8), false},
      {"small-sweep", {"git", "mysql", "bind"}, ExploreStrategy::kRandom, 400, 0, 1,
       SeedRange(1, 20), false},
      {"coverage-epoch", {"pbft", "bfs"}, ExploreStrategy::kCoverage, 64, 2, 4,
       SeedRange(1, 4), false},
      {"replay", {"pbft", "bfs"}, ExploreStrategy::kRandom, 400, 0, 1, {7}, true},
  };
  static const std::vector<Workload> tiny = {
      {"pbft-random", {"pbft"}, ExploreStrategy::kRandom, 16, 0, 1, {1}, false},
      {"small-sweep", {"git", "mysql", "bind"}, ExploreStrategy::kRandom, 16, 0, 1, {1}, false},
      {"coverage-epoch", {"pbft", "bfs"}, ExploreStrategy::kCoverage, 8, 2, 4, {1}, false},
      {"replay", {"pbft", "bfs"}, ExploreStrategy::kRandom, 32, 0, 1, {7}, true},
  };
  return smoke ? tiny : full;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += lfi::StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

// The larger of this process's and its children's peak RSS. Self comes from
// VmHWM, not getrusage: across exec, RUSAGE_SELF keeps the launching
// process's peak.
double PeakRssMb() {
  long self_kb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      self_kb = std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  struct rusage children {};
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self_kb, children.ru_maxrss)) / 1024.0;
}

}  // namespace

const Workload* FindWorkload(const std::string& name, bool smoke) {
  for (const Workload& workload : Workloads(smoke)) {
    if (workload.name == name) {
      return &workload;
    }
  }
  return nullptr;
}

const lfi::AppBinary& BinaryOf(const std::string& system) {
  if (system == "git") return lfi::GitBinary();
  if (system == "mysql") return lfi::MysqlBinary();
  if (system == "bind") return lfi::BindBinary();
  if (system == "pbft") return lfi::PbftBinary();
  return lfi::BfsBinary();
}

std::vector<Campaign> PassOrder(const Workload& workload, lfi::Rng& rng) {
  std::vector<Campaign> pass;
  for (const std::string& system : workload.systems) {
    for (uint64_t seed : workload.seeds) {
      pass.push_back({system, seed});
    }
  }
  for (size_t i = pass.size(); i > 1; --i) {
    std::swap(pass[i - 1], pass[rng.NextBelow(i)]);
  }
  return pass;
}

lfi::CampaignSpec ExploreSpec(const Workload& workload, const Campaign& campaign,
                              const std::string& journal, int workers) {
  lfi::CampaignSpec spec;
  spec.system = campaign.system;
  spec.mode = lfi::CampaignMode::kExplore;
  spec.strategy = workload.strategy;
  spec.budget = workload.budget;
  spec.seed = campaign.seed;
  spec.workers = workers;
  spec.journal_path = journal;
  spec.shard_count = workload.replay ? 1 : workload.shards;
  spec.epoch_len = workload.replay ? 0 : workload.epoch_len;
  return spec;
}

lfi::CampaignSpec ReplaySpec(const std::string& journal, int workers) {
  lfi::CampaignSpec spec;
  spec.mode = lfi::CampaignMode::kReplay;
  spec.journal_path = journal;
  spec.workers = workers;
  return spec;
}

std::string JournalPath(const Options& options, const Campaign& campaign,
                        const std::string& suffix) {
  return options.work_dir + "/" + campaign.system + "." + suffix;
}

std::string RecordedJournalPath(const Options& options, const Campaign& campaign) {
  return lfi::StrFormat("%s/%s-%llu.recorded", options.work_dir.c_str(),
                        campaign.system.c_str(), (unsigned long long)campaign.seed);
}

SetupTimes RunSetup(const Workload& workload) {
  SetupTimes times;
  lfi::AnalysisCache& cache = lfi::AnalysisCache::Instance();
  int64_t start = NowNs();
  for (const std::string& system : workload.systems) {
    const lfi::AppBinary& binary = BinaryOf(system);
    std::vector<const lfi::FaultProfile*> profiles = {&cache.Profile("libc", lfi::LibcProfile)};
    if (system == "bind") {
      profiles.push_back(&cache.Profile("libxml2", lfi::LibxmlProfile));
    }
    for (const lfi::FaultProfile* profile : profiles) {
      int64_t reports_start = NowNs();
      times.reports += cache.Reports(binary.image(), *profile).size();
      times.reports_s += (NowNs() - reports_start) * 1e-9;
    }
  }
  times.total_s = (NowNs() - start) * 1e-9;
  return times;
}

Outcome ExploreOutcome(const Campaign& campaign, const std::vector<lfi::FoundBug>& bugs,
                       const lfi::CoverageMap& coverage, size_t scenarios) {
  Outcome outcome;
  outcome.system = campaign.system;
  outcome.seed = campaign.seed;
  outcome.scenarios = scenarios;
  outcome.recovery_blocks = coverage.ComputeStats().covered_recovery_blocks;
  for (const lfi::FoundBug& bug : bugs) {
    outcome.bugs.push_back(bug.kind + " @ " + bug.where);
    if (bug.kind == "hang") {
      outcome.ok = false;
      outcome.error = "hang bug: " + bug.where;
    }
  }
  std::sort(outcome.bugs.begin(), outcome.bugs.end());
  return outcome;
}

Outcome ReplayOutcome(const Campaign& campaign, const lfi::CampaignOutcome& replayed) {
  Outcome outcome;
  outcome.system = campaign.system;
  outcome.seed = campaign.seed;
  outcome.replays = replayed.replays.size();
  outcome.replays_expected = replayed.replays_expected;
  outcome.replays_reproduced = replayed.replays_reproduced;
  if (!replayed.ok) {
    outcome.ok = false;
    outcome.error = lfi::StrFormat("%zu/%zu expected replays reproduced",
                                   replayed.replays_reproduced, replayed.replays_expected);
  }
  return outcome;
}

Outcome FailedOutcome(const Campaign& campaign, std::string error) {
  Outcome outcome;
  outcome.system = campaign.system;
  outcome.seed = campaign.seed;
  outcome.ok = false;
  outcome.error = std::move(error);
  return outcome;
}

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

std::string Report::MetricsJson() const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    out << (i ? ", " : "") << JsonString(metrics_[i].name)
        << lfi::StrFormat(": {\"value\": %.17g, \"unit\": ", metrics_[i].value)
        << JsonString(metrics_[i].unit) << "}";
  }
  return out.str() + "}";
}

bool Report::Write(const std::string& path) const {
  std::ostringstream out;
  out << "{\"metrics\": " << MetricsJson() << ",\n\"notes\": [";
  for (size_t i = 0; i < notes_.size(); ++i) {
    out << (i ? ", " : "") << JsonString(notes_[i]);
  }
  out << "],\n\"outcomes\": [";
  for (size_t i = 0; i < outcomes_.size(); ++i) {
    const Outcome& o = outcomes_[i];
    out << (i ? ",\n" : "\n") << "{\"kind\": " << JsonString(o.kind)
        << ", \"system\": " << JsonString(o.system) << ", \"seed\": " << o.seed
        << ", \"ok\": " << (o.ok ? "true" : "false") << ", \"error\": " << JsonString(o.error)
        << ", \"scenarios\": " << o.scenarios << ", \"recovery_blocks\": " << o.recovery_blocks
        << ", \"replays\": " << o.replays << ", \"replays_expected\": " << o.replays_expected
        << ", \"replays_reproduced\": " << o.replays_reproduced << ", \"bugs\": [";
    for (size_t b = 0; b < o.bugs.size(); ++b) {
      out << (b ? ", " : "") << JsonString(o.bugs[b]);
    }
    out << "]}";
  }
  out << "]}\n";
  std::ofstream file(path);
  file << out.str();
  return file.good();
}

void RemoveArtifacts(const std::string& journal) {
  fs::path path(journal);
  std::error_code ec;
  fs::remove_all(path, ec);
  std::string prefix = path.filename().string() + ".";
  for (const fs::directory_entry& entry : fs::directory_iterator(path.parent_path(), ec)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      fs::remove_all(entry.path(), ec);
    }
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  uint64_t size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double position = q * static_cast<double>(values.size() - 1);
  size_t low = static_cast<size_t>(position);
  size_t high = std::min(low + 1, values.size() - 1);
  double fraction = position - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * fraction;
}

bool RecordReplayJournals(const Options& options, const Workload& workload, Report& report) {
  bool ok = true;
  for (const std::string& system : workload.systems) {
    for (uint64_t seed : workload.seeds) {
      Campaign campaign{system, seed};
      std::string journal = RecordedJournalPath(options, campaign);
      RemoveArtifacts(journal);
      lfi::CampaignDriver driver(ExploreSpec(workload, campaign, journal, options.workers));
      std::string error;
      auto outcome = driver.Run(&error);
      Outcome recorded = outcome ? ExploreOutcome(campaign, outcome->bugs, outcome->coverage,
                                                  outcome->scenarios_run)
                                 : FailedOutcome(campaign, error);
      recorded.kind = "record";
      ok &= recorded.ok;
      report.Add(std::move(recorded));
    }
  }
  return ok;
}

void RunUntraced(const Options& options, const Workload& workload,
                 const std::vector<double>& setup_samples, Report& report) {
  if (workload.replay && !RecordReplayJournals(options, workload, report)) {
    return;
  }
  std::map<std::string, std::vector<double>> walls_ms;  // per system
  double pass_s = 0;
  uint64_t pass_jobs = 0;
  std::vector<double> pass_rates;
  uint64_t jobs = 0;
  uint64_t journal_bytes = 0;
  auto run_one = [&](const Campaign& campaign, bool timed) {
    std::string journal = workload.replay ? RecordedJournalPath(options, campaign)
                                          : JournalPath(options, campaign, "journal");
    lfi::CampaignSpec spec = workload.replay
                                 ? ReplaySpec(journal, options.workers)
                                 : ExploreSpec(workload, campaign, journal, options.workers);
    if (!workload.replay) {
      RemoveArtifacts(journal);
    }
    lfi::CampaignDriver driver(spec);
    std::string error;
    int64_t start = NowNs();
    auto outcome = driver.Run(&error);
    double wall_s = (NowNs() - start) * 1e-9;
    if (!outcome) {
      report.Add(FailedOutcome(campaign, error));
      return;
    }
    report.Add(workload.replay ? ReplayOutcome(campaign, *outcome)
                               : ExploreOutcome(campaign, outcome->bugs, outcome->coverage,
                                                outcome->scenarios_run));
    if (timed) {
      size_t campaign_jobs = workload.replay ? outcome->replays.size() : outcome->scenarios_run;
      walls_ms[campaign.system].push_back(wall_s * 1e3);
      pass_s += wall_s;
      pass_jobs += campaign_jobs;
      jobs += campaign_jobs;
      journal_bytes += FileSize(journal);
    }
  };

  bool one_pass = options.record || options.smoke;
  if (!one_pass) {
    // Warm-up: lazy first-use costs (symbol interning, allocator growth) are
    // paid once per process, not per campaign a user runs.
    for (const std::string& system : workload.systems) {
      run_one({system, workload.seeds.front()}, /*timed=*/false);
    }
  }
  lfi::Rng rng(options.seed);
  int64_t start = NowNs();
  size_t passes = 0;
  do {
    pass_s = 0;
    pass_jobs = 0;
    for (const Campaign& campaign : PassOrder(workload, rng)) {
      run_one(campaign, /*timed=*/true);
    }
    if (pass_s > 0) {
      pass_rates.push_back(static_cast<double>(pass_jobs) / pass_s);
    }
    ++passes;
  } while (!one_pass && (NowNs() - start) * 1e-9 < options.seconds);
  if (options.record) {
    return;
  }

  // Systems differ in campaign length, so a median over the mixed sample
  // would fall between clusters; each system gets its own median instead.
  double median_sum = 0;
  size_t samples = 0;
  for (const auto& [system, walls] : walls_ms) {
    median_sum += Quantile(walls, 0.5);
    samples += walls.size();
  }
  double safe_jobs = static_cast<double>(std::max<uint64_t>(jobs, 1));
  report.Metric("jobs_per_s", Quantile(pass_rates, 0.5), "1/s");
  report.Metric("campaign_ms_p50", walls_ms.empty() ? 0 : median_sum / walls_ms.size(), "ms");
  report.Metric("setup_s", Quantile(setup_samples, 0.5), "s");
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  report.Metric("journal_bytes_per_job", static_cast<double>(journal_bytes) / safe_jobs, "B");
  report.Note(lfi::StrFormat(
      "jobs_per_s: median over %zu passes of jobs / CampaignDriver::Run wall (%llu jobs); "
      "campaign_ms_p50: mean over %zu systems of each system's median wall (%zu samples); "
      "setup_s: median of %zu set-ups",
      pass_rates.size(), (unsigned long long)jobs, walls_ms.size(), samples,
      setup_samples.size()));
  if (workload.replay) {
    report.Note("journal_bytes_per_job on replay: bytes of the replayed journals / replays");
  }
}

}  // namespace bench
