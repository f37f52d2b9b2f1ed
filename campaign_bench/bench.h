// The campaign benchmark's shared pieces: workload definitions, campaign
// specs, the one-time set-up every workload pays, outcome capture, and the
// result file run.py turns into the benchmark's JSON line.
//
// Two programs are measured over the same workloads:
//   untraced (--trace 0)  CampaignDriver::Run, the library entry point
//                         lfi_tool runs, timed from outside (workloads.cc);
//   traced   (--trace 1)  the same campaigns rebuilt from each layer's public
//                         pieces, every layer wrapped in a span decorator
//                         (traced.cc), checked byte for byte against the
//                         driver's journals.

#ifndef CAMPAIGN_BENCH_BENCH_H_
#define CAMPAIGN_BENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/common/app_binary.h"
#include "apps/common/campaign_driver.h"
#include "apps/common/campaign_spec.h"
#include "util/rng.h"

namespace bench {

// One workload: which campaigns a pass runs. Every pass runs each system
// under each seed of the fixed pool (so every run does the same work, in an
// order drawn from --seed), and expected outcomes are committed per
// (workload, system, seed).
struct Workload {
  std::string name;
  std::vector<std::string> systems;
  lfi::ExploreStrategy strategy = lfi::ExploreStrategy::kRandom;
  size_t budget = 0;
  size_t epoch_len = 0;
  size_t shards = 1;
  std::vector<uint64_t> seeds;
  // Replay workloads replay every injecting record of journals recorded
  // (untimed) by random explore at `budget` for each (system, seed).
  bool replay = false;
};

// The named workload, or nullptr. `smoke` shrinks budgets and pools so all
// four workloads finish in seconds.
const Workload* FindWorkload(const std::string& name, bool smoke);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool record = false;  // one pass, outcomes only (expected-outcome recording)
  std::string work_dir;
  std::string trace_file;  // Chrome trace-event output of the traced run
  int workers = 4;
};

struct Campaign {
  std::string system;
  uint64_t seed = 0;
};

// The target binary of a campaign system.
const lfi::AppBinary& BinaryOf(const std::string& system);

// One pass over the workload's pool, shuffled by `rng`.
std::vector<Campaign> PassOrder(const Workload& workload, lfi::Rng& rng);

// The explore spec of one campaign; replay workloads use it to record their
// journals.
lfi::CampaignSpec ExploreSpec(const Workload& workload, const Campaign& campaign,
                              const std::string& journal, int workers);
lfi::CampaignSpec ReplaySpec(const std::string& journal, int workers);

// Where a campaign's journal lives inside the work directory.
std::string JournalPath(const Options& options, const Campaign& campaign,
                        const std::string& suffix);
// The random-explore journal a replay campaign replays.
std::string RecordedJournalPath(const Options& options, const Campaign& campaign);

// The one-time process set-up: first touch of every binary, fault profile
// and analyzer report set the workload uses.
struct SetupTimes {
  double total_s = 0;
  double reports_s = 0;  // the AnalysisCache::Reports share
  size_t reports = 0;
};
SetupTimes RunSetup(const Workload& workload);

// Everything checked about one campaign. `kind` names who ran it: the
// driver, the traced composition, or the single-process driver reference.
struct Outcome {
  std::string kind = "driver";
  std::string system;
  uint64_t seed = 0;
  bool ok = true;
  std::string error;
  size_t scenarios = 0;
  size_t recovery_blocks = 0;
  std::vector<std::string> bugs;  // "kind @ where", sorted
  size_t replays = 0;
  size_t replays_expected = 0;
  size_t replays_reproduced = 0;
};

Outcome ExploreOutcome(const Campaign& campaign, const std::vector<lfi::FoundBug>& bugs,
                       const lfi::CoverageMap& coverage, size_t scenarios);
Outcome ReplayOutcome(const Campaign& campaign, const lfi::CampaignOutcome& outcome);
Outcome FailedOutcome(const Campaign& campaign, std::string error);

// Metrics, notes and outcomes of one benchmark run, written as one JSON
// document for run.py.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& note) { notes_.push_back(note); }
  void Add(Outcome outcome) { outcomes_.push_back(std::move(outcome)); }
  // {"name": {"value": v, "unit": u}, ...}
  std::string MetricsJson() const;
  bool Write(const std::string& path) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  std::vector<Outcome> outcomes_;
};

// Untraced measurement: CampaignDriver::Run timed from outside.
void RunUntraced(const Options& options, const Workload& workload,
                 const std::vector<double>& setup_samples, Report& report);
// Traced measurement: the per-layer breakdown (traced.cc).
void RunTraced(const Options& options, const Workload& workload,
               const std::vector<SetupTimes>& setup_samples, Report& report);

// Records the replay workload's journals (untimed preparation).
bool RecordReplayJournals(const Options& options, const Workload& workload, Report& report);

// Deletes a journal and every sibling artifact the driver leaves next to it
// (.epochE.shardI, .epochE.frontier, .shardI, .acache, .tmp): the engine
// refuses to overwrite a journal.
void RemoveArtifacts(const std::string& journal);
std::string ReadFile(const std::string& path);
uint64_t FileSize(const std::string& path);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

}  // namespace bench

#endif  // CAMPAIGN_BENCH_BENCH_H_
