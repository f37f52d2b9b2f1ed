// Shard supervision overhead: what the ShardSupervisor's non-blocking
// reap/deadline/retry machinery costs over the minimal alternative -- a
// fork-per-child loop with blocking waitpid and no deadlines, which is
// exactly what the orchestrator used before supervision existed.
//
// Both arms run the same workload: one 2-shard pbft campaign (dealt shards
// of a random-strategy stream), children forked without exec, each running
// the full CampaignDriver for its shard. The supervised arm has per-child
// deadlines armed so the watchdog bookkeeping is actually exercised. The
// bench asserts supervision costs < 2% wall-clock: the median, over reps,
// of each rep's supervised/baseline ratio. A rep runs the campaign for
// several seeds under both arms, interleaved seed by seed. The comparison
// is only meaningful when each arm's share of a rep takes at least 200 ms,
// and one seed's campaign is far below that (the random space saturates
// near 216 jobs whatever the budget), so a rep whose arms still end below
// the floor FAILS instead of going ungated. The bench sizes reps to about
// twice the floor from the warm-up.
//
// It also runs one chaos schedule (a child crashed at epoch 0 with a retry)
// and verifies the recovered merged journal is byte-identical to the
// unfailed run -- the recovery bar CI's chaos smoke pins, kept here so the
// JSON artifact records it next to the overhead numbers.
//
//   bench_supervisor_overhead [reps] [budget] [--json [path]]
//   (defaults: 5; 24)
//
// Artifacts land in the working directory as BENCH_chaos-*.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/common/campaign_driver.h"
#include "apps/common/campaign_spec.h"
#include "apps/common/shard_supervisor.h"
#include "bench_args.h"
#include "util/string_util.h"

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void RemoveArtifacts(const std::string& base, size_t shards) {
  std::remove(base.c_str());
  std::remove((base + ".tmp").c_str());
  for (size_t epoch = 0; epoch < 32; ++epoch) {
    std::remove((base + lfi::StrFormat(".epoch%zu.frontier", epoch)).c_str());
    std::remove((base + lfi::StrFormat(".epoch%zu.frontier.tmp", epoch)).c_str());
    for (size_t shard = 0; shard < shards; ++shard) {
      std::remove((base + lfi::StrFormat(".epoch%zu.shard%zu", epoch, shard)).c_str());
    }
  }
  for (size_t shard = 0; shard < shards; ++shard) {
    std::remove((base + lfi::StrFormat(".shard%zu", shard)).c_str());
  }
}

constexpr double kFloorMs = 200.0;  // below this the poll quantum dominates

// One seed's workload: the two dealt shards of one random-strategy pbft
// campaign, as child specs ready to run.
std::vector<lfi::CampaignSpec> BuildChildren(size_t budget, uint64_t seed) {
  std::vector<lfi::CampaignSpec> children;
  for (size_t shard = 0; shard < 2; ++shard) {
    lfi::CampaignSpec child;
    child.system = "pbft";
    child.mode = lfi::CampaignMode::kExplore;
    child.strategy = lfi::ExploreStrategy::kRandom;
    child.budget = budget;
    child.seed = seed;
    child.workers = 1;
    child.shard_index = shard;
    child.shard_count = 2;
    child.journal_path = lfi::StrFormat("BENCH_chaos-work.lfij.shard%zu", shard);
    std::remove(child.journal_path.c_str());
    children.push_back(std::move(child));
  }
  return children;
}

bool RunChild(const lfi::CampaignSpec& child, std::string* error) {
  lfi::CampaignDriver driver(child);
  return driver.Run(error).has_value();
}

// The pre-supervision orchestrator: fork every child, block in waitpid, no
// deadlines, no retries. The floor the supervisor's overhead is measured
// against.
bool BaselineForkAndWait(const std::vector<lfi::CampaignSpec>& children) {
  std::vector<pid_t> pids;
  for (const lfi::CampaignSpec& child : children) {
    pid_t pid = fork();
    if (pid == 0) {
      dup2(STDERR_FILENO, STDOUT_FILENO);
      std::string error;
      std::_Exit(RunChild(child, &error) ? 0 : 1);
    }
    if (pid < 0) {
      return false;
    }
    pids.push_back(pid);
  }
  bool ok = true;
  for (pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
    ok &= WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  return ok;
}

bool SupervisedRun(const std::vector<lfi::CampaignSpec>& children) {
  lfi::ShardSupervisor::Options options;
  options.child_timeout_ms = 60000;  // deadlines armed: the watchdog is live
  lfi::ShardSupervisor supervisor(options, RunChild);
  std::string error;
  return supervisor.Run(children, &error);
}

// One seed's campaign under `arm`: its wall ms, or a negative value when a
// child failed.
double TimedSeed(bool (*arm)(const std::vector<lfi::CampaignSpec>&), size_t budget,
                 uint64_t seed) {
  auto start = std::chrono::steady_clock::now();
  return arm(BuildChildren(budget, seed)) ? MsSince(start) : -1.0;
}

// One rep: both arms over seeds 11 .. 11+seeds-1, interleaved seed by seed
// with the leading arm alternating, so the two sums see the same host
// minute. False when a child failed.
bool TimedRep(size_t budget, size_t seeds, double* supervised_ms, double* baseline_ms) {
  *supervised_ms = 0.0;
  *baseline_ms = 0.0;
  for (size_t i = 0; i < seeds; ++i) {
    for (int turn = 0; turn < 2; ++turn) {
      bool supervised = (turn == 0) == (i % 2 == 0);
      double ms = TimedSeed(supervised ? SupervisedRun : BaselineForkAndWait, budget, 11 + i);
      if (ms < 0.0) {
        return false;
      }
      *(supervised ? supervised_ms : baseline_ms) += ms;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  lfi_bench::JsonArgs args = lfi_bench::ParseJsonArgs(argc, argv, "BENCH_chaos.json");
  size_t reps = 5;
  size_t budget = 24;
  if (args.positional.size() > 0 && std::atoll(args.positional[0]) > 0) {
    reps = static_cast<size_t>(std::atoll(args.positional[0]));
  }
  if (args.positional.size() > 1 && std::atoll(args.positional[1]) > 0) {
    budget = static_cast<size_t>(std::atoll(args.positional[1]));
  }

  // Warm the analysis caches (and the page cache) once so neither arm pays
  // first-run costs, then time one seed's baseline arm to size the reps.
  std::string error;
  bool warm = TimedSeed(BaselineForkAndWait, budget, 11) >= 0.0 &&
              TimedSeed(SupervisedRun, budget, 11) >= 0.0;
  double one_seed_ms = warm ? TimedSeed(BaselineForkAndWait, budget, 11) : -1.0;
  if (one_seed_ms < 0.0) {
    std::fprintf(stderr, "warmup failed\n");
    return 1;
  }
  size_t seeds =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(2.0 * kFloorMs / one_seed_ms)));
  std::printf("shard supervision overhead: 2-shard pbft random campaign, budget %zu, "
              "%zu seed(s) per rep, %zu rep(s) per arm\n\n",
              budget, seeds, reps);

  // Each rep yields one supervised/baseline ratio and the overhead is the
  // median ratio: the host's speed drifts within seconds (a rep's arms run
  // back to back swing by 10% on a shared 4-vCPU VM), so only runs
  // interleaved with each other compare like with like, and the median
  // ignores the odd rep a load spike split.
  double baseline_ms = 0.0;  // best rep of each arm, for the record
  double supervised_ms = 0.0;
  std::vector<double> ratios;
  for (size_t rep = 0; rep < reps; ++rep) {
    double supervised_rep = 0.0;
    double baseline_rep = 0.0;
    if (!TimedRep(budget, seeds, &supervised_rep, &baseline_rep)) {
      std::fprintf(stderr, "rep %zu failed\n", rep);
      return 1;
    }
    baseline_ms = rep == 0 ? baseline_rep : std::min(baseline_ms, baseline_rep);
    supervised_ms = rep == 0 ? supervised_rep : std::min(supervised_ms, supervised_rep);
    ratios.push_back(supervised_rep / baseline_rep);
  }
  std::sort(ratios.begin(), ratios.end());
  double median_ratio = ratios.size() % 2 == 1
                            ? ratios[ratios.size() / 2]
                            : (ratios[ratios.size() / 2 - 1] + ratios[ratios.size() / 2]) / 2.0;
  double overhead_pct = (median_ratio - 1.0) * 100.0;
  bool above_floor = baseline_ms >= kFloorMs;
  std::printf("%-22s %10.1f ms/rep (best of %zu)\n", "fork + blocking wait", baseline_ms, reps);
  std::printf("%-22s %10.1f ms/rep (best of %zu)\n", "ShardSupervisor", supervised_ms, reps);
  std::printf("%-22s %+10.2f %% (median of %zu reps)\n\n", "overhead", overhead_pct, reps);

  // The recovery bar: a child crashed at epoch 0 and retried must converge
  // to the unfailed run's merged bytes.
  std::string clean_path = "BENCH_chaos-clean.lfij";
  std::string chaos_path = "BENCH_chaos-chaos.lfij";
  RemoveArtifacts(clean_path, 2);
  RemoveArtifacts(chaos_path, 2);
  lfi::CampaignSpec spec;
  spec.system = "pbft";
  spec.mode = lfi::CampaignMode::kExplore;
  spec.strategy = lfi::ExploreStrategy::kCoverage;
  spec.budget = 32;
  spec.seed = 7;
  spec.epoch_len = 2;
  spec.shard_count = 2;
  spec.backoff_ms = 10;
  lfi::CampaignSpec clean = spec;
  clean.journal_path = clean_path;
  if (!lfi::CampaignDriver(clean).Run(&error)) {
    std::fprintf(stderr, "clean distributed run failed: %s\n", error.c_str());
    return 1;
  }
  lfi::CampaignSpec chaos = spec;
  chaos.journal_path = chaos_path;
  chaos.failpoints = "epoch0.shard1:child.start=exit:9";
  if (!lfi::CampaignDriver(chaos).Run(&error)) {
    std::fprintf(stderr, "chaos distributed run failed: %s\n", error.c_str());
    return 1;
  }
  bool chaos_identical = ReadFile(clean_path) == ReadFile(chaos_path);
  std::printf("chaos recovery (child crashed at epoch 0, retried): merged journal %s\n",
              chaos_identical ? "byte-identical to the unfailed run"
                              : "DIVERGED from the unfailed run");

  if (args.enabled) {
    std::ofstream out(args.path);
    out << lfi::StrFormat(
        "{\"bench\":\"supervisor_overhead\",\"reps\":%zu,\"budget\":%zu,\"seeds\":%zu,"
        "\"baseline_ms\":%.1f,\"supervised_ms\":%.1f,\"overhead_pct\":%.2f,"
        "\"above_floor\":%s,\"chaos_identical\":%s}\n",
        reps, budget, seeds, baseline_ms, supervised_ms, overhead_pct,
        above_floor ? "true" : "false", chaos_identical ? "true" : "false");
    std::printf("wrote %s\n", args.path.c_str());
  }
  if (!chaos_identical) {
    std::fprintf(stderr, "FAIL: chaos recovery diverged\n");
    return 1;
  }
  if (!above_floor) {
    std::fprintf(stderr,
                 "FAIL: an arm's rep took %.1f ms, below the %.0f ms floor the 2%% bar "
                 "needs\n",
                 baseline_ms, kFloorMs);
    return 1;
  }
  if (overhead_pct >= 2.0) {
    std::fprintf(stderr, "FAIL: supervision overhead %.2f%% >= 2%%\n", overhead_pct);
    return 1;
  }
  return 0;
}
