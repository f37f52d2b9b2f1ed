// Epoch-synchronized distributed exploration: what the spawn -> merge ->
// reseed protocol costs and buys (docs/architecture.md).
//
// The bench runs the same coverage-guided pbft exploration as a
// single-process --epoch-len baseline and as an epoch-synchronized
// distributed campaign at each shard count (forked shard children, one
// process per shard), then verifies the distributed runs are bit-identical to
// the baseline -- same bug set, same coverage, same merged journal bytes.
// Determinism is asserted everywhere; the >= 1.5x wall-clock speedup at 4
// shards is asserted only on hosts with >= 4 hardware threads (a single-core
// container serializes the shard processes, so the protocol overhead -- epoch
// journaling, frontier snapshots, incremental merge -- is the honest column
// there).
//
//   bench_distributed_explore [budget] [seed] [epoch_len] [shard counts...]
//                             [--json [path]]
//   (defaults: 48; 7; 2; 2 4)
//
// Artifacts land in the working directory as BENCH_distexplore-*.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/common/campaign_driver.h"
#include "apps/common/campaign_spec.h"
#include "bench_args.h"
#include "core/journal.h"
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
  for (size_t epoch = 0; epoch < 32; ++epoch) {
    std::remove((base + lfi::StrFormat(".epoch%zu.frontier", epoch)).c_str());
    for (size_t shard = 0; shard < shards; ++shard) {
      std::remove((base + lfi::StrFormat(".epoch%zu.shard%zu", epoch, shard)).c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  lfi_bench::JsonArgs args = lfi_bench::ParseJsonArgs(argc, argv, "BENCH_distexplore.json");
  size_t budget = 48;
  uint64_t seed = 7;
  size_t epoch_len = 2;
  std::vector<size_t> shard_counts;
  for (size_t i = 0; i < args.positional.size(); ++i) {
    long long value = std::atoll(args.positional[i]);
    if (value <= 0) {
      continue;
    }
    if (i == 0) {
      budget = static_cast<size_t>(value);
    } else if (i == 1) {
      seed = static_cast<uint64_t>(value);
    } else if (i == 2) {
      epoch_len = static_cast<size_t>(value);
    } else {
      shard_counts.push_back(static_cast<size_t>(value));
    }
  }
  if (shard_counts.empty()) {
    shard_counts = {2, 4};
  }
  unsigned hw_threads = std::thread::hardware_concurrency();

  std::printf("epoch-synchronized distributed explore: pbft coverage, budget %zu, seed %llu, "
              "epoch-len %zu (%u hardware thread(s))\n\n",
              budget, (unsigned long long)seed, epoch_len, hw_threads);

  lfi::CampaignSpec spec;
  spec.system = "pbft";
  spec.mode = lfi::CampaignMode::kExplore;
  spec.strategy = lfi::ExploreStrategy::kCoverage;
  spec.budget = budget;
  spec.seed = seed;
  spec.epoch_len = epoch_len;

  // Single-process baseline with the same epoch schedule.
  std::string single_path = "BENCH_distexplore-single.lfij";
  RemoveArtifacts(single_path, 0);
  lfi::CampaignSpec single = spec;
  single.journal_path = single_path;
  std::string error;
  auto start = std::chrono::steady_clock::now();
  auto baseline = lfi::CampaignDriver(single).Run(&error);
  double single_ms = MsSince(start);
  if (!baseline) {
    std::fprintf(stderr, "baseline failed: %s\n", error.c_str());
    return 1;
  }
  std::string single_bytes = ReadFile(single_path);
  double single_rate = baseline->scenarios_run / (single_ms / 1000.0);

  std::printf("%-8s %-12s %-14s %-10s %-6s %-10s %s\n", "shards", "wall ms", "scenarios/s",
              "speedup", "bugs", "epochs", "identical?");
  size_t single_epochs = 0;
  {
    auto journal = lfi::CampaignJournal::Load(single_path, &error);
    if (journal && !journal->records().empty()) {
      single_epochs = journal->records().back().epoch + 1;
    }
  }
  std::printf("%-8d %-12.1f %-14.1f %-10s %-6zu %-10zu %s\n", 1, single_ms, single_rate, "-",
              baseline->bugs.size(), single_epochs, "(baseline)");

  std::string rows_json;
  bool all_identical = true;
  double speedup_at_4 = 0.0;
  for (size_t shards : shard_counts) {
    std::string merged_path = lfi::StrFormat("BENCH_distexplore-%zu.lfij", shards);
    RemoveArtifacts(merged_path, shards);
    lfi::CampaignSpec distributed = spec;
    distributed.journal_path = merged_path;
    distributed.shard_count = shards;

    start = std::chrono::steady_clock::now();
    // Forked shard children, one process per shard: the same children
    // `lfi_tool shard` runs.
    auto outcome = lfi::CampaignDriver(distributed).Run(&error);
    double total_ms = MsSince(start);
    if (!outcome) {
      std::fprintf(stderr, "distributed run (%zu shards) failed: %s\n", shards, error.c_str());
      return 1;
    }

    bool identical = outcome->bugs == baseline->bugs &&
                     outcome->coverage.hits() == baseline->coverage.hits() &&
                     outcome->scenarios_run == baseline->scenarios_run &&
                     ReadFile(merged_path) == single_bytes;
    all_identical &= identical;
    double rate = outcome->scenarios_run / (total_ms / 1000.0);
    double speedup = single_ms / total_ms;
    if (shards == 4) {
      speedup_at_4 = speedup;
    }
    std::printf("%-8zu %-12.1f %-14.1f %-10.2f %-6zu %-10zu %s\n", shards, total_ms, rate,
                speedup, outcome->bugs.size(), single_epochs, identical ? "yes" : "NO");
    if (!rows_json.empty()) {
      rows_json += ",";
    }
    rows_json += lfi::StrFormat(
        "{\"shards\":%zu,\"wall_ms\":%.1f,\"scenarios_per_s\":%.1f,\"speedup\":%.3f,"
        "\"bugs\":%zu,\"identical\":%s}",
        shards, total_ms, rate, speedup, outcome->bugs.size(), identical ? "true" : "false");
  }

  if (args.enabled) {
    std::ofstream out(args.path);
    out << lfi::StrFormat(
        "{\"bench\":\"distributed_explore\",\"budget\":%zu,\"seed\":%llu,"
        "\"epoch_len\":%zu,\"hardware_threads\":%u,\"epochs\":%zu,"
        "\"single_ms\":%.1f,\"single_scenarios_per_s\":%.1f,\"runs\":[%s]}\n",
        budget, (unsigned long long)seed, epoch_len, hw_threads, single_epochs, single_ms,
        single_rate, rows_json.c_str());
    std::printf("\nwrote %s\n", args.path.c_str());
  }
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: a distributed campaign diverged from the baseline\n");
    return 1;
  }
  // The scaling bar from the issue: >= 1.5x at 4 shards, but only where the
  // host can actually run 4 shard threads at once.
  if (hw_threads >= 4 && speedup_at_4 != 0.0 && speedup_at_4 < 1.5) {
    std::fprintf(stderr, "FAIL: 4-shard speedup %.2fx < 1.5x on a %u-thread host\n",
                 speedup_at_4, hw_threads);
    return 1;
  }
  return 0;
}
