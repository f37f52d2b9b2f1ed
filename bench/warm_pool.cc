// Warm-instance job execution: what snapshot/reset pools save over building
// a fresh target per job (core/warm_pool.h, docs/architecture.md).
//
// For each system the bench runs the same exhaustive exploration campaign
// under both pool policies -- --cold-start (a fresh target per job, the
// paper's fresh-process-per-test model) and the default reset-and-reuse --
// takes the best wall clock of `reps` repetitions of each, reports each
// policy's pool builds and resets, and fails unless the two journals are
// byte-identical (amortizing bring-up must not change a single recorded
// bit). Worker count is 1 so the column measures per-instance amortization,
// not parallelism. The speedup is reported, not gated: pbft's bring-up is
// dominated by its session-key stretching constant, so a ratio bar would
// measure that constant -- and the SHA-1 kernel that hashes it. On a 4-vCPU
// VM the SHA-extension kernel cut pbft's cold run from 68 to 21 ms and its
// warm run from 29 to 14 ms (medians of 5 runs), so the pool's speedup fell
// from 2.3x to 1.7x: the pool still wins, by less, because cold builds got
// cheaper. The header and --json name the kernel (Sha1::KernelName()), so
// runs from hosts with and without the SHA extensions are not compared
// blind; bench/trajectory/BENCH_warmpool.json keeps the committed rows.
//
//   bench_warm_pool [budget] [seed] [reps] [--json [path]]
//   (defaults: 64; 7; 3)
//
// Artifacts land in the working directory as BENCH_warmpool-*.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/common/campaign_driver.h"
#include "apps/common/campaign_spec.h"
#include "bench_args.h"
#include "util/sha1.h"
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

// Best-of-reps campaign run; returns the best wall ms and leaves the last
// run's journal at `path`.
struct Timed {
  double best_ms = 0.0;
  size_t scenarios = 0;
  size_t bugs = 0;
  lfi::WarmPool::Stats pool;
};

bool RunTimed(const lfi::CampaignSpec& spec, size_t reps, Timed* out, std::string* error) {
  for (size_t rep = 0; rep < reps; ++rep) {
    std::remove(spec.journal_path.c_str());
    auto start = std::chrono::steady_clock::now();
    auto outcome = lfi::CampaignDriver(spec).Run(error);
    double ms = MsSince(start);
    if (!outcome) {
      return false;
    }
    if (rep == 0 || ms < out->best_ms) {
      out->best_ms = ms;
    }
    out->scenarios = outcome->scenarios_run;
    out->bugs = outcome->bugs.size();
    out->pool = outcome->pool;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  lfi_bench::JsonArgs args = lfi_bench::ParseJsonArgs(argc, argv, "BENCH_warmpool.json");
  size_t budget = 64;
  uint64_t seed = 7;
  size_t reps = 3;
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
      reps = static_cast<size_t>(value);
    }
  }

  std::printf("warm-instance pools vs cold start: exhaustive explore, budget %zu, seed %llu, "
              "best of %zu, 1 worker, SHA-1 kernel %s\n\n",
              budget, (unsigned long long)seed, reps, lfi::Sha1::KernelName());
  std::printf("%-8s %-9s %-9s %-11s %-11s %-8s %-13s %-13s %-5s %s\n", "system", "cold ms",
              "warm ms", "cold sc/s", "warm sc/s", "speedup", "cold bld/rst", "warm bld/rst",
              "bugs", "identical?");

  std::string rows_json;
  bool all_identical = true;
  for (const char* system : {"git", "mysql", "bind", "pbft"}) {
    lfi::CampaignSpec spec;
    spec.system = system;
    spec.mode = lfi::CampaignMode::kExplore;
    spec.strategy = lfi::ExploreStrategy::kExhaustive;
    spec.budget = budget;
    spec.seed = seed;
    spec.workers = 1;

    std::string error;
    Timed cold;
    spec.journal_path = lfi::StrFormat("BENCH_warmpool-%s-cold.lfij", system);
    spec.cold_start = true;
    if (!RunTimed(spec, reps, &cold, &error)) {
      std::fprintf(stderr, "%s cold run failed: %s\n", system, error.c_str());
      return 1;
    }
    std::string cold_bytes = ReadFile(spec.journal_path);

    Timed warm;
    spec.journal_path = lfi::StrFormat("BENCH_warmpool-%s-warm.lfij", system);
    spec.cold_start = false;
    if (!RunTimed(spec, reps, &warm, &error)) {
      std::fprintf(stderr, "%s warm run failed: %s\n", system, error.c_str());
      return 1;
    }
    bool identical =
        cold.bugs == warm.bugs && !cold_bytes.empty() && ReadFile(spec.journal_path) == cold_bytes;
    all_identical &= identical;

    double cold_rate = cold.scenarios / (cold.best_ms / 1000.0);
    double warm_rate = warm.scenarios / (warm.best_ms / 1000.0);
    double speedup = cold.best_ms / warm.best_ms;
    auto builds_resets = [](const lfi::WarmPool::Stats& stats) {
      return lfi::StrFormat("%llu/%llu", (unsigned long long)stats.builds,
                            (unsigned long long)stats.resets);
    };
    std::printf("%-8s %-9.1f %-9.1f %-11.1f %-11.1f %-8.2f %-13s %-13s %-5zu %s\n", system,
                cold.best_ms, warm.best_ms, cold_rate, warm_rate, speedup,
                builds_resets(cold.pool).c_str(), builds_resets(warm.pool).c_str(), warm.bugs,
                identical ? "yes" : "NO");
    if (!rows_json.empty()) {
      rows_json += ",";
    }
    rows_json += lfi::StrFormat(
        "{\"system\":\"%s\",\"cold_ms\":%.1f,\"warm_ms\":%.1f,"
        "\"cold_scenarios_per_s\":%.1f,\"warm_scenarios_per_s\":%.1f,"
        "\"speedup\":%.3f,\"cold_builds\":%llu,\"cold_resets\":%llu,"
        "\"warm_builds\":%llu,\"warm_resets\":%llu,\"bugs\":%zu,\"identical\":%s}",
        system, cold.best_ms, warm.best_ms, cold_rate, warm_rate, speedup,
        (unsigned long long)cold.pool.builds, (unsigned long long)cold.pool.resets,
        (unsigned long long)warm.pool.builds, (unsigned long long)warm.pool.resets, warm.bugs,
        identical ? "true" : "false");
  }

  if (args.enabled) {
    std::ofstream out(args.path);
    out << lfi::StrFormat(
        "{\"bench\":\"warm_pool\",\"sha1_kernel\":\"%s\",\"budget\":%zu,\"seed\":%llu,"
        "\"reps\":%zu,\"runs\":[%s]}\n",
        lfi::Sha1::KernelName(), budget, (unsigned long long)seed, reps, rows_json.c_str());
    std::printf("\nwrote %s\n", args.path.c_str());
  }
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: a warm campaign's journal diverged from its cold baseline\n");
    return 1;
  }
  return 0;
}
