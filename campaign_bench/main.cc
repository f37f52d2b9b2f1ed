// campaign_bench: the repository's campaign benchmark program.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --work DIR --out RESULT.json [--trace-file TRACE.json]
//                  [--smoke] [--record]
//
// Writes the metrics, notes and every campaign outcome to RESULT.json; run.py
// checks the outcomes against expected.json and prints the benchmark's JSON
// line. Campaign journals and their sibling artifacts live under DIR.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>

#include "bench.h"

namespace {

constexpr int kSetupForks = 20;

// Set-up is a one-time cost per process, so each sample is taken in a fresh
// forked child that has touched nothing yet; the last sample is this
// process's own set-up, which the campaigns then use.
std::vector<bench::SetupTimes> MeasureSetup(const bench::Workload& workload) {
  std::vector<bench::SetupTimes> samples;
  for (int i = 0; i < kSetupForks; ++i) {
    int fds[2];
    if (pipe(fds) != 0) {
      break;
    }
    std::fflush(nullptr);
    pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      bench::SetupTimes times = bench::RunSetup(workload);
      bool sent = write(fds[1], &times, sizeof times) == static_cast<ssize_t>(sizeof times);
      _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    bench::SetupTimes times;
    bool received = pid > 0 && read(fds[0], &times, sizeof times) ==
                                   static_cast<ssize_t>(sizeof times);
    close(fds[0]);
    int status = 0;
    if (pid > 0) {
      waitpid(pid, &status, 0);
    }
    if (received && WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      samples.push_back(times);
    }
  }
  samples.push_back(bench::RunSetup(workload));
  return samples;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "campaign_bench: %s\nusage: campaign_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work DIR --out FILE [--trace-file FILE] "
               "[--smoke] [--record]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options options;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--record") {
      options.record = true;
    } else {
      const char* v = value();
      if (v == nullptr) {
        return Usage(("missing value for " + arg).c_str());
      }
      if (arg == "--workload") {
        options.workload = v;
      } else if (arg == "--seed") {
        options.seed = std::strtoull(v, nullptr, 10);
      } else if (arg == "--seconds") {
        options.seconds = std::strtod(v, nullptr);
      } else if (arg == "--trace") {
        options.trace = std::strcmp(v, "0") != 0;
      } else if (arg == "--work") {
        options.work_dir = v;
      } else if (arg == "--out") {
        out_path = v;
      } else if (arg == "--trace-file") {
        options.trace_file = v;
      } else {
        return Usage(("unknown argument " + arg).c_str());
      }
    }
  }
  const bench::Workload* workload = bench::FindWorkload(options.workload, options.smoke);
  if (workload == nullptr) {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (options.work_dir.empty() || out_path.empty()) {
    return Usage("--work and --out are required");
  }
  unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  options.workers = static_cast<int>(std::min(4u, threads));

  bench::Report report;
  try {
    std::vector<bench::SetupTimes> setup =
        options.record ? std::vector<bench::SetupTimes>{bench::RunSetup(*workload)}
                       : MeasureSetup(*workload);
    if (options.trace) {
      bench::RunTraced(options, *workload, setup, report);
    } else {
      std::vector<double> setup_s;
      for (const bench::SetupTimes& sample : setup) {
        setup_s.push_back(sample.total_s);
      }
      bench::RunUntraced(options, *workload, setup_s, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
  return report.Write(out_path) ? 0 : 1;
}
