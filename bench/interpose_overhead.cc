// Per-intercepted-call interposition overhead (§7.4 methodology).
//
// The paper measured LFI's intrusiveness by running workloads with triggers
// installed but disarmed: "we did not actually inject faults, but allowed
// the triggers to pass the calls through", so the measurement isolates pure
// interposition + trigger-evaluation cost. This bench reproduces that on the
// virtual libc and reports the before/after of the interned fast path:
//
//   mode       lookup                         per-call extras
//   baseline   (no interposer installed)      --
//   interned   dense vector by FunctionId     none (allocation-free)
//   linear     scan of all associations       none (the O(1)-lookup ablation)
//   reference  string-keyed hash maps         std::string copy + heap ArgVec
//                                             (the seed's historical path)
//
// Two workload shapes bound the range: "disarmed" drives functions whose
// associations evaluate (and reject) a trigger on every call, "miss" drives
// functions with no associations at all -- the overwhelmingly common case in
// a real run. Overhead is reported per boundary crossing, baseline-
// subtracted. The acceptance bar for this repository is interned >= 2x
// cheaper than reference in disarmed mode.
//
// Tables 5 and 6 follow as rows of the same kind: the paper's stacked
// triggers, disarmed, on its two application workloads -- httpd static and
// PHP request batches with 0-5 triggers on apr_file_read, MySQL OLTP
// read-only and read-write transactions with 0-4 on fcntl -- each with the
// trigger evaluations one rep makes. They are reported, not gated: one
// simulated request costs under a microsecond, so a trigger evaluation is
// large next to it (docs/divergences.md).
//
//   bench_interpose_overhead [iters] [reps] [--json [path]]
//     defaults: 400000 iterations (x2 calls each), 5 reps (best-of),
//     --json writes BENCH_interpose.json

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/httpd/httpd.h"
#include "apps/mysql/mysql.h"
#include "bench_args.h"
#include "core/custom_triggers.h"
#include "core/runtime.h"
#include "core/scenario.h"
#include "core/stock_triggers.h"
#include "util/rng.h"
#include "vlib/vfs.h"
#include "vlib/virtual_libc.h"
#include "vlib/vnet.h"

namespace {

using lfi::Runtime;
using lfi::Scenario;

// read+lseek associated with an always-evaluated, never-firing trigger: the
// §7.4 disarmed shape.
constexpr const char* kDisarmedScenario = R"(
<scenario>
  <trigger id="never" class="RandomTrigger"><args><probability>0.0</probability></args></trigger>
  <function name="read" return="-1" errno="EIO"><reftrigger ref="never"/></function>
  <function name="lseek" return="-1" errno="EIO"><reftrigger ref="never"/></function>
</scenario>)";

// Associations exist (so the runtime is comparable), but never for the
// functions the workload calls: every crossing is a lookup miss.
constexpr const char* kMissScenario = R"(
<scenario>
  <trigger id="never" class="RandomTrigger"><args><probability>0.0</probability></args></trigger>
  <function name="unlink" return="-1" errno="EIO"><reftrigger ref="never"/></function>
</scenario>)";

struct Measurement {
  std::string mode;      // baseline | interned | linear | reference
  std::string workload;  // disarmed | miss
  double ns_per_call = 0.0;
  double calls_per_sec = 0.0;
  double overhead_ns = 0.0;  // ns_per_call minus the matching baseline
};

// One timed run: `iters` iterations of read+lseek = 2 boundary crossings
// each. Returns seconds.
double Drive(lfi::VirtualLibc& libc, int fd, size_t iters) {
  char buf[16];
  long sink = 0;
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < iters; ++i) {
    sink += libc.Lseek(fd, 0, lfi::kSeekSet);
    sink += libc.Read(fd, buf, sizeof buf);
  }
  auto end = std::chrono::steady_clock::now();
  // Defeat dead-code elimination of the whole loop.
  if (sink == -1) {
    std::fprintf(stderr, "impossible sink\n");
  }
  return std::chrono::duration<double>(end - start).count();
}

double BestOf(int reps, lfi::VirtualLibc& libc, int fd, size_t iters) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    double t = Drive(libc, fd, iters);
    if (r == 0 || t < best) {
      best = t;
    }
  }
  return best;
}

// Table 5's five triggers, stacked cumulatively on apr_file_read as in the
// paper: the fd is a socket, the caller is httpd core, the request handler
// is on the stack, the request is a POST, the caller holds a mutex.
const char* const kHttpdTriggers[] = {
    R"(<trigger id="t1" class="FdIsSocket"/>)",
    R"(<trigger id="t2" class="CallStackTrigger">
         <args><frame><module>httpd-core</module></frame></args></trigger>)",
    R"(<trigger id="t3" class="CallStackTrigger">
         <args><frame><function>ap_process_request_internal</function></frame></args></trigger>)",
    R"(<trigger id="t4" class="ProgramStateTrigger">
         <args><var>request.method_number</var><op>eq</op><value>1</value></args></trigger>)",
    R"(<trigger id="t5" class="WithMutex"/>
       <function name="pthread_mutex_lock" return="unused"><reftrigger ref="t5"/></function>
       <function name="pthread_mutex_unlock" return="unused"><reftrigger ref="t5"/></function>)",
};

// Table 6's four triggers, stacked cumulatively on fcntl: cmd is F_GETLK,
// more than 64 threads, the server is shutting down, the caller is the
// application module.
const char* const kMysqlTriggers[] = {
    R"(<trigger id="t1" class="ArgValue"><args><index>1</index><value>5</value></args></trigger>)",
    R"(<trigger id="t2" class="ProgramStateTrigger">
         <args><var>thread_count</var><op>gt</op><value>64</value></args></trigger>)",
    R"(<trigger id="t3" class="ProgramStateTrigger">
         <args><var>shutdown_in_progress</var><op>eq</op><value>1</value></args></trigger>)",
    R"(<trigger id="t4" class="CallStackTrigger">
         <args><frame><module>mini-mysql</module></frame></args></trigger>)",
};

// The first `count` of `triggers` as one conjunction on `function`.
Scenario StackedScenario(const char* const* triggers, int count, const char* function,
                         const char* error) {
  std::string xml = "<scenario>\n";
  for (int i = 0; i < count; ++i) {
    xml += triggers[i];
  }
  xml += std::string("<function name=\"") + function + "\" argc=\"3\" return=\"-1\" errno=\"" +
         error + "\">";
  for (int i = 0; i < count; ++i) {
    xml += "<reftrigger ref=\"t" + std::to_string(i + 1) + "\"/>";
  }
  xml += "</function>\n";
  std::string parse_error;
  std::optional<Scenario> scenario = Scenario::Parse(xml + "</scenario>", &parse_error);
  if (!scenario) {
    std::fprintf(stderr, "scenario parse error: %s\n", parse_error.c_str());
    std::abort();
  }
  return *scenario;
}

struct StackedRow {
  const char* table;     // table5 | table6
  const char* workload;  // httpd-static | httpd-php | oltp-ro | oltp-rw
  int triggers = 0;
  const char* unit;      // us/batch (table5) | txns/s (table6)
  double value = 0.0;
  double slowdown = 0.0;       // rep time over the same workload's 0-trigger row
  uint64_t trigger_evals = 0;  // evaluations in one timed rep
};

// Times `rep` (one rep of a workload on `libc`, with `count` stacked
// triggers disarmed on it): one warm-up rep, then best of `reps`. Fills the
// row's trigger evaluations from the first timed rep and returns seconds.
template <typename Rep>
double TimeStacked(lfi::VirtualLibc& libc, const char* const* triggers, int count,
                   const char* function, const char* error, int reps, const Rep& rep,
                   StackedRow* row) {
  std::unique_ptr<Runtime> runtime;
  if (count > 0) {
    runtime = std::make_unique<Runtime>(StackedScenario(triggers, count, function, error));
    runtime->set_armed(false);  // §7.4: triggers run, injection never happens
    libc.set_interposer(runtime.get());
  }
  rep();
  uint64_t evals_before = runtime ? runtime->trigger_evaluations() : 0;
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    auto start = std::chrono::steady_clock::now();
    rep();
    double t = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (r == 0) {
      row->trigger_evals = runtime ? runtime->trigger_evaluations() - evals_before : 0;
    }
    best = r == 0 ? t : std::min(best, t);
  }
  libc.set_interposer(nullptr);
  return best;
}

constexpr int kHttpdBatches = 20;  // batches per rep
constexpr int kOltpTxns = 10000;   // transactions per rep

std::vector<StackedRow> MeasureStacked(int reps) {
  lfi::EnsureCustomTriggersRegistered();
  std::vector<StackedRow> rows;
  for (bool php : {false, true}) {
    const int batch = php ? 20 : 200;  // AB-style request batches
    lfi::RequestRec get{php ? "/page.php" : "/index.html", lfi::kMethodGet, ""};
    lfi::RequestRec post{php ? "/page.php" : "/index.html", lfi::kMethodPost, "payload"};
    double base = 0.0;
    for (int count = 0; count <= 5; ++count) {
      lfi::VirtualFs fs;
      lfi::VirtualNet net;
      lfi::MiniHttpd httpd(&fs, &net, "/www");
      fs.MkDir("/www/ext");
      httpd.InstallDefaultSite();
      StackedRow row{"table5", php ? "httpd-php" : "httpd-static", count, "us/batch"};
      double seconds = TimeStacked(
          httpd.libc(), kHttpdTriggers, count, "apr_file_read", "EIO", reps,
          [&] {
            for (int i = 0; i < kHttpdBatches * batch; ++i) {
              httpd.ProcessRequest(i % 4 == 0 ? post : get);
            }
          },
          &row);
      base = count == 0 ? seconds : base;
      row.value = seconds * 1e6 / kHttpdBatches;
      row.slowdown = seconds / base;
      rows.push_back(row);
    }
  }
  for (bool read_only : {true, false}) {
    double base = 0.0;
    for (int count = 0; count <= 4; ++count) {
      lfi::VirtualFs fs;
      lfi::VirtualNet net;
      lfi::MiniMysql mysql(&fs, &net, "/mysql");
      if (!mysql.OltpInit(1000)) {
        std::fprintf(stderr, "oltp init failed\n");
        std::abort();
      }
      mysql.SetThreadCount(80);  // trigger 2 votes yes
      mysql.SetShutdownInProgress(false);
      lfi::Rng rng(42);
      bool ok = true;
      StackedRow row{"table6", read_only ? "oltp-ro" : "oltp-rw", count, "txns/s"};
      double seconds = TimeStacked(
          mysql.libc(), kMysqlTriggers, count, "fcntl", "EDEADLK", reps,
          [&] {
            for (int i = 0; i < kOltpTxns; ++i) {
              ok &= mysql.OltpTransaction(&rng, read_only);
            }
          },
          &row);
      if (!ok) {
        std::fprintf(stderr, "an OLTP transaction failed\n");
        std::abort();
      }
      base = count == 0 ? seconds : base;
      row.value = kOltpTxns / seconds;
      row.slowdown = seconds / base;
      rows.push_back(row);
    }
  }
  return rows;
}

Runtime::Options ModeOptions(const std::string& mode) {
  Runtime::Options options;
  options.linear_lookup = mode == "linear";
  options.string_keyed_reference = mode == "reference";
  return options;
}

std::string JsonEscapeNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  size_t iters = 400000;
  int reps = 5;
  lfi_bench::JsonArgs args = lfi_bench::ParseJsonArgs(argc, argv, "BENCH_interpose.json");
  const bool json = args.enabled;
  const std::string& json_path = args.path;
  const std::vector<char*>& positional = args.positional;
  if (!positional.empty()) {
    iters = static_cast<size_t>(std::strtoull(positional[0], nullptr, 10));
  }
  if (positional.size() > 1) {
    reps = std::atoi(positional[1]);
  }
  if (iters == 0) {
    iters = 400000;
  }
  if (reps < 1) {
    reps = 1;
  }
  lfi::EnsureStockTriggersRegistered();

  const double calls = static_cast<double>(iters) * 2.0;
  std::vector<Measurement> results;
  double baseline_ns[2] = {0.0, 0.0};  // [disarmed, miss]
  const char* workloads[2] = {"disarmed", "miss"};
  const char* scenarios[2] = {kDisarmedScenario, kMissScenario};

  for (int w = 0; w < 2; ++w) {
    for (const char* mode : {"baseline", "interned", "linear", "reference"}) {
      lfi::VirtualFs fs;
      lfi::VirtualNet net;
      lfi::VirtualLibc libc(&fs, &net, "bench");
      fs.MkDir("/d");
      fs.WriteFile("/d/f", std::string(16, 'x'));
      int fd = libc.Open("/d/f", lfi::kORdOnly);
      if (fd < 0) {
        std::fprintf(stderr, "setup failed\n");
        return 1;
      }

      std::optional<Scenario> scenario = Scenario::Parse(scenarios[w]);
      if (!scenario) {
        std::fprintf(stderr, "scenario parse failed\n");
        return 1;
      }
      std::unique_ptr<Runtime> runtime;
      if (std::strcmp(mode, "baseline") != 0) {
        runtime = std::make_unique<Runtime>(*scenario, ModeOptions(mode));
        // §7.4: triggers run, injection never happens.
        runtime->set_armed(false);
        libc.set_interposer(runtime.get());
      }
      Drive(libc, fd, iters / 10 + 1);  // warmup: touch counters, init triggers
      double seconds = BestOf(reps, libc, fd, iters);
      libc.set_interposer(nullptr);

      Measurement m;
      m.mode = mode;
      m.workload = workloads[w];
      m.ns_per_call = seconds * 1e9 / calls;
      m.calls_per_sec = calls / seconds;
      if (std::strcmp(mode, "baseline") == 0) {
        baseline_ns[w] = m.ns_per_call;
      }
      m.overhead_ns = m.ns_per_call - baseline_ns[w];
      results.push_back(m);
    }
  }

  double interned_disarmed = 0.0;
  double reference_disarmed = 0.0;
  std::printf("interposition overhead, %zu iters x 2 calls, best of %d rep(s)\n\n", iters, reps);
  std::printf("%-10s %-10s %12s %16s %14s\n", "workload", "mode", "ns/call", "calls/sec",
              "overhead(ns)");
  for (const Measurement& m : results) {
    std::printf("%-10s %-10s %12.2f %16.0f %14.2f\n", m.workload.c_str(), m.mode.c_str(),
                m.ns_per_call, m.calls_per_sec, m.overhead_ns);
    if (m.workload == "disarmed" && m.mode == "interned") {
      interned_disarmed = m.overhead_ns;
    }
    if (m.workload == "disarmed" && m.mode == "reference") {
      reference_disarmed = m.overhead_ns;
    }
  }
  double speedup = interned_disarmed > 0.0 ? reference_disarmed / interned_disarmed : 0.0;
  std::printf("\ninterned vs string-keyed reference (disarmed): %.2fx lower per-call cost\n",
              speedup);

  std::vector<StackedRow> stacked = MeasureStacked(reps);
  std::printf("\nTables 5 and 6: stacked disarmed triggers, best of %d rep(s)\n\n", reps);
  std::printf("%-7s %-13s %8s %12s %-9s %9s %14s\n", "table", "workload", "triggers", "value",
              "unit", "slowdown", "trigger evals");
  for (const StackedRow& row : stacked) {
    std::printf("%-7s %-13s %8d %12.1f %-9s %8.2fx %14llu\n", row.table, row.workload,
                row.triggers, row.value, row.unit, row.slowdown,
                static_cast<unsigned long long>(row.trigger_evals));
  }

  if (json) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"interpose_overhead\",\n");
    std::fprintf(f, "  \"iterations\": %zu,\n  \"reps\": %d,\n  \"results\": [\n", iters, reps);
    for (size_t i = 0; i < results.size(); ++i) {
      const Measurement& m = results[i];
      std::fprintf(f,
                   "    {\"workload\": \"%s\", \"mode\": \"%s\", \"ns_per_call\": %s, "
                   "\"calls_per_sec\": %s, \"overhead_ns_per_call\": %s}%s\n",
                   m.workload.c_str(), m.mode.c_str(), JsonEscapeNumber(m.ns_per_call).c_str(),
                   JsonEscapeNumber(m.calls_per_sec).c_str(),
                   JsonEscapeNumber(m.overhead_ns).c_str(),
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"speedup_interned_vs_reference_disarmed\": %s,\n",
                 JsonEscapeNumber(speedup).c_str());
    std::fprintf(f, "  \"stacked_triggers\": [\n");
    for (size_t i = 0; i < stacked.size(); ++i) {
      const StackedRow& row = stacked[i];
      std::fprintf(f,
                   "    {\"table\": \"%s\", \"workload\": \"%s\", \"triggers\": %d, "
                   "\"value\": %s, \"unit\": \"%s\", \"slowdown\": %s, "
                   "\"trigger_evals\": %llu}%s\n",
                   row.table, row.workload, row.triggers, JsonEscapeNumber(row.value).c_str(),
                   row.unit, JsonEscapeNumber(row.slowdown).c_str(),
                   static_cast<unsigned long long>(row.trigger_evals),
                   i + 1 < stacked.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  // The acceptance bar: the interned path must be at least 2x cheaper per
  // intercepted call than the string-keyed reference.
  if (speedup < 2.0) {
    std::fprintf(stderr, "FAIL: expected >= 2x, measured %.2fx\n", speedup);
    return 1;
  }
  return 0;
}
