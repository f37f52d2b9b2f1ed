// Journal encoding cost: bytes/record, extent vs its XML rendering, and the
// extent load time.
//
// Runs one pbft random exploration journaled, tiles its records into a
// ~1k-record journal (pbft's random scenario space saturates at a few
// hundred uniques; million-record campaigns are this shape repeated), and
// measures the file size per record against the `lfi_tool journal dump`
// rendering of the same journal -- byte for byte what the retired XML
// encoding wrote -- plus the full-load wall time `lfi_tool journal info`
// pays (header + every record: the info/resume/merge read path). The
// extent encoding must be at least 5x smaller per record than the XML
// rendering; that bar is the exit status. The load time is reported only:
// with no XML reader left there is nothing to compare it against.
//
//   bench_journal_size [records] [seed] [reps] [--json [path]]
//   (defaults: 1000; 5; 5)
//
// Artifacts land in the working directory as BENCH_journal-*.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/common/campaign_driver.h"
#include "apps/common/journal_inspect.h"
#include "bench_args.h"
#include "core/journal.h"
#include "util/string_util.h"

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

size_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<size_t>(in.tellg()) : 0;
}

// The `journal info` read path: load the file, touch every record. Returns
// the best-of-reps wall time; best (not mean) because the bench shares its
// container with whatever else CI runs.
double LoadMs(const std::string& path, int reps, size_t* records) {
  double best = 1e18;
  for (int rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    std::string error;
    auto journal = lfi::CampaignJournal::Load(path, &error);
    double ms = MsSince(start);
    if (!journal) {
      std::fprintf(stderr, "load %s failed: %s\n", path.c_str(), error.c_str());
      std::exit(1);
    }
    *records = journal->records().size();
    if (ms < best) {
      best = ms;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  lfi_bench::JsonArgs args = lfi_bench::ParseJsonArgs(argc, argv, "BENCH_journal.json");
  size_t target = 1000;
  uint64_t seed = 5;
  int reps = 5;
  for (size_t i = 0; i < args.positional.size(); ++i) {
    long long value = std::atoll(args.positional[i]);
    if (value <= 0) {
      continue;
    }
    if (i == 0) {
      target = static_cast<size_t>(value);
    } else if (i == 1) {
      seed = static_cast<uint64_t>(value);
    } else {
      reps = static_cast<int>(value);
    }
  }

  std::string campaign_path = "BENCH_journal-campaign.lfij";
  std::string extent_path = "BENCH_journal-extent.lfij";
  std::remove(campaign_path.c_str());
  std::remove(extent_path.c_str());

  lfi::CampaignSpec spec;
  spec.system = "pbft";
  spec.mode = lfi::CampaignMode::kExplore;
  spec.strategy = lfi::ExploreStrategy::kRandom;
  spec.budget = target;  // saturates at the unique-scenario count
  spec.seed = seed;
  spec.journal_path = campaign_path;

  std::string error;
  auto start = std::chrono::steady_clock::now();
  auto outcome = lfi::CampaignDriver(spec).Run(&error);
  double campaign_ms = MsSince(start);
  if (!outcome) {
    std::fprintf(stderr, "campaign failed: %s\n", error.c_str());
    return 1;
  }
  auto campaign = lfi::CampaignJournal::Load(campaign_path, &error);
  if (!campaign || campaign->records().empty()) {
    std::fprintf(stderr, "campaign journal unusable: %s\n", error.c_str());
    return 1;
  }

  // Tile the real records up to the target size, renumbering the stream so
  // the result is a plausible `target`-record campaign artifact.
  {
    lfi::CampaignJournal big;
    if (!big.Create(extent_path, campaign->metadata(), &error)) {
      std::fprintf(stderr, "create failed: %s\n", error.c_str());
      return 1;
    }
    for (size_t i = 0; i < target; ++i) {
      lfi::JournalRecord record = campaign->records()[i % campaign->records().size()];
      record.stream_index = i;
      if (!big.Append(record)) {
        std::fprintf(stderr, "append failed\n");
        return 1;
      }
    }
    if (!big.Finalize(&error)) {
      std::fprintf(stderr, "finalize failed: %s\n", error.c_str());
      return 1;
    }
  }
  auto xml = lfi::DumpJournal(extent_path, &error);
  if (!xml) {
    std::fprintf(stderr, "dump failed: %s\n", error.c_str());
    return 1;
  }

  size_t extent_records = 0;
  size_t extent_bytes = FileSize(extent_path);
  size_t xml_bytes = xml->size();
  double extent_ms = LoadMs(extent_path, reps, &extent_records);
  if (extent_records != target) {
    std::fprintf(stderr, "record count mismatch: extent %zu, want %zu\n", extent_records,
                 target);
    return 1;
  }

  double extent_per_record = static_cast<double>(extent_bytes) / target;
  double xml_per_record = static_cast<double>(xml_bytes) / target;
  double size_ratio = xml_per_record / extent_per_record;

  std::printf("journal encoding cost: pbft random explore, %zu records (campaign %.0f ms)\n\n",
              target, campaign_ms);
  std::printf("%-8s %-12s %-14s %-12s\n", "format", "bytes", "bytes/record", "load ms");
  std::printf("%-8s %-12zu %-14.1f %-12s\n", "xml dump", xml_bytes, xml_per_record, "-");
  std::printf("%-8s %-12zu %-14.1f %-12.2f\n", "extent", extent_bytes, extent_per_record,
              extent_ms);
  std::printf("\nextent vs xml dump: %.1fx smaller\n", size_ratio);

  if (args.enabled) {
    std::ofstream out(args.path);
    out << lfi::StrFormat(
        "{\"bench\":\"journal_size\",\"records\":%zu,\"seed\":%llu,\"reps\":%d,"
        "\"xml_dump\":{\"bytes\":%zu,\"bytes_per_record\":%.1f},"
        "\"extent\":{\"bytes\":%zu,\"bytes_per_record\":%.1f,\"load_ms\":%.2f},"
        "\"size_ratio\":%.2f}\n",
        target, (unsigned long long)seed, reps, xml_bytes, xml_per_record, extent_bytes,
        extent_per_record, extent_ms, size_ratio);
    std::printf("wrote %s\n", args.path.c_str());
  }

  if (size_ratio < 5.0) {
    std::fprintf(stderr, "FAIL: extent journal is only %.1fx smaller (need 5x)\n", size_ratio);
    return 1;
  }
  return 0;
}
