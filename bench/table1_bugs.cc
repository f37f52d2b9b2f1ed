// Table 1: the bugs LFI finds entirely on its own (§7.1).
//
// Runs the full automated campaign -- library profiling, call-site analysis,
// scenario generation, fault injection against the default workloads, plus
// the random-injection follow-up -- against every system and prints the
// discovered bug list. The paper reports 11 previously unknown bugs in its
// four systems (git, mysql, bind, pbft); the table counts those. bfs is this
// reproduction's fifth target, not in the paper: its one bug (the
// flush_super crash) is printed on its own line. Exits 0 when both counts
// hold.

#include <cstdio>

#include "apps/common/campaign_driver.h"

int main() {
  std::printf("=== Table 1: bugs found automatically by LFI ===\n\n");
  std::printf("%-8s %-22s %-55s %s\n", "System", "Failure", "Where", "Exposing fault");
  std::printf("%.120s\n", "-------------------------------------------------------------------"
                          "-----------------------------------------------------");
  std::string error;
  auto outcome =
      lfi::CampaignDriver({.system = "all", .mode = lfi::CampaignMode::kTable1}).Run(&error);
  if (!outcome) {
    std::fprintf(stderr, "campaign failed: %s\n", error.c_str());
    return 1;
  }
  auto print_row = [](const lfi::FoundBug& bug) {
    std::printf("%-8s %-22s %-55s %s\n", bug.system.c_str(), bug.kind.c_str(), bug.where.c_str(),
                bug.injected.c_str());
  };
  size_t paper_bugs = 0;
  for (const auto& bug : outcome->bugs) {
    if (bug.system != "bfs") {
      print_row(bug);
      ++paper_bugs;
    }
  }
  std::printf("\nDistinct bugs in the paper's four systems: %zu   (paper: 11)\n", paper_bugs);
  size_t extension_bugs = 0;
  std::printf("\nThis reproduction's extension (bfs, not in the paper):\n");
  for (const auto& bug : outcome->bugs) {
    if (bug.system == "bfs") {
      print_row(bug);
      ++extension_bugs;
    }
  }
  return paper_bugs == 11 && extension_bugs == 1 ? 0 : 1;
}
