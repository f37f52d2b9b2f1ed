// Process-wide cache for the expensive static analyses.
//
// A campaign runs hundreds of scenarios against the same handful of modules,
// and with the parallel engine many workers want the same inputs at once:
// the library fault profiles (§2) and the call-site analyzer reports (§5)
// depend only on the module binaries, never on the scenario. This cache
// computes each once per module and hands out shared read-only references,
// so workers start injecting immediately instead of re-deriving profiles and
// re-running Algorithm 1 per scenario batch.
//
// Entries are never evicted and their addresses are stable, which is what
// makes the returned references safe to hold across threads. Clear() exists
// for tests only; it invalidates everything previously returned.
//
// The cache lives in memory only. Shard and replay children are forks of
// the orchestrator (util/child_process.h), which analyzes before it forks,
// so every child inherits the warm cache and runs no analysis of its own.

#ifndef LFI_CORE_ANALYSIS_CACHE_H_
#define LFI_CORE_ANALYSIS_CACHE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "analysis/callsite_analyzer.h"
#include "image/image.h"
#include "profiler/fault_profile.h"

namespace lfi {

class AnalysisCache {
 public:
  using ProfileFactory = std::function<FaultProfile()>;

  struct Stats {
    uint64_t profile_hits = 0;
    uint64_t profile_misses = 0;
    uint64_t report_hits = 0;
    uint64_t report_misses = 0;  // analyses actually computed
  };

  static AnalysisCache& Instance();

  // The fault profile for `library`, computed by `make` on first request.
  // Concurrent first requests may both run `make`; the first insertion wins,
  // so factories must be deterministic (they are: profiles derive from the
  // library binary alone).
  const FaultProfile& Profile(const std::string& library, const ProfileFactory& make);

  // Every call-site report of `binary` against `profile`: Algorithm 1 over
  // all profiled functions, in profile iteration order (the order the serial
  // campaigns used). Cached per (binary module, profile library) pair.
  const std::vector<CallSiteReport>& Reports(const Image& binary, const FaultProfile& profile);

  Stats stats() const;

  // Test-only: drops every entry, invalidating all previously returned
  // references.
  void Clear();

 private:
  AnalysisCache() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<FaultProfile>> profiles_;
  std::map<std::pair<std::string, std::string>, std::unique_ptr<std::vector<CallSiteReport>>>
      reports_;
  Stats stats_;
};

}  // namespace lfi

#endif  // LFI_CORE_ANALYSIS_CACHE_H_
