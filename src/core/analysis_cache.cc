#include "core/analysis_cache.h"

namespace lfi {

AnalysisCache& AnalysisCache::Instance() {
  static AnalysisCache* cache = new AnalysisCache;
  return *cache;
}

const FaultProfile& AnalysisCache::Profile(const std::string& library,
                                           const ProfileFactory& make) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = profiles_.find(library);
    if (it != profiles_.end()) {
      ++stats_.profile_hits;
      return *it->second;
    }
  }
  // Compute outside the lock so a slow profile never serializes the workers;
  // losing the insertion race just discards one redundant (identical) copy.
  auto computed = std::make_unique<FaultProfile>(make());
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = profiles_.emplace(library, std::move(computed));
  if (inserted) {
    ++stats_.profile_misses;
  } else {
    ++stats_.profile_hits;
  }
  return *it->second;
}

namespace {

// Content fingerprint of a profile (FNV-1a over function names and error
// modes). Folded into the report cache key so two *different* profiles that
// happen to share a library() name cannot alias to one cached analysis.
uint64_t Fingerprint(const FaultProfile& profile) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
  for (const auto& [name, fn] : profile.functions()) {
    for (char c : name) {
      mix(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }
    for (const ErrorSpec& e : fn.errors) {
      mix(static_cast<uint64_t>(e.retval));
      for (int errno_value : e.errnos) {
        mix(static_cast<uint64_t>(errno_value));
      }
    }
  }
  return h;
}

}  // namespace

const std::vector<CallSiteReport>& AnalysisCache::Reports(const Image& binary,
                                                          const FaultProfile& profile) {
  std::pair<std::string, std::string> key(
      binary.module_name(),
      profile.library() + "#" + std::to_string(Fingerprint(profile)));
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = reports_.find(key);
    if (it != reports_.end()) {
      ++stats_.report_hits;
      return *it->second;
    }
  }
  // Run Algorithm 1 outside the lock so a slow analysis never serializes the
  // workers; losing the insertion race discards one identical copy.
  // One pass over the text finds the call sites of every profiled function.
  auto computed = std::make_unique<std::vector<CallSiteReport>>();
  CallSiteAnalyzer analyzer;
  const std::vector<std::vector<CallSite>> sites = CallSiteAnalyzer::FindImportCallSites(binary);
  for (const auto& [name, fn] : profile.functions()) {
    int import_index = binary.ImportIndex(name);
    if (import_index < 0) {
      continue;
    }
    for (CallSiteReport& report :
         analyzer.AnalyzeSites(binary, sites[static_cast<size_t>(import_index)], fn.ErrorCodes())) {
      computed->push_back(std::move(report));
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = reports_.emplace(std::move(key), std::move(computed));
  if (inserted) {
    ++stats_.report_misses;
  } else {
    ++stats_.report_hits;
  }
  return *it->second;
}

AnalysisCache::Stats AnalysisCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void AnalysisCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  profiles_.clear();
  reports_.clear();
  stats_ = Stats();
}

}  // namespace lfi
