#include "apps/common/campaign_spec.h"

#include <cstdlib>

#include "core/journal.h"
#include "util/string_util.h"

namespace lfi {
namespace {

std::string SeedToString(uint64_t seed) {
  // Full-range uint64 (ParseInt's int64 range would reject the top bit); hex
  // keeps the round trip exact and matches the journal header encoding.
  return StrFormat("0x%llx", static_cast<unsigned long long>(seed));
}

uint64_t SeedFromString(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 0);
}

size_t SizeFromString(const std::string& s) {
  return static_cast<size_t>(std::strtoull(s.c_str(), nullptr, 0));
}

}  // namespace

const char* CampaignModeName(CampaignMode mode) {
  switch (mode) {
    case CampaignMode::kTable1:
      return "table1";
    case CampaignMode::kExplore:
      return "explore";
    case CampaignMode::kResume:
      return "resume";
    case CampaignMode::kReplay:
      return "replay";
  }
  return "?";
}

std::optional<CampaignMode> ParseCampaignMode(const std::string& name) {
  // "campaign" is the historical journal-header spelling of table1 mode;
  // accepting it keeps pre-redesign journals resumable.
  if (name == "table1" || name == "campaign") {
    return CampaignMode::kTable1;
  }
  if (name == "explore") {
    return CampaignMode::kExplore;
  }
  if (name == "resume") {
    return CampaignMode::kResume;
  }
  if (name == "replay") {
    return CampaignMode::kReplay;
  }
  return std::nullopt;
}

const char* ExploreStrategyName(ExploreStrategy strategy) {
  switch (strategy) {
    case ExploreStrategy::kExhaustive:
      return "exhaustive";
    case ExploreStrategy::kRandom:
      return "random";
    case ExploreStrategy::kCoverage:
      return "coverage";
  }
  return "?";
}

std::optional<ExploreStrategy> ParseExploreStrategy(const std::string& name) {
  if (name == "exhaustive") {
    return ExploreStrategy::kExhaustive;
  }
  if (name == "random") {
    return ExploreStrategy::kRandom;
  }
  if (name == "coverage") {
    return ExploreStrategy::kCoverage;
  }
  return std::nullopt;
}

const std::vector<std::string>& CampaignSystemNames() {
  static const std::vector<std::string> names = {"git", "mysql", "bind", "pbft", "bfs"};
  return names;
}

bool IsCampaignSystem(const std::string& name) {
  for (const std::string& known : CampaignSystemNames()) {
    if (name == known) {
      return true;
    }
  }
  return false;
}

std::string CampaignSpec::Validate() const {
  bool journal_driven = mode == CampaignMode::kResume || mode == CampaignMode::kReplay;
  if (journal_driven) {
    if (journal_path.empty()) {
      return std::string(CampaignModeName(mode)) + " needs the journal path to operate on";
    }
    if (shard_index != kNoShard) {
      // A shard journal carries its own shard coordinates in the header;
      // resume re-derives them from the artifact.
      return std::string(CampaignModeName(mode)) +
             " takes its shard coordinates from the journal header, not the spec";
    }
    if (shard_count > 1 && mode != CampaignMode::kResume) {
      return "replay takes its shard coordinates from the journal header, not the spec";
    }
    return "";
  }
  if (epoch_len != 0 &&
      (mode != CampaignMode::kExplore || strategy != ExploreStrategy::kCoverage)) {
    return "epoch-len synchronizes coverage feedback; it only applies to "
           "explore --strategy coverage";
  }
  if (epoch_index != kNoEpoch && epoch_len == 0) {
    return "an epoch index only makes sense inside an epoch-len campaign";
  }
  if (!frontier_path.empty() && epoch_len == 0) {
    return "a frontier snapshot only makes sense inside an epoch-len campaign";
  }
  if (mode == CampaignMode::kExplore && strategy == ExploreStrategy::kCoverage &&
      shard_index != kNoShard && (epoch_index == kNoEpoch || frontier_path.empty())) {
    return "a coverage shard child runs one epoch of an orchestrated campaign: it needs "
           "the epoch ordinal and frontier snapshot the orchestrator provides (run-spec)";
  }
  if (system.empty()) {
    return "no target system named";
  }
  if (!IsCampaignSystem(system) &&
      !(system == "all" && mode == CampaignMode::kTable1)) {
    return "unknown system '" + system + "' (git|mysql|bind|pbft|bfs" +
           (mode == CampaignMode::kTable1 ? "|all)" : ")");
  }
  if (system == "all" && !journal_path.empty()) {
    return "campaign all cannot be journaled (one engine per system, no single job stream); "
           "journal one system at a time";
  }
  if (shard_count == 0) {
    return "shard count must be at least 1";
  }
  if (shard_index != kNoShard && shard_index >= shard_count) {
    return StrFormat("shard index %zu is out of range for %zu shard(s)", shard_index,
                     shard_count);
  }
  if (shard_count > 1) {
    if (journal_path.empty()) {
      return "sharded campaigns need --journal PATH (the per-shard artifacts and the "
             "merged campaign live there)";
    }
    if (system == "all") {
      return "shard one system at a time";
    }
    if (mode == CampaignMode::kExplore && strategy == ExploreStrategy::kCoverage &&
        epoch_len == 0) {
      return "coverage-guided exploration closes a global feedback loop no shard can see; "
             "run it with --epoch-len K (epoch-synchronized feedback), single-process, or "
             "shard its recorded journal / the exhaustive|random strategies";
    }
    if (mode == CampaignMode::kTable1 && !exhaustive) {
      return "sharded table1 campaigns need exhaustive=true: the historical fuzz cutoff "
             "is a global property no shard can see";
    }
  }
  if (resume && journal_path.empty()) {
    return "resume needs a journal path";
  }
  return "";
}

void CampaignSpec::AppendXml(XmlNode* parent) const {
  XmlNode* node = parent->AddChild("campaignspec");
  node->SetAttr("system", system);
  node->SetAttr("mode", CampaignModeName(mode));
  if (mode == CampaignMode::kExplore) {
    node->SetAttr("strategy", ExploreStrategyName(strategy));
  }
  if (exhaustive) {
    node->SetAttr("exhaustive", "true");
  }
  if (budget != 0) {
    node->SetAttr("budget", StrFormat("%zu", budget));
  }
  if (seed != 1) {
    node->SetAttr("seed", SeedToString(seed));
  }
  if (workers != 1) {
    node->SetAttr("workers", StrFormat("%d", workers));
  }
  if (!journal_path.empty()) {
    node->SetAttr("journal", journal_path);
  }
  if (resume) {
    node->SetAttr("resume", "true");
  }
  if (shard_index != kNoShard) {
    node->SetAttr("shard", StrFormat("%zu", shard_index));
  }
  if (shard_count != 1) {
    node->SetAttr("shards", StrFormat("%zu", shard_count));
  }
  if (epoch_len != 0) {
    node->SetAttr("epoch-len", StrFormat("%zu", epoch_len));
  }
  if (epoch_index != kNoEpoch) {
    node->SetAttr("epoch", StrFormat("%zu", epoch_index));
  }
  if (!frontier_path.empty()) {
    node->SetAttr("frontier", frontier_path);
  }
  if (child_timeout_ms != 0) {
    node->SetAttr("child-timeout-ms", StrFormat("%llu", static_cast<unsigned long long>(
                                                            child_timeout_ms)));
  }
  if (max_retries != 2) {
    node->SetAttr("max-retries", StrFormat("%zu", max_retries));
  }
  if (backoff_ms != 50) {
    node->SetAttr("backoff-ms", StrFormat("%llu", static_cast<unsigned long long>(backoff_ms)));
  }
  if (job_timeout_ms != 0) {
    node->SetAttr("job-timeout-ms",
                  StrFormat("%llu", static_cast<unsigned long long>(job_timeout_ms)));
  }
  if (cold_start) {
    node->SetAttr("cold-start", "true");
  }
  if (!failpoints.empty()) {
    node->SetAttr("failpoints", failpoints);
  }
  if (!replay_selector.empty()) {
    node->SetAttr("selector", replay_selector);
  }
  if (abort_after_records != 0) {
    node->SetAttr("abort-after", StrFormat("%zu", abort_after_records));
  }
}

std::string CampaignSpec::ToXml() const { return ToXmlElement(*this); }

std::optional<CampaignSpec> CampaignSpec::FromNode(const XmlNode& node, std::string* error) {
  auto fail = [&](std::string message) -> std::optional<CampaignSpec> {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return std::nullopt;
  };
  if (node.name() != "campaignspec") {
    return fail("campaign spec element must be <campaignspec>");
  }
  CampaignSpec spec;
  spec.system = node.AttrOr("system", "");
  auto mode = ParseCampaignMode(node.AttrOr("mode", "explore"));
  if (!mode) {
    return fail("unknown campaign mode '" + node.AttrOr("mode", "") + "'");
  }
  spec.mode = *mode;
  auto strategy = ParseExploreStrategy(node.AttrOr("strategy", "exhaustive"));
  if (!strategy) {
    return fail("unknown strategy '" + node.AttrOr("strategy", "") + "'");
  }
  spec.strategy = *strategy;
  spec.exhaustive = node.AttrOr("exhaustive", "false") == "true";
  spec.budget = SizeFromString(node.AttrOr("budget", "0"));
  spec.seed = SeedFromString(node.AttrOr("seed", "1"));
  if (auto workers = node.IntAttr("workers")) {
    spec.workers = static_cast<int>(*workers);
  }
  spec.journal_path = node.AttrOr("journal", "");
  spec.resume = node.AttrOr("resume", "false") == "true";
  if (auto shard = node.Attr("shard")) {
    spec.shard_index = SizeFromString(*shard);
  }
  spec.shard_count = SizeFromString(node.AttrOr("shards", "1"));
  spec.epoch_len = SizeFromString(node.AttrOr("epoch-len", "0"));
  if (auto epoch = node.Attr("epoch")) {
    spec.epoch_index = SizeFromString(*epoch);
  }
  spec.frontier_path = node.AttrOr("frontier", "");
  spec.child_timeout_ms = SeedFromString(node.AttrOr("child-timeout-ms", "0"));
  spec.max_retries = SizeFromString(node.AttrOr("max-retries", "2"));
  spec.backoff_ms = SeedFromString(node.AttrOr("backoff-ms", "50"));
  spec.job_timeout_ms = SeedFromString(node.AttrOr("job-timeout-ms", "0"));
  spec.cold_start = node.AttrOr("cold-start", "false") == "true";
  spec.failpoints = node.AttrOr("failpoints", "");
  spec.replay_selector = node.AttrOr("selector", "");
  spec.abort_after_records = SizeFromString(node.AttrOr("abort-after", "0"));
  return spec;
}

std::optional<CampaignSpec> CampaignSpec::Parse(const std::string& xml, std::string* error) {
  return ParseXmlElement<CampaignSpec>(xml, error);
}

JournalMetadata CampaignSpec::ToJournalMeta() const {
  JournalMetadata meta;
  if (mode == CampaignMode::kTable1) {
    // Historical key order and spellings: journals written before the spec
    // existed resume against exactly this identity.
    meta = {{"command", "campaign"},
            {"system", system},
            {"exhaustive", exhaustive ? "true" : "false"}};
  } else {
    meta = {{"command", "explore"},
            {"system", system},
            {"strategy", ExploreStrategyName(strategy)},
            {"budget", StrFormat("%zu", budget)},
            {"seed", SeedToString(seed)}};
    if (epoch_len != 0) {
      // Part of the identity: the epoch length decides the feedback
      // schedule, so journals with different epoch-len are different
      // campaigns (journal.cc's merge identity lists this key).
      meta.emplace_back("epoch-len", StrFormat("%zu", epoch_len));
    }
  }
  if (shard_index != kNoShard) {
    meta.emplace_back("shard", StrFormat("%zu", shard_index));
    meta.emplace_back("shards", StrFormat("%zu", shard_count));
  }
  if (epoch_index != kNoEpoch) {
    // Shard-artifact coordinate, like shard/shards: stripped on merge.
    meta.emplace_back("epoch", StrFormat("%zu", epoch_index));
  }
  return meta;
}

std::optional<CampaignSpec> CampaignSpec::FromJournalMeta(const JournalMetadata& meta,
                                                          std::string* error) {
  auto fail = [&](std::string message) -> std::optional<CampaignSpec> {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return std::nullopt;
  };
  CampaignSpec spec;
  auto mode = ParseCampaignMode(MetaValue(meta, "command", "explore"));
  if (!mode || (*mode != CampaignMode::kTable1 && *mode != CampaignMode::kExplore)) {
    return fail("journal records unknown command '" + MetaValue(meta, "command", "") + "'");
  }
  spec.mode = *mode;
  spec.system = MetaValue(meta, "system", "");
  spec.exhaustive = MetaValue(meta, "exhaustive", "false") == "true";
  auto strategy = ParseExploreStrategy(MetaValue(meta, "strategy", "exhaustive"));
  if (!strategy) {
    return fail("journal records unknown strategy '" + MetaValue(meta, "strategy", "") + "'");
  }
  spec.strategy = *strategy;
  spec.budget = SizeFromString(MetaValue(meta, "budget", "0"));
  spec.seed = SeedFromString(MetaValue(meta, "seed", "1"));
  spec.epoch_len = SizeFromString(MetaValue(meta, "epoch-len", "0"));
  std::string shard = MetaValue(meta, "shard", "");
  if (!shard.empty()) {
    spec.shard_index = SizeFromString(shard);
    spec.shard_count = SizeFromString(MetaValue(meta, "shards", "1"));
  }
  std::string epoch = MetaValue(meta, "epoch", "");
  if (!epoch.empty()) {
    spec.epoch_index = SizeFromString(epoch);
  }
  return spec;
}

std::string SpecWirePath(const std::string& journal_path) { return journal_path + ".spec"; }

std::string CampaignSpec::ShardJournalPath(size_t shard) const {
  return journal_path + StrFormat(".shard%zu", shard);
}

std::string CampaignSpec::EpochShardJournalPath(size_t epoch, size_t shard) const {
  return journal_path + StrFormat(".epoch%zu.shard%zu", epoch, shard);
}

std::string CampaignSpec::EpochFrontierPath(size_t epoch) const {
  return journal_path + StrFormat(".epoch%zu.frontier", epoch);
}

}  // namespace lfi
