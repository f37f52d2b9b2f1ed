#include "apps/common/campaign_spec.h"

#include <algorithm>
#include <climits>
#include <limits>
#include <map>
#include <string_view>
#include <type_traits>

#include "core/journal.h"
#include "util/string_util.h"

namespace lfi {
namespace {

// --- name tables ------------------------------------------------------------
// A value's first name is its canonical spelling. "campaign" is the
// journal-header spelling of table1 mode, accepted so every journal resumes.

constexpr std::pair<CampaignMode, const char*> kModeNames[] = {
    {CampaignMode::kTable1, "table1"}, {CampaignMode::kExplore, "explore"},
    {CampaignMode::kResume, "resume"}, {CampaignMode::kReplay, "replay"},
    {CampaignMode::kTable1, "campaign"}};

constexpr std::pair<ExploreStrategy, const char*> kStrategyNames[] = {
    {ExploreStrategy::kExhaustive, "exhaustive"},
    {ExploreStrategy::kRandom, "random"},
    {ExploreStrategy::kCoverage, "coverage"}};

template <typename Enum, size_t N>
const char* NameOf(const std::pair<Enum, const char*> (&names)[N], Enum value) {
  for (const auto& [known, name] : names) {
    if (known == value) {
      return name;
    }
  }
  return "?";
}

template <typename Enum, size_t N>
std::optional<Enum> ValueOf(const std::pair<Enum, const char*> (&names)[N],
                            std::string_view name) {
  for (const auto& [value, known] : names) {
    if (name == known) {
      return value;
    }
  }
  return std::nullopt;
}

// --- value codecs -----------------------------------------------------------
// One strict parser and one printer per value type. The command line and
// the journal header both go through them, so every value one accepts, the
// other accepts too.

bool ParseValue(std::string_view text, std::string* out) {
  *out = std::string(text);
  return true;
}

bool ParseValue(std::string_view text, bool* out) {
  if (text != "true" && text != "false") {
    return false;
  }
  *out = text == "true";
  return true;
}

// <= 0 is a meaningful worker count (one per hardware thread).
bool ParseValue(std::string_view text, int* out) {
  bool negative = StartsWith(text, "-");
  std::optional<uint64_t> magnitude = ParseUint(text.substr(negative ? 1 : 0));
  if (!magnitude || *magnitude > uint64_t{INT_MAX} + (negative ? 1 : 0)) {
    return false;
  }
  int64_t value = static_cast<int64_t>(*magnitude);
  *out = static_cast<int>(negative ? -value : value);
  return true;
}

template <typename T>
  requires std::is_unsigned_v<T>
bool ParseValue(std::string_view text, T* out) {
  std::optional<uint64_t> value = ParseUint(text);
  if (!value || *value > std::numeric_limits<T>::max()) {
    return false;
  }
  *out = static_cast<T>(*value);
  return true;
}

const auto& NamesOf(CampaignMode) { return kModeNames; }
const auto& NamesOf(ExploreStrategy) { return kStrategyNames; }

template <typename Enum>
  requires std::is_enum_v<Enum>
bool ParseValue(std::string_view text, Enum* out) {
  std::optional<Enum> value = ValueOf(NamesOf(Enum{}), text);
  if (!value) {
    return false;
  }
  *out = *value;
  return true;
}

std::string PrintValue(const std::string& value) { return value; }
std::string PrintValue(bool value) { return value ? "true" : "false"; }
std::string PrintValue(int value) { return StrFormat("%d", value); }

template <typename Enum>
  requires std::is_enum_v<Enum>
std::string PrintValue(Enum value) {
  return NameOf(NamesOf(value), value);
}

template <typename T>
  requires std::is_unsigned_v<T>
std::string PrintValue(T value) {
  return StrFormat("%llu", static_cast<unsigned long long>(value));
}

// --- the field table --------------------------------------------------------

using Printer = std::string (*)(const CampaignSpec&);
using Parser = bool (*)(std::string_view, CampaignSpec*);

// A field's value, type-erased: the codec above applied to one member.
struct FieldOps {
  Printer print;
  Parser parse;
  bool (*is_default)(const CampaignSpec&);  // equal to a default spec's value
  void (*copy)(const CampaignSpec& from, CampaignSpec* to);
};

// `kMin` bounds unsigned fields from below; `kHex` prints them as 0x...
// (the seed: full-range, and the encoding journals have always recorded).
template <auto kMember, uint64_t kMin = 0, bool kHex = false>
constexpr FieldOps Ops() {
  using T = std::remove_cvref_t<decltype(std::declval<CampaignSpec&>().*kMember)>;
  return {
      [](const CampaignSpec& spec) {
        if constexpr (kHex) {
          return StrFormat("0x%llx", static_cast<unsigned long long>(spec.*kMember));
        } else {
          return PrintValue(spec.*kMember);
        }
      },
      [](std::string_view text, CampaignSpec* spec) {
        T value = spec->*kMember;
        if (!ParseValue(text, &value)) {
          return false;
        }
        if constexpr (std::is_unsigned_v<T> && !std::is_same_v<T, bool>) {
          if (value < kMin) {
            return false;
          }
        }
        spec->*kMember = value;
        return true;
      },
      [](const CampaignSpec& spec) { return spec.*kMember == CampaignSpec{}.*kMember; },
      [](const CampaignSpec& from, CampaignSpec* to) { to->*kMember = from.*kMember; },
  };
}

// When a field is written to the journal header; nullptr means "when its
// value differs from a default-constructed spec's".
using Presence = bool (*)(const CampaignSpec&);

bool Always(const CampaignSpec&) { return true; }
// Journal headers know two identities: Table 1 ("campaign") and explore.
bool Table1Identity(const CampaignSpec& spec) { return spec.mode == CampaignMode::kTable1; }
bool ExploreIdentity(const CampaignSpec& spec) { return spec.mode != CampaignMode::kTable1; }
bool Sharded(const CampaignSpec& spec) { return spec.shard_index != CampaignSpec::kNoShard; }

struct SpecField {
  const char* name;
  FieldOps ops;
  const char* flag = nullptr;  // command-line flag
  const char* arg = nullptr;   // the flag's value in usage; nullptr = a switch
  const char* help = nullptr;  // usage text; nullptr = undocumented
  // Journal header: key, presence, and position. The historical key order
  // is not the table order ("command" before "system", "epoch-len" before
  // the shard keys), so each key carries its rank.
  const char* meta = nullptr;
  Presence in_meta = nullptr;
  int meta_rank = 0;
  // Identity comes from the journal on resume; everything else (the
  // environment) from the resuming invocation.
  bool identity = false;
  Printer meta_print = nullptr;  // overrides ops.print in the header
  Parser flag_parse = nullptr;   // overrides ops.parse on the command line
};

// The header spells table1 mode "campaign" and every other mode "explore".
std::string CommandHeader(const CampaignSpec& spec) {
  return spec.mode == CampaignMode::kTable1 ? "campaign" : "explore";
}

bool ParseShardFlag(std::string_view text, CampaignSpec* spec);

// Usage order. A field no flag sets, no header records and no resume adopts
// has no row: `format` has one value, and the driver and lfi_tool set the
// resume marker and replay's selector.
const SpecField kFields[] = {
    {.name = "system", .ops = Ops<&CampaignSpec::system>(), .meta = "system",
     .in_meta = Always, .meta_rank = 1, .identity = true},
    {.name = "mode", .ops = Ops<&CampaignSpec::mode>(), .meta = "command", .in_meta = Always,
     .meta_rank = 0, .identity = true, .meta_print = CommandHeader},
    {.name = "strategy", .ops = Ops<&CampaignSpec::strategy>(), .flag = "--strategy",
     .arg = "NAME", .help = "explore: exhaustive | random | coverage", .meta = "strategy",
     .in_meta = ExploreIdentity, .meta_rank = 3, .identity = true},
    {.name = "exhaustive", .ops = Ops<&CampaignSpec::exhaustive>(), .flag = "--exhaustive",
     .help = "campaign: no historical fuzz cutoff (required to shard)", .meta = "exhaustive",
     .in_meta = Table1Identity, .meta_rank = 2, .identity = true},
    {.name = "budget", .ops = Ops<&CampaignSpec::budget>(), .flag = "--budget", .arg = "N",
     .help = "explore: scenarios to run (0 = the strategy's natural size)", .meta = "budget",
     .in_meta = ExploreIdentity, .meta_rank = 4, .identity = true},
    {.name = "seed", .ops = Ops<&CampaignSpec::seed, 0, /*kHex=*/true>(), .flag = "--seed",
     .arg = "S", .help = "explore: random selection and per-job seeds (uint64, 0x.. ok)",
     .meta = "seed", .in_meta = ExploreIdentity, .meta_rank = 5, .identity = true},
    {.name = "workers", .ops = Ops<&CampaignSpec::workers>(), .flag = "--workers",
     .arg = "W", .help = "engine workers; <= 0 = one per hardware thread"},
    {.name = "journal", .ops = Ops<&CampaignSpec::journal_path>(), .flag = "--journal",
     .arg = "PATH", .help = "journal artifact (required to shard)"},
    {.name = "shard", .ops = Ops<&CampaignSpec::shard_index>(), .flag = "--shard",
     .arg = "I/N", .help = "explore: run only shard I of N (merge the shards later)",
     .meta = "shard", .meta_rank = 7, .identity = true, .flag_parse = ParseShardFlag},
    // A shard artifact's header records its shard count, but resuming takes
    // the count from the invocation (`resume --shards N`): environment.
    {.name = "shards", .ops = Ops<&CampaignSpec::shard_count, 1>(), .flag = "--shards",
     .arg = "N", .help = "orchestrate N shard processes, then merge (resume too)",
     .meta = "shards", .in_meta = Sharded, .meta_rank = 8},
    {.name = "epoch-len", .ops = Ops<&CampaignSpec::epoch_len, 1>(), .flag = "--epoch-len",
     .arg = "K", .help = "coverage: merged batches per feedback epoch (required to shard)",
     .meta = "epoch-len", .meta_rank = 6, .identity = true},
    {.name = "epoch", .ops = Ops<&CampaignSpec::epoch_index>(), .meta = "epoch",
     .meta_rank = 9, .identity = true},
    {.name = "child-timeout-ms", .ops = Ops<&CampaignSpec::child_timeout_ms>(),
     .flag = "--child-timeout-ms", .arg = "MS",
     .help = "shard child deadline (0 = derived from --job-timeout-ms)"},
    {.name = "max-retries", .ops = Ops<&CampaignSpec::max_retries>(),
     .flag = "--max-retries", .arg = "R", .help = "respawns per failed shard child"},
    {.name = "backoff-ms", .ops = Ops<&CampaignSpec::backoff_ms>(), .flag = "--backoff-ms",
     .arg = "MS", .help = "first respawn delay (doubles per respawn)"},
    {.name = "job-timeout-ms", .ops = Ops<&CampaignSpec::job_timeout_ms>(),
     .flag = "--job-timeout-ms", .arg = "MS",
     .help = "per-job hang budget; a job past it is a \"hang\" bug (0 = off)"},
    {.name = "cold-start", .ops = Ops<&CampaignSpec::cold_start>(), .flag = "--cold-start",
     .help = "fresh target per job instead of reset-and-reuse (same bytes)"},
    {.name = "failpoints", .ops = Ops<&CampaignSpec::failpoints>(), .flag = "--failpoints",
     .arg = "SPEC", .help = "orchestrator fault schedule (src/util/failpoint.h)"},
    {.name = "abort-after", .ops = Ops<&CampaignSpec::abort_after_records>(),
     .flag = "--abort-after", .arg = "N"},
};

const SpecField* FindField(const char* SpecField::*column, std::string_view name) {
  for (const SpecField& field : kFields) {
    if (field.*column != nullptr && name == field.*column) {
      return &field;
    }
  }
  return nullptr;
}

const SpecField& Field(std::string_view name) { return *FindField(&SpecField::name, name); }

bool Holds(Presence presence, const SpecField& field, const CampaignSpec& spec) {
  return presence != nullptr ? presence(spec) : !field.ops.is_default(spec);
}

// --shard I/N names the shard index and the shard count at once.
bool ParseShardFlag(std::string_view text, CampaignSpec* spec) {
  size_t slash = text.find('/');
  return slash != std::string_view::npos &&
         Field("shard").ops.parse(text.substr(0, slash), spec) &&
         Field("shards").ops.parse(text.substr(slash + 1), spec);
}

std::nullopt_t Fail(std::string* error, std::string message) {
  if (error != nullptr) {
    *error = std::move(message);
  }
  return std::nullopt;
}

}  // namespace

const char* CampaignModeName(CampaignMode mode) { return NameOf(kModeNames, mode); }

std::optional<CampaignMode> ParseCampaignMode(const std::string& name) {
  return ValueOf(kModeNames, name);
}

const char* ExploreStrategyName(ExploreStrategy strategy) {
  return NameOf(kStrategyNames, strategy);
}

std::optional<ExploreStrategy> ParseExploreStrategy(const std::string& name) {
  return ValueOf(kStrategyNames, name);
}

const std::vector<std::string>& CampaignSystemNames() {
  static const std::vector<std::string> names = {"git", "mysql", "bind", "pbft", "bfs"};
  return names;
}

bool IsCampaignSystem(const std::string& name) {
  return std::ranges::find(CampaignSystemNames(), name) != CampaignSystemNames().end();
}

std::string CampaignSpec::Validate() const {
  bool journal_driven = mode == CampaignMode::kResume || mode == CampaignMode::kReplay;
  if (journal_driven) {
    if (journal_path.empty()) {
      return std::string(CampaignModeName(mode)) + " needs the journal path to operate on";
    }
    // A shard journal carries its own shard coordinates in the header;
    // resume re-derives them from the artifact (its --shards N is how many
    // processes continue the campaign).
    if (shard_index != kNoShard || (shard_count > 1 && mode == CampaignMode::kReplay)) {
      return std::string(CampaignModeName(mode)) +
             " takes its shard coordinates from the journal header, not the spec";
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
  if (mode == CampaignMode::kExplore && strategy == ExploreStrategy::kCoverage &&
      shard_index != kNoShard && epoch_index == kNoEpoch) {
    return "a coverage shard runs one epoch of an orchestrated campaign, on the jobs the "
           "orchestrator deals it";
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

JournalMetadata CampaignSpec::ToJournalMeta() const {
  std::map<int, std::pair<std::string, std::string>> ranked;
  for (const SpecField& field : kFields) {
    if (field.meta != nullptr && Holds(field.in_meta, field, *this)) {
      Printer print = field.meta_print != nullptr ? field.meta_print : field.ops.print;
      ranked[field.meta_rank] = {field.meta, print(*this)};
    }
  }
  JournalMetadata meta;
  for (auto& [rank, entry] : ranked) {
    meta.push_back(std::move(entry));
  }
  return meta;
}

std::optional<CampaignSpec> CampaignSpec::FromJournalMeta(const JournalMetadata& meta,
                                                          std::string* error) {
  CampaignSpec spec;
  for (const SpecField& field : kFields) {
    if (field.meta == nullptr) {
      continue;
    }
    auto entry = std::find_if(meta.begin(), meta.end(),
                              [&](const auto& key_value) { return key_value.first == field.meta; });
    if (entry != meta.end() && !field.ops.parse(entry->second, &spec)) {
      return Fail(error, "journal records bad " + entry->first + " '" + entry->second + "'");
    }
  }
  if (spec.mode != CampaignMode::kTable1 && spec.mode != CampaignMode::kExplore) {
    return Fail(error, "journal records unknown command '" + MetaValue(meta, "command", "") + "'");
  }
  return spec;
}

void CampaignSpec::AdoptEnvironment(const CampaignSpec& invocation) {
  for (const SpecField& field : kFields) {
    if (!field.identity) {
      field.ops.copy(invocation, this);
    }
  }
}

bool ParseSpecFlags(const std::vector<std::string>& args, size_t start, CampaignSpec* spec,
                    std::string* error) {
  auto fail = [&](std::string message) {
    Fail(error, std::move(message));
    return false;
  };
  for (size_t i = start; i < args.size(); ++i) {
    const SpecField* field = FindField(&SpecField::flag, args[i]);
    if (field == nullptr) {
      // The historical `campaign <system> <workers>` form.
      if (!Field("workers").ops.parse(args[i], spec)) {
        return fail("unknown option '" + args[i] + "'");
      }
      continue;
    }
    std::string value = "true";  // a switch
    if (field->arg != nullptr) {
      if (i + 1 == args.size()) {
        return fail(std::string(field->flag) + " requires a value");
      }
      value = args[++i];
    }
    if (!(field->flag_parse != nullptr ? field->flag_parse : field->ops.parse)(value, spec)) {
      return fail(StrFormat("bad %s value '%s'", field->flag, value.c_str()));
    }
  }
  return true;
}

std::string SpecFlagsUsage() {
  std::string out;
  for (const SpecField& field : kFields) {
    if (field.help != nullptr) {
      std::string synopsis = field.flag;
      if (field.arg != nullptr) {
        synopsis += std::string(" ") + field.arg;
      }
      out += StrFormat("  %-22s %s\n", synopsis.c_str(), field.help);
    }
  }
  return out;
}

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
