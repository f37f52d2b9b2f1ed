#include "core/exploration.h"

#include <algorithm>
#include <stdexcept>

#include "core/scenario_gen.h"
#include "util/string_util.h"

namespace lfi {
namespace {

// Seed mixing for per-job Runtime seeds: fold the plan coordinates into the
// strategy seed so every scheduled variant gets its own decorrelated stream.
uint64_t MixSeed(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

void ScenarioSource::OnFeedback(const CampaignJob& job, const RunFeedback& feedback) {
  (void)job;
  (void)feedback;
}

RunFeedback CampaignFold::Add(const JobResult& result) {
  RunFeedback feedback;
  for (const FoundBug& bug : result.bugs) {
    feedback.new_bug |= bugs.insert(bug).second;
  }
  feedback.injections = result.injections;
  feedback.fingerprint = result.fingerprint;
  feedback.new_blocks = result.coverage.NewlyCoveredVersus(coverage);
  coverage.Absorb(result.coverage);
  ++scenarios_run;
  return feedback;
}

ExplorationResult CampaignFold::TakeResult() {
  ExplorationResult result;
  result.bugs = {bugs.begin(), bugs.end()};
  result.coverage = std::move(coverage);
  result.scenarios_run = scenarios_run;
  return result;
}

// --- RunFeedback XML --------------------------------------------------------

void RunFeedback::AppendXml(XmlNode* parent) const {
  XmlNode* node = parent->AddChild("feedback");
  if (new_bug) {
    node->SetAttr("new-bug", "true");
  }
  node->SetAttr("injections", StrFormat("%zu", injections));
  if (!fingerprint.empty()) {
    node->SetAttr("fingerprint", fingerprint);
  }
  for (const std::string& block : new_blocks) {
    node->AddChild("newblock")->SetAttr("id", block);
  }
}

std::string RunFeedback::ToXml() const { return ToXmlElement(*this); }

// --- FrontierState XML ------------------------------------------------------

namespace {

void AppendPlans(XmlNode* parent, const char* name,
                 const std::vector<FrontierState::Plan>& plans) {
  XmlNode* list = parent->AddChild(name);
  for (const FrontierState::Plan& plan : plans) {
    XmlNode* node = list->AddChild("plan");
    node->SetAttr("report", StrFormat("%zu", plan.report_index));
    node->SetAttr("retval", StrFormat("%lld", static_cast<long long>(plan.retval)));
    node->SetAttr("errno", StrFormat("%d", plan.errno_value));
    node->SetAttr("call", StrFormat("%llu", (unsigned long long)plan.call_count));
  }
}

bool ParsePlans(const XmlNode& parent, const char* name,
                std::vector<FrontierState::Plan>* out, std::string* error) {
  const XmlNode* list = parent.Child(name);
  if (list == nullptr) {
    if (error != nullptr) {
      *error = StrFormat("frontier is missing its <%s> list", name);
    }
    return false;
  }
  for (const XmlNode* node : list->Children("plan")) {
    FrontierState::Plan plan;
    plan.report_index = static_cast<size_t>(node->IntAttr("report").value_or(0));
    plan.retval = node->IntAttr("retval").value_or(0);
    plan.errno_value = static_cast<int>(node->IntAttr("errno").value_or(0));
    plan.call_count = static_cast<uint64_t>(node->IntAttr("call").value_or(0));
    out->push_back(plan);
  }
  return true;
}

}  // namespace

void FrontierState::AppendXml(XmlNode* parent) const {
  XmlNode* node = parent->AddChild("frontier");
  node->SetAttr("scheduled", StrFormat("%zu", scheduled));
  AppendPlans(node, "explore", explore);
  AppendPlans(node, "exploit", exploit);
  XmlNode* keys = node->AddChild("seen");
  for (const std::string& key : seen_keys) {
    keys->AddChild("key")->SetAttr("id", key);
  }
  XmlNode* fingerprints = node->AddChild("fingerprints");
  for (const std::string& fingerprint : seen_fingerprints) {
    fingerprints->AddChild("fp")->SetAttr("id", fingerprint);
  }
}

std::string FrontierState::ToXml() const { return ToXmlElement(*this); }

std::optional<FrontierState> FrontierState::FromNode(const XmlNode& node, std::string* error) {
  if (node.name() != "frontier") {
    if (error != nullptr) {
      *error = "frontier element must be <frontier>";
    }
    return std::nullopt;
  }
  FrontierState state;
  state.scheduled = static_cast<size_t>(node.IntAttr("scheduled").value_or(0));
  if (!ParsePlans(node, "explore", &state.explore, error) ||
      !ParsePlans(node, "exploit", &state.exploit, error)) {
    return std::nullopt;
  }
  if (const XmlNode* keys = node.Child("seen")) {
    for (const XmlNode* key : keys->Children("key")) {
      state.seen_keys.push_back(key->AttrOr("id", ""));
    }
  }
  if (const XmlNode* fingerprints = node.Child("fingerprints")) {
    for (const XmlNode* fingerprint : fingerprints->Children("fp")) {
      state.seen_fingerprints.push_back(fingerprint->AttrOr("id", ""));
    }
  }
  return state;
}

std::optional<FrontierState> FrontierState::Parse(const std::string& xml, std::string* error) {
  return ParseXmlElement<FrontierState>(xml, error);
}

// --- ExhaustiveSource -------------------------------------------------------

ExhaustiveSource::ExhaustiveSource(std::vector<CampaignJob> jobs, size_t budget)
    : jobs_(std::move(jobs)) {
  if (budget > 0 && budget < jobs_.size()) {
    jobs_.resize(budget);
  }
}

std::vector<CampaignJob> ExhaustiveSource::NextBatch(size_t max_jobs) {
  std::vector<CampaignJob> out;
  while (next_ < jobs_.size() && out.size() < max_jobs) {
    out.push_back(jobs_[next_++]);
  }
  return out;
}

// --- RandomSweepSource ------------------------------------------------------

RandomSweepSource::RandomSweepSource(const FaultProfile& profile,
                                     std::vector<std::string> functions, size_t budget,
                                     uint64_t seed)
    : profile_(&profile), functions_(std::move(functions)), budget_(budget), rng_(seed) {
  // Canonical sample space: the caller's order must not leak into the stream.
  std::sort(functions_.begin(), functions_.end());
  functions_.erase(std::unique(functions_.begin(), functions_.end()), functions_.end());
}

std::vector<CampaignJob> RandomSweepSource::NextBatch(size_t max_jobs) {
  std::vector<CampaignJob> out;
  if (functions_.empty()) {
    return out;
  }
  while (out.size() < max_jobs && emitted_ < budget_) {
    // Rejection-sample an unseen (function, error mode, ordinal) tuple. A
    // long dry streak means the space is (nearly) exhausted: stop the sweep
    // rather than spin -- deterministically, since the Rng drives both.
    bool produced = false;
    for (int attempt = 0; attempt < 64 && !produced; ++attempt) {
      const size_t function_index = rng_.NextBelow(functions_.size());
      const std::string& function = functions_[function_index];
      const FunctionProfile* fn = profile_->Find(function);
      if (fn == nullptr || fn->errors.empty()) {
        continue;
      }
      const ErrorSpec& mode = fn->errors[rng_.NextBelow(fn->errors.size())];
      int errno_value =
          mode.errnos.empty() ? 0
                              : mode.errnos[rng_.NextBelow(mode.errnos.size())];
      uint64_t count = 1 + rng_.NextBelow(8);
      if (!seen_keys_.emplace(function_index, mode.retval, errno_value, count).second) {
        continue;
      }
      CampaignJob job;
      job.scenario = MakeCallCountScenario(function, count, mode.retval, errno_value);
      job.label = "random-sweep " + function + "#" + std::to_string(count) + "=" +
                  std::to_string(mode.retval) + " errno=" + std::to_string(errno_value);
      job.seed = rng_.Next() | 1;
      out.push_back(std::move(job));
      ++emitted_;
      produced = true;
    }
    if (!produced) {
      emitted_ = budget_;  // sample space exhausted; end the sweep
      break;
    }
  }
  return out;
}

// --- CoverageGuidedSource ---------------------------------------------------

CoverageGuidedSource::CoverageGuidedSource(std::vector<CallSiteReport> reports,
                                           const FaultProfile& profile, Options options)
    : reports_(std::move(reports)), profile_(&profile), options_(options) {
  // Initial frontier: every analyzable site exactly once, ordered so the
  // budget is spent where unseen recovery code is likeliest. Unchecked sites
  // beat partially checked beat fully checked, and within a class sites are
  // taken round-robin across enclosing functions: two sites in the same
  // function tend to guard the same recovery region, so diversity first.
  auto append_class = [this](CheckClass cls) {
    std::vector<std::string> group_order;                    // first-appearance order
    std::map<std::string, std::deque<size_t>> by_enclosing;  // pending indices
    for (size_t i = 0; i < reports_.size(); ++i) {
      if (reports_[i].check_class != cls) {
        continue;
      }
      auto [it, inserted] = by_enclosing.emplace(reports_[i].site.enclosing, std::deque<size_t>());
      if (inserted) {
        group_order.push_back(reports_[i].site.enclosing);
      }
      it->second.push_back(i);
    }
    bool drained = false;
    while (!drained) {
      drained = true;
      for (const std::string& enclosing : group_order) {
        std::deque<size_t>& pending = by_enclosing[enclosing];
        if (pending.empty()) {
          continue;
        }
        drained = false;
        size_t index = pending.front();
        pending.pop_front();
        const FunctionProfile* fn = profile_->Find(reports_[index].site.function);
        Plan plan;
        plan.report_index = index;
        if (fn == nullptr ||
            !PickSiteErrorMode(reports_[index], *fn, &plan.retval, &plan.errno_value)) {
          continue;  // nothing injectable at this site
        }
        explore_.push_back(plan);
      }
    }
  };
  append_class(CheckClass::kNone);
  append_class(CheckClass::kPartial);
  if (options_.include_checked_sites) {
    append_class(CheckClass::kFull);
  }
}

std::string CoverageGuidedSource::PlanKey(const Plan& plan) const {
  const CallSite& site = reports_[plan.report_index].site;
  return StrFormat("%x:%lld:%d:%llu", site.offset, static_cast<long long>(plan.retval),
                   plan.errno_value, (unsigned long long)plan.call_count);
}

bool CoverageGuidedSource::Schedule(const Plan& plan, std::vector<CampaignJob>* out) {
  // Mutations claimed their key at enqueue time; initial site plans claim it
  // here. Either way the key is marked before the job runs.
  seen_keys_.insert(PlanKey(plan));
  const CallSiteReport& report = reports_[plan.report_index];
  CampaignJob job;
  job.scenario =
      GenerateSiteScenarioVariant(report, plan.retval, plan.errno_value, plan.call_count);
  if (job.scenario.functions().empty()) {
    return false;
  }
  job.label = StrFormat("explore %s@%s+0x%x retval=%lld errno=%d", report.site.function.c_str(),
                        report.site.enclosing.c_str(), report.site.offset,
                        static_cast<long long>(plan.retval), plan.errno_value);
  if (plan.call_count > 0) {
    job.label += StrFormat(" call=%llu", (unsigned long long)plan.call_count);
  }
  uint64_t seed = MixSeed(options_.seed, report.site.offset + 1);
  seed = MixSeed(seed, static_cast<uint64_t>(plan.retval));
  seed = MixSeed(seed, static_cast<uint64_t>(plan.errno_value));
  seed = MixSeed(seed, plan.call_count);
  job.seed = seed | 1;
  // Stamp the job's position in the schedule stream. In a single process the
  // engine's merge index equals this position, so stamping changes nothing;
  // in an epoch shard worker's journal it is what lets MergeRecordsInto restore
  // exact single-process order.
  job.stream_index = scheduled_;
  in_flight_[job.label] = plan;
  out->push_back(std::move(job));
  ++scheduled_;
  return true;
}

std::vector<CampaignJob> CoverageGuidedSource::NextBatch(size_t max_jobs) {
  std::vector<CampaignJob> out;
  while (out.size() < max_jobs && scheduled_ < options_.budget) {
    Plan plan;
    if (!explore_.empty()) {
      plan = explore_.front();
      explore_.pop_front();
    } else if (!exploit_.empty()) {
      plan = exploit_.front();
      exploit_.pop_front();
    } else {
      break;
    }
    Schedule(plan, &out);  // false = nothing injectable; just move on
  }
  return out;
}

void CoverageGuidedSource::OnFeedback(const CampaignJob& job, const RunFeedback& feedback) {
  auto it = in_flight_.find(job.label);
  if (it == in_flight_.end()) {
    return;
  }
  Plan plan = it->second;
  in_flight_.erase(it);
  if (!feedback.fingerprint.empty() &&
      !seen_fingerprints_.insert(feedback.fingerprint).second) {
    // An already-observed fault sequence: the scenario is behaviourally
    // equivalent to an earlier one, so expanding it would re-explore the
    // same neighbourhood.
    return;
  }
  if (feedback.new_bug || !feedback.new_blocks.empty()) {
    EnqueueMutations(plan);
  }
}

void CoverageGuidedSource::EnqueueMutations(const Plan& plan) {
  const CallSiteReport& report = reports_[plan.report_index];
  const FunctionProfile* fn = profile_->Find(report.site.function);
  if (fn == nullptr) {
    return;
  }
  int enqueued = 0;
  auto offer = [&](int64_t retval, int errno_value, uint64_t call_count) {
    if (enqueued >= options_.max_mutations_per_run) {
      return;
    }
    Plan mutated = plan;
    mutated.retval = retval;
    mutated.errno_value = errno_value;
    mutated.call_count = call_count;
    // Claiming the key now (not at Schedule time) keeps a pending duplicate
    // from eating a second fruitful run's mutation slots.
    if (!seen_keys_.insert(PlanKey(mutated)).second) {
      return;
    }
    exploit_.push_back(mutated);
    ++enqueued;
  };
  // Other error modes of the same function, then later call ordinals at the
  // same site (a second fopen may guard a different recovery path than the
  // first).
  for (const ErrorSpec& mode : fn->errors) {
    if (mode.errnos.empty()) {
      offer(mode.retval, 0, plan.call_count);
    } else {
      for (int errno_value : mode.errnos) {
        offer(mode.retval, errno_value, plan.call_count);
      }
    }
  }
  for (uint64_t count = 2; count <= options_.max_call_count; ++count) {
    offer(plan.retval, plan.errno_value, count);
  }
}

FrontierState CoverageGuidedSource::ExportFrontier() const {
  if (!in_flight_.empty()) {
    throw std::logic_error(
        "CoverageGuidedSource::ExportFrontier: source is not quiescent (feedback is "
        "outstanding for scheduled jobs); export only at an epoch boundary");
  }
  FrontierState state;
  state.explore.assign(explore_.begin(), explore_.end());
  state.exploit.assign(exploit_.begin(), exploit_.end());
  state.seen_keys.assign(seen_keys_.begin(), seen_keys_.end());
  state.seen_fingerprints.assign(seen_fingerprints_.begin(), seen_fingerprints_.end());
  state.scheduled = scheduled_;
  return state;
}

void CoverageGuidedSource::ImportFrontier(const FrontierState& state) {
  explore_.assign(state.explore.begin(), state.explore.end());
  exploit_.assign(state.exploit.begin(), state.exploit.end());
  seen_keys_ = std::set<std::string>(state.seen_keys.begin(), state.seen_keys.end());
  seen_fingerprints_ =
      std::set<std::string>(state.seen_fingerprints.begin(), state.seen_fingerprints.end());
  in_flight_.clear();
  scheduled_ = state.scheduled;
}

}  // namespace lfi
