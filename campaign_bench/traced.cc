// The traced run: every campaign rebuilt from each layer's public pieces --
// AnalysisCache::Reports, the driver's ScenarioSource, a WarmPool over the
// public *WarmFactory(), a CampaignEngine with the spec's options and
// ToJournalMeta() -- each wrapped in a span decorator. The composition must
// write the driver's journal byte for byte; otherwise it would be measuring a
// different program.
//
// Spans go to one buffer per recording thread (engine workers record
// concurrently), are folded into per-layer totals after every campaign, and
// the first kMaxTraceSpans are written once at exit as Chrome trace-event
// JSON together with the layer table.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>

#include "apps/common/shard_supervisor.h"
#include "apps/common/warm_targets.h"
#include "bench.h"
#include "core/analysis_cache.h"
#include "core/exploration.h"
#include "core/journal.h"
#include "core/stock_triggers.h"
#include "core/warm_pool.h"
#include "util/string_util.h"
#include "vlib/library_profiles.h"

namespace bench {
namespace {

namespace fs = std::filesystem;

enum Layer : uint8_t {
  kAnalysis,
  kNextBatch,
  kFeedback,
  kBuild,
  kReset,
  kApps,
  kEngine,
  kLayerCount,
};

const char* const kLayerNames[kLayerCount] = {
    "analysis.reports", "exploration.next_batch", "exploration.feedback", "warm_pool.build",
    "warm_pool.reset",  "apps.run",               "campaign_engine.run",
};

constexpr size_t kMaxTraceSpans = 50000;
constexpr int kSpawnProbes = 10;
constexpr size_t kProbeShards = 4;

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // Layer payload: jobs (next_batch), injections (apps), useful feedback
  // (feedback), failed reset (reset).
  uint32_t count = 0;
  uint32_t bugs = 0;  // apps: bugs the job reported
  Layer layer = kAnalysis;
  uint32_t thread = 0;
};

// Per-thread span buffers. A thread registers its buffer on first use and
// marks it finished when it exits; Drain() moves every buffered span out and
// forgets finished buffers. Each buffer has its own lock, so recording never
// contends with other workers.
class SpanRecorder {
 public:
  static SpanRecorder& Instance() {
    static SpanRecorder recorder;
    return recorder;
  }

  void Record(const Span& span) {
    Buffer* buffer = ThreadBuffer();
    std::lock_guard<std::mutex> lock(buffer->mu);
    buffer->spans.push_back(span);
    buffer->spans.back().thread = buffer->thread;
  }

  std::vector<Span> Drain() {
    std::vector<Span> out;
    std::vector<std::unique_ptr<Buffer>> live;
    std::lock_guard<std::mutex> lock(mu_);
    for (std::unique_ptr<Buffer>& buffer : buffers_) {
      bool finished = false;
      {
        std::lock_guard<std::mutex> buffer_lock(buffer->mu);
        out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
        buffer->spans.clear();
        finished = buffer->finished;
      }
      // A finished buffer's thread has exited and will never touch it again.
      if (!finished) {
        live.push_back(std::move(buffer));
      }
    }
    buffers_ = std::move(live);
    return out;
  }

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<Span> spans;
    uint32_t thread = 0;
    bool finished = false;
  };
  struct ThreadSlot {
    Buffer* buffer = nullptr;
    ~ThreadSlot() {
      if (buffer != nullptr) {
        std::lock_guard<std::mutex> lock(buffer->mu);
        buffer->finished = true;
      }
    }
  };

  Buffer* ThreadBuffer() {
    thread_local ThreadSlot slot;
    if (slot.buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buffers_.back()->thread = next_thread_++;
      slot.buffer = buffers_.back().get();
    }
    return slot.buffer;
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  uint32_t next_thread_ = 0;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer) {
    span_.layer = layer;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    span_.end_ns = NowNs();
    SpanRecorder::Instance().Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(size_t count) { span_.count = static_cast<uint32_t>(count); }
  void set_bugs(size_t bugs) { span_.bugs = static_cast<uint32_t>(bugs); }

 private:
  Span span_;
};

// --- span decorators ---------------------------------------------------------

class TracedSource : public lfi::ScenarioSource {
 public:
  explicit TracedSource(lfi::ScenarioSource& inner) : inner_(inner) {}

  std::vector<lfi::CampaignJob> NextBatch(size_t max_jobs) override {
    ScopedSpan span(kNextBatch);
    std::vector<lfi::CampaignJob> batch = inner_.NextBatch(max_jobs);
    span.set_count(batch.size());
    return batch;
  }
  void OnFeedback(const lfi::CampaignJob& job, const lfi::RunFeedback& feedback) override {
    ScopedSpan span(kFeedback);
    inner_.OnFeedback(job, feedback);
    span.set_count(feedback.new_bug || !feedback.new_blocks.empty() ? 1 : 0);
  }
  bool needs_feedback() const override { return inner_.needs_feedback(); }

 private:
  lfi::ScenarioSource& inner_;
};

class TracedTarget : public lfi::WarmTarget {
 public:
  explicit TracedTarget(std::unique_ptr<lfi::WarmTarget> inner) : inner_(std::move(inner)) {}

  lfi::JobResult Run(const lfi::CampaignJob& job) override {
    ScopedSpan span(kApps);
    lfi::JobResult result = inner_->Run(job);
    span.set_count(result.injections);
    span.set_bugs(result.bugs.size());
    return result;
  }
  bool Reset() override {
    ScopedSpan span(kReset);
    bool ok = inner_->Reset();
    span.set_count(ok ? 0 : 1);
    return ok;
  }

 private:
  std::unique_ptr<lfi::WarmTarget> inner_;
};

lfi::WarmPool::Factory TracedFactory(lfi::WarmPool::Factory inner) {
  return [inner = std::move(inner)]() -> std::unique_ptr<lfi::WarmTarget> {
    ScopedSpan span(kBuild);
    return std::make_unique<TracedTarget>(inner());
  };
}

// The exploration-workload factory the driver's ExecutionLayer uses.
lfi::WarmPool::Factory ExploreFactory(const std::string& system) {
  if (system == "git") return lfi::GitWarmFactory();
  if (system == "mysql") return lfi::MysqlWarmFactory();
  if (system == "bind") return lfi::BindWarmFactory();
  if (system == "pbft") return lfi::PbftWarmFactory(20, 3000);
  return lfi::BfsWarmFactory(3, 900);
}

// The analyzer inputs the driver feeds a strategy: every library's reports
// in profile order, and a combined lookup profile when several libraries
// link (the first library wins a name clash).
struct SourceInputs {
  std::vector<const lfi::FaultProfile*> profiles;
  std::vector<lfi::CallSiteReport> reports;
  lfi::FaultProfile combined{"combined"};

  const lfi::FaultProfile& lookup() const {
    return profiles.size() > 1 ? combined : *profiles.front();
  }
};

std::unique_ptr<SourceInputs> TracedInputs(const std::string& system) {
  ScopedSpan span(kAnalysis);
  lfi::AnalysisCache& cache = lfi::AnalysisCache::Instance();
  auto inputs = std::make_unique<SourceInputs>();
  inputs->profiles.push_back(&cache.Profile("libc", lfi::LibcProfile));
  if (system == "bind") {
    inputs->profiles.push_back(&cache.Profile("libxml2", lfi::LibxmlProfile));
  }
  for (const lfi::FaultProfile* profile : inputs->profiles) {
    const std::vector<lfi::CallSiteReport>& reports =
        cache.Reports(BinaryOf(system).image(), *profile);
    inputs->reports.insert(inputs->reports.end(), reports.begin(), reports.end());
  }
  for (auto it = inputs->profiles.rbegin(); it != inputs->profiles.rend(); ++it) {
    for (const auto& [name, fn] : (*it)->functions()) {
      inputs->combined.AddFunction(fn);
    }
  }
  return inputs;
}

std::unique_ptr<lfi::ScenarioSource> MakeSource(const lfi::CampaignSpec& spec,
                                                const SourceInputs& inputs) {
  size_t budget = spec.budget != 0 ? spec.budget : 64;
  if (spec.strategy == lfi::ExploreStrategy::kRandom) {
    std::set<std::string> functions;
    for (const lfi::CallSiteReport& report : inputs.reports) {
      functions.insert(report.site.function);
    }
    return std::make_unique<lfi::RandomSweepSource>(
        inputs.lookup(), std::vector<std::string>(functions.begin(), functions.end()), budget,
        spec.seed);
  }
  lfi::CoverageGuidedSource::Options options;
  options.budget = budget;
  options.seed = spec.seed;
  return std::make_unique<lfi::CoverageGuidedSource>(inputs.reports, inputs.lookup(), options);
}

// --- per-layer accounting ------------------------------------------------------

struct LayerTotals {
  size_t campaigns = 0;
  double layer_ns[kLayerCount] = {};
  uint64_t layer_spans[kLayerCount] = {};
  uint64_t injections = 0;
  uint64_t bugs = 0;
  uint64_t jobs = 0;
  uint64_t feedbacks = 0;
  uint64_t useful = 0;
  uint64_t dropped = 0;
  std::vector<double> apps_ms, build_ms, reset_ms;
  double engine_wall_ns = 0;
  double engine_self_ns = 0;
  double engine_busy_ns = 0;
  double engine_capacity_ns = 0;  // workers x engine wall
  double traced_ns = 0;           // traced composition wall, set-up to end
  double traced_busy_ns = 0;      // every layer span of the composition
  double traced_capacity_ns = 0;  // workers x traced wall
  double untraced_ns = 0;         // the matching untraced driver run
  double frontier_ns = 0;
  double decode_ns = 0, encode_ns = 0, fold_ns = 0, merge_ns = 0;
  uint64_t journal_bytes = 0, journal_extents = 0;
  uint64_t children = 0, epochs = 0, retries = 0;
  double single_process_ns = 0;
  std::vector<double> spawn_ms;
  std::vector<std::pair<size_t, Span>> trace;  // (campaign, span), capped

  // Folds one campaign's spans. [start, end] is the engine run (or the replay
  // loop) the child spans belong to.
  void Absorb(const std::vector<Span>& spans, int64_t start, int64_t end, int workers,
              bool engine) {
    std::vector<std::pair<int64_t, int64_t>> covered;
    double busy = 0;
    for (const Span& span : spans) {
      double ns = static_cast<double>(span.end_ns - span.start_ns);
      layer_ns[span.layer] += ns;
      ++layer_spans[span.layer];
      traced_busy_ns += ns;
      switch (span.layer) {
        case kApps:
          apps_ms.push_back(ns / 1e6);
          injections += span.count;
          bugs += span.bugs;
          break;
        case kBuild:
          build_ms.push_back(ns / 1e6);
          break;
        case kReset:
          reset_ms.push_back(ns / 1e6);
          dropped += span.count;
          break;
        case kNextBatch:
          jobs += span.count;
          break;
        case kFeedback:
          ++feedbacks;
          useful += span.count;
          break;
        default:
          break;
      }
      int64_t lo = std::max(span.start_ns, start);
      int64_t hi = std::min(span.end_ns, end);
      if (hi > lo) {
        covered.emplace_back(lo, hi);
        busy += static_cast<double>(hi - lo);
      }
      if (trace.size() < kMaxTraceSpans) {
        trace.emplace_back(campaigns, span);
      }
    }
    if (engine) {
      std::sort(covered.begin(), covered.end());
      double union_ns = 0;
      int64_t reach = start;
      for (const auto& [lo, hi] : covered) {
        if (hi > reach) {
          union_ns += static_cast<double>(hi - std::max(lo, reach));
          reach = hi;
        }
      }
      double wall = static_cast<double>(end - start);
      engine_wall_ns += wall;
      engine_self_ns += wall - union_ns;
      engine_busy_ns += busy;
      engine_capacity_ns += workers * wall;
      Span run;
      run.layer = kEngine;
      run.start_ns = start;
      run.end_ns = end;
      if (trace.size() < kMaxTraceSpans) {
        trace.emplace_back(campaigns, run);
      }
    }
    ++campaigns;
  }
};

class TracedRun {
 public:
  TracedRun(const Options& options, const Workload& workload, Report& report)
      : options_(options), workload_(workload), report_(report) {}

  void Campaign(const bench::Campaign& campaign) {
    if (workload_.replay) {
      Replay(campaign);
    } else {
      Explore(campaign);
    }
  }

  void ProbeSupervisor();
  void Finish(const std::vector<SetupTimes>& setup_samples, int64_t process_start);

 private:
  void Explore(const bench::Campaign& campaign);
  void Replay(const bench::Campaign& campaign);
  // Re-times the journal layer over a finished journal; "" or a mismatch.
  std::string RetimeJournal(const std::string& path, const std::string& bytes);
  // Re-times the epoch orchestration's merge and frontier hand-off over the
  // artifacts a sharded driver run left; "" or a mismatch.
  std::string RetimeOrchestration(const lfi::CampaignSpec& spec, const SourceInputs& inputs,
                                  const std::string& merged);

  const Options& options_;
  const Workload& workload_;
  Report& report_;
  LayerTotals totals_;
};

void TracedRun::Explore(const bench::Campaign& campaign) {
  std::string journal = JournalPath(options_, campaign, "journal");
  std::string traced_path = JournalPath(options_, campaign, "traced");
  lfi::CampaignSpec spec = ExploreSpec(workload_, campaign, journal, options_.workers);

  // The untraced reference: the driver on the workload's own spec.
  RemoveArtifacts(journal);
  std::string error;
  int64_t start = NowNs();
  auto driven = lfi::CampaignDriver(spec).Run(&error);
  int64_t reference_ns = NowNs() - start;
  if (!driven) {
    report_.Add(FailedOutcome(campaign, error));
    return;
  }
  report_.Add(ExploreOutcome(campaign, driven->bugs, driven->coverage, driven->scenarios_run));
  std::string reference = ReadFile(journal);

  std::string mismatch;
  if (spec.shard_count > 1) {
    // The orchestrated run's single-process equivalent must write the same
    // bytes; its wall is the untraced reference of the traced composition,
    // which is single-process too.
    lfi::CampaignSpec single = spec;
    single.shard_count = 1;
    single.journal_path = JournalPath(options_, campaign, "single");
    RemoveArtifacts(single.journal_path);
    start = NowNs();
    auto single_run = lfi::CampaignDriver(single).Run(&error);
    reference_ns = NowNs() - start;
    Outcome outcome = single_run ? ExploreOutcome(campaign, single_run->bugs,
                                                  single_run->coverage, single_run->scenarios_run)
                                 : FailedOutcome(campaign, error);
    outcome.kind = "single";
    if (single_run && ReadFile(single.journal_path) != reference) {
      outcome.ok = false;
      outcome.error = "the sharded merged journal differs from the single-process one";
    }
    report_.Add(std::move(outcome));
    mismatch = RetimeOrchestration(spec, *TracedInputs(campaign.system), reference);
  }
  totals_.single_process_ns += static_cast<double>(reference_ns);
  totals_.untraced_ns += static_cast<double>(reference_ns);

  // The traced composition.
  RemoveArtifacts(traced_path);
  SpanRecorder::Instance().Drain();
  int64_t traced_start = NowNs();
  std::unique_ptr<SourceInputs> inputs = TracedInputs(campaign.system);
  std::unique_ptr<lfi::ScenarioSource> source = MakeSource(spec, *inputs);
  TracedSource traced_source(*source);
  lfi::WarmPool pool(TracedFactory(ExploreFactory(campaign.system)));
  lfi::CampaignEngine::Options engine_options;
  engine_options.workers = options_.workers;
  engine_options.journal_path = traced_path;
  engine_options.journal_format = spec.format;
  engine_options.epoch_len = spec.epoch_len;
  engine_options.system = spec.system;
  lfi::CampaignSpec identity = spec;
  identity.shard_count = 1;
  engine_options.journal_meta = identity.ToJournalMeta();
  lfi::CampaignEngine engine(engine_options);
  lfi::ExplorationResult result;
  int64_t engine_start = NowNs();
  try {
    result = engine.Run(traced_source, pool.AsRunner());
  } catch (const std::exception& e) {
    error = e.what();
    mismatch = "traced engine run failed: " + error;
  }
  int64_t engine_end = NowNs();
  totals_.traced_ns += static_cast<double>(engine_end - traced_start);
  totals_.traced_capacity_ns += options_.workers * static_cast<double>(engine_end - traced_start);
  totals_.Absorb(SpanRecorder::Instance().Drain(), engine_start, engine_end, options_.workers,
                 /*engine=*/true);

  Outcome outcome = ExploreOutcome(campaign, result.bugs, result.coverage, result.scenarios_run);
  outcome.kind = "traced";
  if (mismatch.empty() && ReadFile(traced_path) != reference) {
    mismatch = "the traced journal differs from the driver's";
  }
  if (mismatch.empty()) {
    mismatch = RetimeJournal(journal, reference);
  }
  if (!mismatch.empty()) {
    outcome.ok = false;
    outcome.error = mismatch;
  }
  report_.Add(std::move(outcome));
}

void TracedRun::Replay(const bench::Campaign& campaign) {
  std::string journal = RecordedJournalPath(options_, campaign);
  std::string error;
  int64_t start = NowNs();
  auto driven = lfi::CampaignDriver(ReplaySpec(journal, options_.workers)).Run(&error);
  double reference_ns = static_cast<double>(NowNs() - start);
  totals_.untraced_ns += reference_ns;
  totals_.single_process_ns += reference_ns;
  if (!driven) {
    report_.Add(FailedOutcome(campaign, error));
    return;
  }
  report_.Add(ReplayOutcome(campaign, *driven));

  // The traced composition: cold start as a pool policy -- one instance per
  // replayed record from the public warm factory, never reset -- so bring-up
  // is timed as its own layer. Every re-run must agree with the driver's.
  SpanRecorder::Instance().Drain();
  int64_t traced_start = NowNs();
  auto loaded = lfi::CampaignJournal::Load(journal, &error);
  std::string mismatch = loaded ? "" : "cannot load " + journal + ": " + error;
  lfi::WarmPool::Factory factory = ExploreFactory(campaign.system);
  size_t next = 0;
  const std::vector<lfi::JournalRecord> no_records;
  const std::vector<lfi::JournalRecord>& records = loaded ? loaded->records() : no_records;
  for (size_t index = 0; index < records.size(); ++index) {
    const lfi::JournalRecord& record = records[index];
    const lfi::InjectionLog& log = record.result.log;
    if (log.empty()) {
      continue;
    }
    lfi::CampaignJob job;
    job.scenario = log.FullReplayScenario();
    job.label = lfi::StrFormat("replay %zu:%zu of %s", index, log.size() - 1, journal.c_str());
    job.seed = record.seed;
    std::unique_ptr<lfi::WarmTarget> target;
    {
      ScopedSpan span(kBuild);
      target = factory();
    }
    lfi::JobResult replayed;
    {
      ScopedSpan span(kApps);
      replayed = target->Run(job);
      span.set_count(replayed.injections);
      span.set_bugs(replayed.bugs.size());
    }
    target.reset();
    std::set<std::string> processes;
    for (const lfi::InjectionRecord& logged : log.records()) {
      processes.insert(logged.process);
    }
    bool expected = !record.result.bugs.empty() && processes.size() <= 1;
    bool match = false;
    for (const lfi::FoundBug& want : record.result.bugs) {
      for (const lfi::FoundBug& got : replayed.bugs) {
        match |= want.system == got.system && want.kind == got.kind && want.where == got.where;
      }
    }
    const lfi::ReplayOutcome* reference =
        next < driven->replays.size() ? &driven->replays[next] : nullptr;
    ++next;
    std::string where = replayed.bugs.empty() ? "" : replayed.bugs.front().where;
    if (mismatch.empty() &&
        (reference == nullptr || reference->record != index ||
         reference->crashed != !replayed.bugs.empty() || reference->where != where ||
         reference->reproduced != (expected && match))) {
      mismatch = lfi::StrFormat("traced replay of record %zu disagrees with the driver's", index);
    }
  }
  if (mismatch.empty() && next != driven->replays.size()) {
    mismatch = "traced replay ran a different number of records than the driver";
  }
  int64_t traced_end = NowNs();
  totals_.traced_ns += static_cast<double>(traced_end - traced_start);
  totals_.traced_capacity_ns += static_cast<double>(traced_end - traced_start);
  totals_.Absorb(SpanRecorder::Instance().Drain(), traced_start, traced_end, 1,
                 /*engine=*/false);

  Outcome outcome = ReplayOutcome(campaign, *driven);
  outcome.kind = "traced";
  if (mismatch.empty()) {
    mismatch = RetimeJournal(journal, ReadFile(journal));
  }
  if (!mismatch.empty()) {
    outcome.ok = false;
    outcome.error = mismatch;
  }
  report_.Add(std::move(outcome));
}

std::string TracedRun::RetimeJournal(const std::string& path, const std::string& bytes) {
  std::string error;
  int64_t start = NowNs();
  auto loaded = lfi::CampaignJournal::Load(path, &error);
  totals_.decode_ns += static_cast<double>(NowNs() - start);
  if (!loaded) {
    return "cannot load " + path + ": " + error;
  }
  totals_.journal_bytes += bytes.size();
  totals_.journal_extents += loaded->extents().size();

  std::string encoded_path = path + ".reencoded";
  RemoveArtifacts(encoded_path);
  start = NowNs();
  {
    lfi::CampaignJournal encoded;
    bool ok = encoded.Create(encoded_path, loaded->metadata(), &error, loaded->format());
    for (const lfi::JournalRecord& record : loaded->records()) {
      ok = ok && encoded.Append(record);
    }
    if (!ok || !encoded.Finalize(&error)) {
      return "re-encoding " + path + " failed: " + error;
    }
  }
  totals_.encode_ns += static_cast<double>(NowNs() - start);
  if (ReadFile(encoded_path) != bytes) {
    return "re-encoding the loaded records does not reproduce " + path;
  }

  std::string folded_path = path + ".folded";
  RemoveArtifacts(folded_path);
  lfi::CampaignJournal folded;
  if (!folded.Create(folded_path, loaded->metadata(), &error, loaded->format())) {
    return "cannot create " + folded_path + ": " + error;
  }
  std::vector<lfi::CampaignJournal> inputs;
  inputs.push_back(std::move(*loaded));
  lfi::MergeFoldState fold;
  start = NowNs();
  bool folded_ok = lfi::MergeRecordsInto(folded, inputs, &fold, &error);
  totals_.fold_ns += static_cast<double>(NowNs() - start);
  if (!folded_ok || !folded.Finalize(&error)) {
    return "folding " + path + " failed: " + error;
  }
  return "";
}

std::string TracedRun::RetimeOrchestration(const lfi::CampaignSpec& spec,
                                           const SourceInputs& inputs,
                                           const std::string& merged) {
  size_t epochs = 0;
  while (fs::exists(spec.EpochFrontierPath(epochs))) {
    ++epochs;
  }
  totals_.epochs += epochs;

  std::string error;
  std::string remerged_path = spec.journal_path + ".remerged";
  RemoveArtifacts(remerged_path);
  lfi::CampaignJournal remerged;
  if (!remerged.Create(remerged_path, spec.ToJournalMeta(), &error, spec.format)) {
    return "cannot create " + remerged_path + ": " + error;
  }
  lfi::MergeFoldState fold;
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    std::vector<lfi::CampaignJournal> shards;
    for (size_t shard = 0; shard < spec.shard_count; ++shard) {
      std::string path = spec.EpochShardJournalPath(epoch, shard);
      if (!fs::exists(path)) {
        continue;
      }
      ++totals_.children;
      auto journal = lfi::CampaignJournal::Load(path, &error);
      if (!journal) {
        return "cannot load " + path + ": " + error;
      }
      shards.push_back(std::move(*journal));
    }
    int64_t start = NowNs();
    bool ok = lfi::MergeRecordsInto(remerged, shards, &fold, &error);
    totals_.merge_ns += static_cast<double>(NowNs() - start);
    if (!ok) {
      return lfi::StrFormat("re-merging epoch %zu failed: %s", epoch, error.c_str());
    }
  }
  int64_t start = NowNs();
  bool sealed = remerged.Finalize(&error);
  totals_.merge_ns += static_cast<double>(NowNs() - start);
  if (!sealed || ReadFile(remerged_path) != merged) {
    return "re-merging the epoch shard artifacts does not reproduce the merged journal";
  }

  lfi::CoverageGuidedSource::Options source_options;
  source_options.budget = spec.budget != 0 ? spec.budget : 64;
  source_options.seed = spec.seed;
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    std::string xml = ReadFile(spec.EpochFrontierPath(epoch));
    lfi::CoverageGuidedSource source(inputs.reports, inputs.lookup(), source_options);
    int64_t frontier_start = NowNs();
    auto frontier = lfi::FrontierState::Parse(xml, &error);
    if (!frontier) {
      return lfi::StrFormat("bad frontier snapshot for epoch %zu: %s", epoch, error.c_str());
    }
    source.ImportFrontier(*frontier);
    std::string exported = source.ExportFrontier().ToXml();
    totals_.frontier_ns += static_cast<double>(NowNs() - frontier_start);
    if (exported != xml) {
      return lfi::StrFormat("epoch %zu frontier does not round-trip", epoch);
    }
  }
  return "";
}

void TracedRun::ProbeSupervisor() {
  std::vector<lfi::CampaignSpec> children;
  for (size_t shard = 0; shard < kProbeShards; ++shard) {
    lfi::CampaignSpec child;
    child.system = workload_.systems.front();
    child.shard_index = shard;
    child.shard_count = kProbeShards;
    children.push_back(child);
  }
  for (int probe = 0; probe < kSpawnProbes; ++probe) {
    lfi::ShardSupervisor supervisor(lfi::ShardSupervisor::Options{},
                                    [](const lfi::CampaignSpec&, std::string*) { return true; });
    std::vector<lfi::ShardSupervisor::Report> reports;
    std::string error;
    int64_t start = NowNs();
    bool ok = supervisor.Run(children, &error, &reports);
    totals_.spawn_ms.push_back((NowNs() - start) / 1e6);
    if (!ok) {
      Outcome failed = FailedOutcome({workload_.systems.front(), 0}, "spawn probe: " + error);
      failed.kind = "probe";
      report_.Add(std::move(failed));
    }
    for (const lfi::ShardSupervisor::Report& child : reports) {
      totals_.retries += child.attempts > 0 ? child.attempts - 1 : 0;
    }
  }
}

void TracedRun::Finish(const std::vector<SetupTimes>& setup_samples, int64_t process_start) {
  const LayerTotals& t = totals_;
  double n = static_cast<double>(std::max<size_t>(t.campaigns, 1));
  auto ms = [&](double ns) { return ns / 1e6 / n; };
  auto per = [&](double count) { return count / n; };
  std::vector<double> reports_ms;
  for (const SetupTimes& sample : setup_samples) {
    reports_ms.push_back(sample.reports_s * 1e3);
  }

  Report& r = report_;
  r.Metric("apps.job_ms", ms(t.layer_ns[kApps]), "ms");
  r.Metric("apps.job_ms_p50", Quantile(t.apps_ms, 0.5), "ms");
  r.Metric("apps.job_ms_p95", Quantile(t.apps_ms, 0.95), "ms");
  r.Metric("apps.injections", per(t.injections), "count");
  r.Metric("apps.bugs", per(t.bugs), "count");
  r.Metric("warm_pool.builds", per(t.layer_spans[kBuild]), "count");
  r.Metric("warm_pool.build_ms", ms(t.layer_ns[kBuild]), "ms");
  r.Metric("warm_pool.build_ms_p50", Quantile(t.build_ms, 0.5), "ms");
  r.Metric("warm_pool.resets", per(t.layer_spans[kReset] - t.dropped), "count");
  r.Metric("warm_pool.reset_ms", ms(t.layer_ns[kReset]), "ms");
  r.Metric("warm_pool.reset_ms_p50", Quantile(t.reset_ms, 0.5), "ms");
  r.Metric("warm_pool.dropped", per(t.dropped), "count");
  r.Metric("exploration.next_batch_ms", ms(t.layer_ns[kNextBatch]), "ms");
  r.Metric("exploration.feedback_ms", ms(t.layer_ns[kFeedback]), "ms");
  r.Metric("exploration.jobs", per(t.jobs), "count");
  r.Metric("exploration.useful_ratio",
           t.feedbacks ? static_cast<double>(t.useful) / t.feedbacks : 0, "ratio");
  r.Metric("exploration.frontier_ms", ms(t.frontier_ns), "ms");
  r.Metric("campaign_engine.wall_ms", ms(t.engine_wall_ns), "ms");
  r.Metric("campaign_engine.self_ms", ms(t.engine_self_ns), "ms");
  r.Metric("campaign_engine.worker_idle_ratio",
           t.engine_capacity_ns > 0 ? 1 - t.engine_busy_ns / t.engine_capacity_ns : 0, "ratio");
  r.Metric("journal.decode_ms", ms(t.decode_ns), "ms");
  r.Metric("journal.encode_ms", ms(t.encode_ns), "ms");
  r.Metric("journal.fold_ms", ms(t.fold_ns), "ms");
  r.Metric("journal.merge_ms", ms(t.merge_ns), "ms");
  r.Metric("journal.bytes", per(t.journal_bytes), "B");
  r.Metric("journal.extents", per(t.journal_extents), "count");
  r.Metric("analysis.reports_ms", Quantile(reports_ms, 0.5), "ms");
  r.Metric("analysis.reports", setup_samples.empty() ? 0 : setup_samples.back().reports, "count");
  r.Metric("shard_supervisor.children", per(t.children), "count");
  r.Metric("shard_supervisor.retries", static_cast<double>(t.retries), "count");
  r.Metric("shard_supervisor.spawn_ms_p50", Quantile(t.spawn_ms, 0.5), "ms");
  r.Metric("campaign_driver.epochs", per(t.epochs), "count");
  r.Metric("campaign_driver.single_process_ms", ms(t.single_process_ns), "ms");
  r.Metric("trace.overhead_ratio", t.untraced_ns > 0 ? t.traced_ns / t.untraced_ns - 1 : 0,
           "ratio");
  r.Metric("trace.accounted_ratio",
           t.traced_capacity_ns > 0 ? t.traced_busy_ns / t.traced_capacity_ns : 0, "ratio");

  r.Note(lfi::StrFormat(
      "traced run: %zu campaigns; counts and *_ms totals are per-campaign means, *_p50/_p95 "
      "over single spans (%zu apps, %zu builds, %zu resets)",
      t.campaigns, t.apps_ms.size(), t.build_ms.size(), t.reset_ms.size()));
  r.Note(lfi::StrFormat("shard_supervisor.spawn_ms_p50 and .retries: %d no-op ShardSupervisor::Run "
                        "probes of %zu fork-without-exec children",
                        kSpawnProbes, kProbeShards));
  if (workload_.replay) {
    r.Note("replay: no engine or scenario source runs, so campaign_engine.* and exploration.* "
           "read 0; warm_pool.build is the per-replay bring-up, apps.job the re-run");
  } else if (workload_.shards <= 1) {
    r.Note("single-process workload: no epoch artifacts, so exploration.frontier_ms, "
           "journal.merge_ms, shard_supervisor.children and campaign_driver.epochs read 0");
  }

  if (options_.trace_file.empty()) {
    return;
  }
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < t.trace.size(); ++i) {
    const auto& [campaign, span] = t.trace[i];
    out << (i ? ",\n" : "\n")
        << lfi::StrFormat("{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                          "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                          "\"args\": {\"campaign\": %zu, \"count\": %u}}",
                          kLayerNames[span.layer], workload_.name.c_str(), span.thread,
                          (span.start_ns - process_start) / 1e3,
                          (span.end_ns - span.start_ns) / 1e3, campaign, span.count);
  }
  out << "],\n\"truncated\": " << (t.trace.size() >= kMaxTraceSpans ? "true" : "false")
      << ",\n\"layers\": " << r.MetricsJson() << "}\n";
  std::ofstream file(options_.trace_file);
  file << out.str();
}

}  // namespace

void RunTraced(const Options& options, const Workload& workload,
               const std::vector<SetupTimes>& setup_samples, Report& report) {
  int64_t process_start = NowNs();
  lfi::EnsureStockTriggersRegistered();
  if (workload.replay && !RecordReplayJournals(options, workload, report)) {
    return;
  }
  TracedRun run(options, workload, report);
  run.ProbeSupervisor();
  lfi::Rng rng(options.seed);
  int64_t start = NowNs();
  do {
    for (const Campaign& campaign : PassOrder(workload, rng)) {
      run.Campaign(campaign);
    }
  } while (!options.smoke && (NowNs() - start) * 1e-9 < options.seconds);
  run.Finish(setup_samples, process_start);
}

}  // namespace bench
