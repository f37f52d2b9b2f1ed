#include "apps/common/warm_targets.h"

#include <utility>

#include "apps/bfs/bfs.h"
#include "apps/bind/bind.h"
#include "apps/git/git.h"
#include "apps/mysql/mysql.h"
#include "apps/pbft/pbft.h"
#include "core/controller.h"
#include "core/distributed.h"
#include "util/string_util.h"
#include "vlib/vfs.h"
#include "vlib/vnet.h"

namespace lfi {
namespace {

// The run's behavioural identity for the feedback loop: the exact fault
// sequence injected, plus the crash site when the run died.
std::string OutcomeFingerprint(TestController& controller, const TestOutcome& outcome) {
  std::string fp =
      controller.runtime() != nullptr ? controller.runtime()->log().Fingerprint() : "";
  if (outcome.crashed()) {
    fp += "!" + outcome.crash_where;
  }
  return fp;
}

// The controller's runtime outlives RunTest, so the job's injection log can
// be moved out instead of copied -- the controller dies with the core call.
// A job that asks for call counts gets the runtime's count of every
// function its scenario names.
void TakeRuntimeInto(JobResult* result, TestController& controller, const CampaignJob& job) {
  Runtime* runtime = controller.runtime();
  if (runtime == nullptr) {
    return;
  }
  result->log = std::move(runtime->mutable_log());
  if (job.count_calls) {
    CallCounts& counts = result->call_counts.emplace();
    for (const FunctionAssoc& assoc : job.scenario.functions()) {
      counts[assoc.function] = runtime->call_count(assoc.function);
    }
  }
}

// --- runner cores ------------------------------------------------------------

JobResult RunGitJobOn(MiniGit& git, const CampaignJob& job) {
  JobResult result;
  TestController controller(job.scenario, SeededOptions(job.seed));
  TestOutcome outcome =
      controller.RunTest(&git.libc(), [&] { return git.RunDefaultTestSuite(); });
  if (outcome.crashed()) {
    result.bugs.push_back(
        {"git", CrashKindName(outcome.crash_kind), outcome.crash_where, job.label});
  } else if (outcome.injections > 0 && !git.Fsck()) {
    // The fault was absorbed but the repository is corrupt: silent data
    // loss (the setenv/hook bug).
    result.bugs.push_back(
        {"git", "data loss", "repository corrupted by hook environment", job.label});
  }
  result.coverage = std::move(git.coverage());
  result.fingerprint = OutcomeFingerprint(controller, outcome);
  result.injections = outcome.injections;
  TakeRuntimeInto(&result, controller, job);
  return result;
}

JobResult RunMysqlJobOn(MiniMysql& mysql, const CampaignJob& job) {
  JobResult result;
  TestController controller(job.scenario, SeededOptions(job.seed));
  TestOutcome outcome = controller.RunTest(&mysql.libc(), [&] {
    mysql.libc().fs()->WriteFile("/mysql/share/errmsg.sys",
                                 "OK\nCan't create table\nDuplicate key\n");
    if (!mysql.Startup()) {
      return false;
    }
    return mysql.MergeBig();
  });
  if (outcome.crashed()) {
    result.bugs.push_back(
        {"mysql", CrashKindName(outcome.crash_kind), outcome.crash_where, job.label});
  }
  result.coverage = std::move(mysql.coverage());
  result.fingerprint = OutcomeFingerprint(controller, outcome);
  result.injections = outcome.injections;
  TakeRuntimeInto(&result, controller, job);
  return result;
}

JobResult RunBindJobOn(MiniBind& bind, const CampaignJob& job) {
  JobResult result;
  TestController controller(job.scenario, SeededOptions(job.seed));
  // The second phase (Table 1's dst_lib_init malloc sweep) runs the library
  // initializer instead of the test suite.
  TestOutcome outcome = controller.RunTest(&bind.libc(), [&] {
    return job.second_phase ? bind.DstLibInit() : bind.RunDefaultTestSuite();
  });
  if (outcome.crashed()) {
    result.bugs.push_back(
        {"bind", CrashKindName(outcome.crash_kind), outcome.crash_where, job.label});
  }
  result.coverage = std::move(bind.coverage());
  result.fingerprint = OutcomeFingerprint(controller, outcome);
  result.injections = outcome.injections;
  TakeRuntimeInto(&result, controller, job);
  return result;
}

JobResult RunPbftJobOn(PbftCluster& cluster, const CampaignJob& job, int requests,
                       int max_ticks) {
  JobResult result;
  TestController controller(job.scenario, SeededOptions(job.seed));
  TestOutcome outcome = controller.RunTest(&cluster.replica(0).libc(), [&] {
    cluster.RunWorkload(requests, max_ticks);
    cluster.replica(0).Shutdown();
    return cluster.client().completed() >= requests;
  });
  if (outcome.crashed()) {
    result.bugs.push_back(
        {"pbft", CrashKindName(outcome.crash_kind), outcome.crash_where, job.label});
  } else if (cluster.crashed()) {
    result.bugs.push_back(
        {"pbft", CrashKindName(cluster.crash_kind()), cluster.crash_reason(), job.label});
  }
  result.coverage = cluster.Coverage();
  result.fingerprint = OutcomeFingerprint(controller, outcome);
  result.injections = outcome.injections;
  TakeRuntimeInto(&result, controller, job);
  return result;
}

JobResult RunPbftDistributedJobOn(PbftCluster& cluster, const CampaignJob& job) {
  JobResult result;
  RandomLossController controller(0.35, job.seed);
  std::vector<std::unique_ptr<Runtime>> runtimes;
  for (int i = 0; i < cluster.n(); ++i) {
    cluster.replica(i).libc().SetService(DistributedController::kServiceName, &controller);
    runtimes.push_back(std::make_unique<Runtime>(job.scenario));
    cluster.replica(i).libc().set_interposer(runtimes.back().get());
  }
  cluster.RunWorkload(/*requests=*/30, /*max_ticks=*/4000);
  if (cluster.crashed()) {
    result.bugs.push_back(
        {"pbft", CrashKindName(cluster.crash_kind()), cluster.crash_reason(), job.label});
  }
  result.coverage = cluster.Coverage();
  for (const auto& runtime : runtimes) {
    std::string fp = runtime->log().Fingerprint();
    if (!fp.empty()) {
      if (!result.fingerprint.empty()) {
        result.fingerprint += "|";
      }
      result.fingerprint += fp;
    }
    result.injections += runtime->injections();
    // One journaled log for the whole cluster, in replica order; the
    // per-record process name keeps the replicas apart.
    for (const InjectionRecord& record : runtime->log().records()) {
      result.log.Record(record);
    }
  }
  if (cluster.crashed()) {
    result.fingerprint += "!" + cluster.crash_reason();
  }
  // Detach the interposers before the runtimes go out of scope: a warm
  // instance must never carry a dangling interposer into its Reset().
  for (int i = 0; i < cluster.n(); ++i) {
    cluster.replica(i).libc().set_interposer(nullptr);
  }
  return result;
}

JobResult RunBfsJobOn(BfsCluster& cluster, const CampaignJob& job, int max_ticks) {
  JobResult result;
  TestController controller(job.scenario, SeededOptions(job.seed));
  TestOutcome outcome = controller.RunTest(&cluster.server().libc(), [&] {
    cluster.RunWorkload(max_ticks);
    return cluster.AllClientsDone();
  });
  if (outcome.crashed()) {
    result.bugs.push_back(
        {"bfs", CrashKindName(outcome.crash_kind), outcome.crash_where, job.label});
  } else if (cluster.crashed()) {
    result.bugs.push_back(
        {"bfs", CrashKindName(cluster.crash_kind()), cluster.crash_reason(), job.label});
  } else if (outcome.injections > 0) {
    // The faults were absorbed and every client got its answers; the oracle
    // decides whether the store still matches the acknowledged history.
    std::string inconsistency = cluster.CheckConsistency();
    if (!inconsistency.empty()) {
      result.bugs.push_back({"bfs", "consistency", inconsistency, job.label});
    }
  }
  result.coverage = cluster.Coverage();
  result.fingerprint = OutcomeFingerprint(controller, outcome);
  result.injections = outcome.injections;
  TakeRuntimeInto(&result, controller, job);
  return result;
}

JobResult RunBfsMuxJobOn(BfsCluster& cluster, const CampaignJob& job) {
  JobResult result;
  VirtualNet* net = cluster.net();
  // Seed-derived fault rates; Reset() restores the snapshot's zeroes, and
  // rearming here is deterministic, so warm and cold runs stay bit-identical.
  net->set_partial_send_probability(0.01 * static_cast<double>(1 + job.seed % 6));
  net->set_partial_recv_probability(0.01 * static_cast<double>(1 + (job.seed / 6) % 5));
  uint64_t sends_before = net->partial_send_count();
  uint64_t recvs_before = net->partial_recv_count();
  cluster.RunWorkload(/*max_ticks=*/1200);
  net->set_partial_send_probability(0.0);
  net->set_partial_recv_probability(0.0);
  uint64_t faults = (net->partial_send_count() - sends_before) +
                    (net->partial_recv_count() - recvs_before);
  if (cluster.crashed()) {
    result.bugs.push_back(
        {"bfs", CrashKindName(cluster.crash_kind()), cluster.crash_reason(), job.label});
  } else if (faults > 0) {
    std::string inconsistency = cluster.CheckConsistency();
    if (!inconsistency.empty()) {
      result.bugs.push_back({"bfs", "consistency", inconsistency, job.label});
    }
  }
  result.coverage = cluster.Coverage();
  result.fingerprint = StrFormat("mux:%llu", static_cast<unsigned long long>(faults));
  if (cluster.crashed()) {
    result.fingerprint += "!" + cluster.crash_reason();
  }
  result.injections = faults;
  return result;
}

// --- warm targets ------------------------------------------------------------

// One warm instance: the target plus its private virtual environment, frozen
// at the post-setup snapshot point, replaying the shared core per job.
template <typename App>
class SnapshotWarmTarget : public WarmTarget {
 public:
  using Build = std::function<std::unique_ptr<App>(VirtualFs*, VirtualNet*)>;
  using Core = std::function<JobResult(App&, const CampaignJob&)>;

  SnapshotWarmTarget(const Build& build, Core core)
      : app_(build(&fs_, &net_)),
        core_(std::move(core)),
        fs_snapshot_(fs_.TakeSnapshot()),
        net_snapshot_(net_.TakeSnapshot()),
        app_snapshot_(app_->TakeSnapshot()) {}

  JobResult Run(const CampaignJob& job) override { return core_(*app_, job); }

  bool Reset() override {
    fs_.Restore(fs_snapshot_);
    net_.Restore(net_snapshot_);
    return app_->Restore(app_snapshot_);
  }

 private:
  VirtualFs fs_;
  VirtualNet net_;
  std::unique_ptr<App> app_;
  Core core_;
  // Declared after app_: snapshots are taken once construction (the setup
  // phase, injection disarmed -- no interposer is installed yet) completed.
  VirtualFs::Snapshot fs_snapshot_;
  VirtualNet::Snapshot net_snapshot_;
  typename App::Snapshot app_snapshot_;
};

std::unique_ptr<PbftCluster> BuildStartedCluster(VirtualFs* fs, VirtualNet* net) {
  auto cluster = std::make_unique<PbftCluster>(fs, net, PbftConfig{});
  // Start() binds the replica and client sockets; with no interposer
  // installed it cannot fail.
  cluster->Start();
  return cluster;
}

std::unique_ptr<BfsCluster> BuildStartedBfsCluster(VirtualFs* fs, VirtualNet* net,
                                                   int rounds) {
  BfsConfig config;
  config.rounds = rounds;
  auto cluster = std::make_unique<BfsCluster>(fs, net, config);
  // Same disarmed-bring-up contract as pbft: no interposer is installed yet,
  // so socket setup, volume format, and lease-key derivation cannot fail.
  cluster->Start();
  return cluster;
}

}  // namespace

WarmPool::Factory GitWarmFactory() {
  return [] {
    return std::make_unique<SnapshotWarmTarget<MiniGit>>(
        [](VirtualFs* fs, VirtualNet* net) {
          return std::make_unique<MiniGit>(fs, net, "/repo");
        },
        RunGitJobOn);
  };
}

WarmPool::Factory MysqlWarmFactory() {
  return [] {
    return std::make_unique<SnapshotWarmTarget<MiniMysql>>(
        [](VirtualFs* fs, VirtualNet* net) {
          return std::make_unique<MiniMysql>(fs, net, "/mysql");
        },
        RunMysqlJobOn);
  };
}

WarmPool::Factory BindWarmFactory() {
  return [] {
    return std::make_unique<SnapshotWarmTarget<MiniBind>>(
        [](VirtualFs* fs, VirtualNet* net) {
          return std::make_unique<MiniBind>(fs, net, "/etc/bind");
        },
        RunBindJobOn);
  };
}

WarmPool::Factory PbftWarmFactory(int requests, int max_ticks) {
  return [requests, max_ticks] {
    return std::make_unique<SnapshotWarmTarget<PbftCluster>>(
        BuildStartedCluster,
        [requests, max_ticks](PbftCluster& cluster, const CampaignJob& job) {
          return job.second_phase ? RunPbftDistributedJobOn(cluster, job)
                                  : RunPbftJobOn(cluster, job, requests, max_ticks);
        });
  };
}

WarmPool::Factory BfsWarmFactory(int rounds, int max_ticks) {
  return [rounds, max_ticks] {
    return std::make_unique<SnapshotWarmTarget<BfsCluster>>(
        [rounds](VirtualFs* fs, VirtualNet* net) {
          return BuildStartedBfsCluster(fs, net, rounds);
        },
        [max_ticks](BfsCluster& cluster, const CampaignJob& job) {
          return job.second_phase ? RunBfsMuxJobOn(cluster, job)
                                  : RunBfsJobOn(cluster, job, max_ticks);
        });
  };
}

WarmPool::Factory WorkloadFactory(const std::string& system, CampaignMode mode) {
  bool explore = mode == CampaignMode::kExplore;
  if (system == "git") {
    return GitWarmFactory();
  }
  if (system == "mysql") {
    return MysqlWarmFactory();
  }
  if (system == "bind") {
    return BindWarmFactory();
  }
  if (system == "pbft") {
    return explore ? PbftWarmFactory(20, 3000) : PbftWarmFactory(8, 2000);
  }
  if (system == "bfs") {
    return explore ? BfsWarmFactory(3, 900) : BfsWarmFactory(2, 600);
  }
  return nullptr;
}

}  // namespace lfi
