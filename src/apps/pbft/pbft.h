// PBFT: a from-scratch Practical Byzantine Fault Tolerance implementation
// (Castro & Liskov, OSDI'99), the paper's fourth target system.
//
// A cluster of 3f+1 replicas (f=1 throughout, as in §7.3) serves client
// requests over the virtual UDP fabric with the standard three-phase
// protocol: the primary orders a request with PRE-PREPARE, backups multicast
// PREPARE, 2f matching prepares advance to COMMIT, 2f+1 commits execute the
// request and answer the client. Periodic checkpoints truncate the message
// log, and a view-change protocol replaces an unresponsive primary. The
// cluster runs as a discrete-event simulation: one Step() per process per
// tick, throughput measured in ticks.
//
// The two Table 1 bugs live at the paper's call sites:
//   - the shutdown path writes the final checkpoint through an fopen whose
//     result is never checked, so an injected fopen failure crashes fwrite;
//   - the view-change path accesses a previously committed message it never
//     received (messages lost to injected sendto/recvfrom faults). The
//     *debug* build checks the message log and halts cleanly; the release
//     build skips the check and segfaults -- the build-dependent bug.

#ifndef LFI_APPS_PBFT_PBFT_H_
#define LFI_APPS_PBFT_PBFT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "apps/common/app_binary.h"
#include "apps/pbft/replica_state.h"
#include "apps/pbft/wire.h"
#include "coverage/coverage.h"
#include "vlib/sim_crash.h"
#include "vlib/virtual_libc.h"

namespace lfi {

const AppBinary& PbftBinary();

inline constexpr int kPbftBasePort = 9000;
inline constexpr int kPbftClientPort = 8999;

struct PbftConfig {
  int n = 4;                      // replicas (3f+1)
  int f = 1;
  bool debug_build = false;       // true: checked view-change (halts, no crash)
  int checkpoint_interval = 16;   // executions between checkpoints
  int view_change_timeout = 24;   // idle ticks with pending work before VC
  int resend_interval = 6;        // ticks between protocol retransmissions
};

class PbftReplica {
 public:
  static constexpr const char* kModule = "pbft-replica";

  PbftReplica(VirtualFs* fs, VirtualNet* net, int id, const PbftConfig& config);

  VirtualLibc& libc() { return libc_; }
  CoverageMap& coverage() { return coverage_; }
  int id() const { return id_; }
  int view() const { return view_; }
  bool is_primary() const { return view_ % config_.n == id_; }
  int64_t executed() const { return executed_count_; }
  bool halted() const { return halted_; }
  int view_changes() const { return view_changes_; }

  // Socket bring-up plus session-key establishment: like the Castro-Liskov
  // implementation this stands in for, every pair of nodes shares a symmetric
  // MAC key, derived here by iterated hashing. That derivation is the
  // expensive part of replica bring-up -- the cost the fresh-process-per-test
  // model pays on every single test, and what the warm-instance snapshot
  // (TakeSnapshot/Restore below) amortizes: a snapshot shares the key table.
  bool Start();
  // One simulation tick: drain the socket, run timers, retransmit.
  void Step();
  // Graceful shutdown: writes the final checkpoint (the unchecked-fopen bug).
  void Shutdown();

  // --- warm-instance snapshot --------------------------------------------
  // Defined after the class so it can name the private SeqState. Restore()
  // copies out of the snapshot, so one snapshot serves many restores.
  struct Snapshot;
  Snapshot TakeSnapshot() const;
  bool Restore(const Snapshot& snapshot);

 private:
  struct SeqState {
    int64_t seq = 0;
    std::string digest;
    std::optional<std::string> request;  // payload; empty when never received
    pbft_state::VoteSet prepares;
    pbft_state::VoteSet commits;
    bool pre_prepared = false;
    bool committed = false;
    bool executed = false;
  };

  void Multicast(std::string_view msg);
  void SendTo(int port, std::string_view msg);
  // Parses one datagram in place (string_views into the receive buffer) and
  // dispatches it; truncated or garbled messages are dropped.
  void HandleMessage(std::string_view msg, int src_port);
  void OnRequest(std::string_view payload, int client_port, bool forwarded);
  void OnPrePrepare(int view, int64_t seq, std::string_view digest, std::string_view payload);
  void OnPrepare(int view, int64_t seq, std::string_view digest, int replica, int src_port);
  void OnCommit(int view, int64_t seq, std::string_view digest, int replica, int src_port);
  void CatchUpView(int view);
  void SendStateTo(int port);
  void OnStateTransfer(int64_t executed, std::string_view digest, int view);
  void OnViewChange(int view, int replica);
  void OnNewView(int view, std::string_view carried);
  void TryExecute();
  void MaybeCheckpoint();
  void StartViewChange();
  void BecomePrimaryOfNewView();
  void Retransmit();
  void RegisterCoverageBlocks();

  VirtualLibc libc_;
  CoverageMap coverage_;
  PbftConfig config_;
  int id_;
  int fd_ = -1;
  // Established by Start(): the shared MAC key of every peer port. Datagrams
  // from ports without a session key are discarded on receipt.
  std::shared_ptr<const pbft_state::SessionKeyTable> session_keys_;
  int view_ = 0;
  int64_t next_seq_ = 0;       // primary: last assigned sequence
  int64_t executed_count_ = 0;
  int64_t low_watermark_ = 0;
  pbft_state::SeqLog<SeqState> log_;
  std::map<std::string, int> pending_client_;  // digest -> client port
  std::set<std::string> executed_digests_;
  // Reply cache (digest -> client port, reply), re-sent on duplicates, as in
  // PBFT's last-reply cache.
  std::map<std::string, std::pair<int, std::string>> reply_cache_;
  pbft_state::VoteSet view_change_votes_;      // for view_+1
  bool view_change_sent_ = false;
  int idle_ticks_ = 0;
  int ticks_ = 0;
  bool halted_ = false;
  int view_changes_ = 0;
  std::string state_digest_ = "genesis";
  std::string checkpoint_digest_ = "genesis";
};

// Out-of-class so it can name the private SeqState (member type has access).
struct PbftReplica::Snapshot {
  VirtualLibc::Snapshot libc;
  CoverageMap coverage;
  int fd = -1;
  std::shared_ptr<const pbft_state::SessionKeyTable> session_keys;
  int view = 0;
  int64_t next_seq = 0;
  int64_t executed_count = 0;
  int64_t low_watermark = 0;
  pbft_state::SeqLog<SeqState> log;
  std::map<std::string, int> pending_client;
  std::set<std::string> executed_digests;
  std::map<std::string, std::pair<int, std::string>> reply_cache;
  pbft_state::VoteSet view_change_votes;
  bool view_change_sent = false;
  int idle_ticks = 0;
  int ticks = 0;
  bool halted = false;
  int view_changes = 0;
  std::string state_digest;
  std::string checkpoint_digest;
};

class PbftClient {
 public:
  static constexpr const char* kModule = "pbft-client";

  PbftClient(VirtualFs* fs, VirtualNet* net, const PbftConfig& config);

  VirtualLibc& libc() { return libc_; }
  bool Start();
  // One tick: collect replies, issue/retransmit the current request.
  void Step();
  int completed() const { return completed_; }
  // Caps how many requests the client issues (0 = unlimited).
  void set_max_requests(int max_requests) { max_requests_ = max_requests; }

  // --- warm-instance snapshot --------------------------------------------
  struct Snapshot {
    VirtualLibc::Snapshot libc;
    int fd = -1;
    std::shared_ptr<const pbft_state::SessionKeyTable> session_keys;
    int64_t timestamp = 0;
    bool outstanding = false;
    int ticks_since_send = 0;
    bool broadcast_mode = false;
    pbft_state::VoteSet reply_votes;
    int completed = 0;
    int max_requests = 0;
  };
  Snapshot TakeSnapshot() const {
    return {libc_.TakeSnapshot(), fd_,          session_keys_, timestamp_,
            outstanding_,         ticks_since_send_, broadcast_mode_,
            reply_votes_,         completed_,    max_requests_};
  }
  bool Restore(const Snapshot& snapshot) {
    fd_ = snapshot.fd;
    session_keys_ = snapshot.session_keys;
    timestamp_ = snapshot.timestamp;
    outstanding_ = snapshot.outstanding;
    ticks_since_send_ = snapshot.ticks_since_send;
    broadcast_mode_ = snapshot.broadcast_mode;
    reply_votes_ = snapshot.reply_votes;
    completed_ = snapshot.completed;
    max_requests_ = snapshot.max_requests;
    return libc_.Restore(snapshot.libc);
  }

 private:
  // The REQ for the current timestamp.
  pbft_wire::Wire RequestMessage() const;

  VirtualLibc libc_;
  PbftConfig config_;
  int fd_ = -1;
  std::shared_ptr<const pbft_state::SessionKeyTable> session_keys_;  // per replica port
  int64_t timestamp_ = 0;
  bool outstanding_ = false;
  int ticks_since_send_ = 0;
  bool broadcast_mode_ = false;
  pbft_state::VoteSet reply_votes_;
  int completed_ = 0;
  int max_requests_ = 0;
};

// Harness: a full cluster plus one client, stepped in lockstep.
class PbftCluster {
 public:
  PbftCluster(VirtualFs* fs, VirtualNet* net, const PbftConfig& config);

  bool Start();
  PbftReplica& replica(int i) { return *replicas_[static_cast<size_t>(i)]; }
  PbftClient& client() { return *client_; }
  int n() const { return config_.n; }

  // Union of every replica's coverage map (replicas register identical block
  // tables, so recovery coverage reads as one program, like the paper's
  // per-process gcov data folded together).
  CoverageMap Coverage() const;

  // Runs until `requests` complete or `max_ticks` elapse; returns ticks used.
  int RunWorkload(int requests, int max_ticks);

  // True when any replica crashed out of the event loop (SimCrash recorded).
  bool crashed() const { return crashed_; }
  CrashKind crash_kind() const { return crash_kind_; }
  const std::string& crash_reason() const { return crash_reason_; }
  int crashed_replica() const { return crashed_replica_; }

  // --- warm-instance snapshot --------------------------------------------
  // Snapshots every replica, the client, and the cluster-level crash record.
  // The fabric (VirtualNet) is snapshotted separately by the warm target.
  // Restore() returns false when any process is non-restorable.
  struct Snapshot {
    std::vector<PbftReplica::Snapshot> replicas;
    PbftClient::Snapshot client;
    bool crashed = false;
    CrashKind crash_kind = CrashKind::kSegfault;
    std::string crash_reason;
    int crashed_replica = -1;
  };
  Snapshot TakeSnapshot() const;
  bool Restore(const Snapshot& snapshot);

 private:
  PbftConfig config_;
  VirtualNet* net_;
  std::vector<std::unique_ptr<PbftReplica>> replicas_;
  std::unique_ptr<PbftClient> client_;
  bool crashed_ = false;
  CrashKind crash_kind_ = CrashKind::kSegfault;
  std::string crash_reason_;
  int crashed_replica_ = -1;
};

}  // namespace lfi

#endif  // LFI_APPS_PBFT_PBFT_H_
