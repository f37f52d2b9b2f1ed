#include "apps/pbft/pbft.h"

#include <cstring>

#include "util/errno_codes.h"
#include "util/sha1.h"
#include "util/string_util.h"
#include "vlib/sim_crash.h"

namespace lfi {
namespace {

uint32_t Site(const char* name) { return PbftBinary().SiteOffset(name); }

std::string Digest(const std::string& payload) { return Sha1::HexDigest(payload).substr(0, 16); }

// Session-key derivation (the authenticators of the PBFT paper): both ends
// of a node pair stretch the pair identity into a shared MAC key by iterated
// hashing. Deliberately expensive -- in the Castro-Liskov implementation the
// keys are established with public-key signatures, so key establishment
// dominates replica bring-up; the round count here is sized to keep that
// true for this model (bring-up costs more than one workload). This is
// exactly the per-test cost the paper's fresh-process model pays and the
// warm-instance snapshot amortizes. Pure computation, no library calls, so
// it is never an injection site.
constexpr int kKeyStretchRounds = 1536;

std::string DeriveSessionKey(int port_a, int port_b) {
  std::string key = StrFormat("pbft-session-key|%d|%d", port_a < port_b ? port_a : port_b,
                              port_a < port_b ? port_b : port_a);
  for (int round = 0; round < kKeyStretchRounds; ++round) {
    key = Sha1::HexDigest(key);
  }
  return key;
}

}  // namespace

const AppBinary& PbftBinary() {
  static const AppBinary* binary = [] {
    AppBinaryBuilder b(PbftReplica::kModule, /*filler_seed=*/0xbf7);
    b.AddSite({"pbft.replica.socket", "replica_init", "socket", CheckPattern::kCheckIneq, {}});
    b.AddSite({"pbft.replica.bind", "replica_init", "bind", CheckPattern::kCheckEqAll, {-1}});
    b.AddSite({"pbft.replica.recvfrom", "handle_messages", "recvfrom",
               CheckPattern::kCheckIneq, {}});
    // Release build: sends are fire-and-forget (the debug build's send check
    // is compiled out -- the source of the view-change bug).
    b.AddSite({"pbft.replica.sendto", "send_message", "sendto", CheckPattern::kNoCheck, {}});
    // Periodic checkpoints check their fopen...
    b.AddSite({"pbft.checkpoint.fopen", "save_checkpoint", "fopen",
               CheckPattern::kCheckZeroEq, {}});
    b.AddSite({"pbft.checkpoint.fwrite", "save_checkpoint", "fwrite",
               CheckPattern::kCheckIneq, {}});
    b.AddSite({"pbft.checkpoint.fclose", "save_checkpoint", "fclose",
               CheckPattern::kCheckEqAll, {-1}});
    // ...the shutdown path does not (Table 1: fwrite on the NULL FILE* of a
    // previously failed fopen).
    b.AddSite({"pbft.shutdown.fopen", "shutdown_checkpoint", "fopen",
               CheckPattern::kNoCheck, {}});
    b.AddSite({"pbft.shutdown.fwrite", "shutdown_checkpoint", "fwrite",
               CheckPattern::kNoCheck, {}});
    b.AddSite({"pbft.shutdown.fclose", "shutdown_checkpoint", "fclose",
               CheckPattern::kCheckEqAll, {-1}});
    // Table 4 population: 6 fopen sites total (2 above + 4 checked here).
    for (int i = 0; i < 4; ++i) {
      b.AddSite({StrFormat("pbft.fopen%d", i), StrFormat("key_io_%d", i / 2), "fopen",
                 CheckPattern::kCheckZeroEq, {}});
    }
    return new AppBinary(b.Build());
  }();
  return *binary;
}

// --- PbftReplica ---------------------------------------------------------------

PbftReplica::PbftReplica(VirtualFs* fs, VirtualNet* net, int id, const PbftConfig& config)
    : libc_(fs, net, StrFormat("replica%d", id)), config_(config), id_(id) {
  if (!fs->DirExists("/pbft")) {
    fs->MkDir("/pbft");
  }
  RegisterCoverageBlocks();
}

void PbftReplica::RegisterCoverageBlocks() {
  struct BlockSpec {
    const char* id;
    bool recovery;
    int lines;
  };
  // The recovery blocks are the paths that run only when a library call
  // failed or a message never arrived: receive retries, checkpoint error
  // handling, lost-payload retrieval, state transfer, and the view change.
  static constexpr BlockSpec kBlocks[] = {
      {"pbft.recv.body", false, 4},
      {"pbft.recv.err_retry", true, 3},
      {"pbft.recv.err_backoff", true, 2},
      {"pbft.exec.body", false, 8},
      {"pbft.checkpoint.body", false, 6},
      {"pbft.checkpoint.err_fopen", true, 2},
      {"pbft.checkpoint.err_short", true, 3},
      {"pbft.fetch.missing_payload", true, 4},
      {"pbft.state.adopt", true, 6},
      {"pbft.viewchange.start", true, 4},
      {"pbft.viewchange.new_primary", true, 7},
      {"pbft.viewchange.halt", true, 2},
      {"pbft.shutdown.body", false, 4},
  };
  for (const BlockSpec& blk : kBlocks) {
    coverage_.RegisterBlock(blk.id, blk.recovery, blk.lines);
  }
}

PbftReplica::SeqState& PbftReplica::Seq(int64_t seq) { return log_[seq]; }

bool PbftReplica::Start() {
  ScopedFrame frame(&libc_.stack(), kModule, "replica_init");
  frame.set_offset(Site("pbft.replica.socket"));
  fd_ = libc_.Socket();
  if (fd_ < 0) {
    return false;
  }
  frame.set_offset(Site("pbft.replica.bind"));
  if (libc_.BindSocket(fd_, kPbftBasePort + id_) != 0) {
    return false;
  }
  // Establish the pairwise session keys with every peer and the client.
  for (int peer = 0; peer < config_.n; ++peer) {
    if (peer != id_) {
      session_keys_[kPbftBasePort + peer] =
          DeriveSessionKey(kPbftBasePort + id_, kPbftBasePort + peer);
    }
  }
  session_keys_[kPbftClientPort] = DeriveSessionKey(kPbftBasePort + id_, kPbftClientPort);
  return true;
}

void PbftReplica::SendTo(int port, const std::string& msg) {
  ScopedFrame frame(&libc_.stack(), kModule, "send_message");
  frame.set_offset(Site("pbft.replica.sendto"));
  // Fire-and-forget (release build): result intentionally unchecked.
  libc_.SendTo(fd_, msg.data(), msg.size(), port);
}

void PbftReplica::Multicast(const std::string& msg) {
  for (int i = 0; i < config_.n; ++i) {
    if (i != id_) {
      SendTo(kPbftBasePort + i, msg);
    }
  }
}

void PbftReplica::Step() {
  if (halted_) {
    return;
  }
  ++ticks_;
  int64_t executed_before = executed_count_;

  // Drain the socket.
  {
    ScopedFrame frame(&libc_.stack(), kModule, "handle_messages");
    int consecutive_failures = 0;
    for (int budget = 0; budget < 256; ++budget) {
      char buf[2048];
      int src_port = -1;
      frame.set_offset(Site("pbft.replica.recvfrom"));
      long n = libc_.RecvFrom(fd_, buf, sizeof buf, &src_port);
      if (n < 0) {
        if (libc_.verrno() == kEAGAIN) {
          break;  // queue drained
        }
        // Transient receive failure: that datagram is lost; retry a few
        // times, then back off until the next tick.
        static const CoverageMap::BlockId kBlkPbftRecvErrRetry = CoverageMap::InternBlock("pbft.recv.err_retry");
        coverage_.Hit(kBlkPbftRecvErrRetry);
        if (++consecutive_failures >= 8) {
          static const CoverageMap::BlockId kBlkPbftRecvErrBackoff = CoverageMap::InternBlock("pbft.recv.err_backoff");
          coverage_.Hit(kBlkPbftRecvErrBackoff);
          break;
        }
        continue;
      }
      consecutive_failures = 0;
      static const CoverageMap::BlockId kBlkPbftRecvBody = CoverageMap::InternBlock("pbft.recv.body");
      coverage_.Hit(kBlkPbftRecvBody);
      // Authenticate the sender: a datagram from a port we hold no session
      // key for fails the MAC check and is discarded.
      if (session_keys_.find(src_port) == session_keys_.end()) {
        continue;
      }
      HandleMessage(std::string(buf, static_cast<size_t>(n)), src_port);
      if (halted_) {
        return;
      }
    }
  }

  // View-change timer: pending work without progress.
  bool pending = !pending_client_.empty();
  for (const auto& [seq, st] : log_) {
    if (!st.executed && (st.pre_prepared || !st.prepares.empty() || !st.commits.empty())) {
      pending = true;
      break;
    }
  }
  if (executed_count_ > executed_before || !pending) {
    idle_ticks_ = 0;
  } else {
    ++idle_ticks_;
    if (idle_ticks_ > config_.view_change_timeout && !view_change_sent_) {
      StartViewChange();
    }
  }
  if (ticks_ % config_.resend_interval == 0) {
    Retransmit();
  }
}

void PbftReplica::HandleMessage(const std::string& msg, int src_port) {
  std::vector<std::string> parts = Split(msg, '|');
  if (parts.empty()) {
    return;
  }
  const std::string& type = parts[0];
  if (type == "REQ" && parts.size() >= 4) {
    bool forwarded = parts.size() >= 5 && parts[4] == "1";
    OnRequest(parts[2], static_cast<int>(*ParseInt(parts[3])), forwarded);
  } else if (type == "PP" && parts.size() >= 5) {
    OnPrePrepare(static_cast<int>(*ParseInt(parts[1])), *ParseInt(parts[2]), parts[3], parts[4]);
  } else if (type == "P" && parts.size() >= 5) {
    OnPrepare(static_cast<int>(*ParseInt(parts[1])), *ParseInt(parts[2]), parts[3],
              static_cast<int>(*ParseInt(parts[4])), src_port);
  } else if (type == "C" && parts.size() >= 5) {
    OnCommit(static_cast<int>(*ParseInt(parts[1])), *ParseInt(parts[2]), parts[3],
             static_cast<int>(*ParseInt(parts[4])), src_port);
  } else if (type == "FETCH" && parts.size() >= 3) {
    // Missing-message retrieval (PBFT's message/state-transfer mechanism):
    // answer with the pre-prepare if we hold the payload.
    auto seq = ParseInt(parts[1]);
    auto requester = ParseInt(parts[2]);
    if (seq && requester) {
      if (*seq <= low_watermark_) {
        SendStateTo(kPbftBasePort + static_cast<int>(*requester));
      } else {
        auto it = log_.find(*seq);
        if (it != log_.end() && it->second.request != nullptr) {
          SendTo(kPbftBasePort + static_cast<int>(*requester),
                 StrFormat("PP|%d|%lld|%s|%s", view_, static_cast<long long>(*seq),
                           it->second.digest.c_str(), it->second.request->c_str()));
        }
      }
    }
  } else if (type == "STATE" && parts.size() >= 4) {
    auto executed = ParseInt(parts[1]);
    auto view = ParseInt(parts[3]);
    if (executed && view) {
      OnStateTransfer(*executed, parts[2], static_cast<int>(*view));
    }
  } else if (type == "VC" && parts.size() >= 3) {
    OnViewChange(static_cast<int>(*ParseInt(parts[1])), static_cast<int>(*ParseInt(parts[2])));
  } else if (type == "NV" && parts.size() >= 3) {
    OnNewView(static_cast<int>(*ParseInt(parts[1])), parts[2]);
  }
}

void PbftReplica::OnRequest(const std::string& payload, int client_port, bool forwarded) {
  std::string digest = Digest(payload);
  if (executed_digests_.count(digest) != 0) {
    // Duplicate of an executed request: re-send the cached reply.
    auto cached = reply_cache_.find(digest);
    if (cached != reply_cache_.end()) {
      SendTo(cached->second.first, cached->second.second);
    }
    return;
  }
  pending_client_[digest] = client_port;
  if (!is_primary()) {
    if (!forwarded) {
      // Client broadcast: relay to the primary and start suspecting it.
      std::string fwd = StrFormat("REQ|0|%s|%d|1", payload.c_str(), client_port);
      SendTo(kPbftBasePort + (view_ % config_.n), fwd);
    }
    return;
  }
  // Already ordered? Re-announce the assignment.
  for (auto& [seq, st] : log_) {
    if (st.digest == digest) {
      if (st.request != nullptr) {
        Multicast(StrFormat("PP|%d|%lld|%s|%s", view_, static_cast<long long>(seq),
                            digest.c_str(), st.request->c_str()));
      }
      return;
    }
  }
  int64_t seq = ++next_seq_;
  SeqState& st = Seq(seq);
  st.digest = digest;
  st.request = std::make_unique<std::string>(payload);
  st.pre_prepared = true;
  st.prepares.insert(id_);
  Multicast(StrFormat("PP|%d|%lld|%s|%s", view_, static_cast<long long>(seq), digest.c_str(),
                      payload.c_str()));
}

void PbftReplica::CatchUpView(int view) {
  // A protocol message from a later view is evidence that a view change
  // completed elsewhere; adopt it (real PBFT would verify the new-view
  // proof, which the simulation elides).
  if (view > view_) {
    ++view_changes_;
    view_ = view;
    view_change_votes_.clear();
    view_change_sent_ = false;
    idle_ticks_ = 0;
  }
}

void PbftReplica::SendStateTo(int port) {
  if (port < 0) {
    return;
  }
  SendTo(port, StrFormat("STATE|%lld|%s|%d", static_cast<long long>(low_watermark_),
                         checkpoint_digest_.c_str(), view_));
}

void PbftReplica::OnStateTransfer(int64_t executed, const std::string& digest, int view) {
  // Checkpoint-based state transfer: adopt a peer's stable checkpoint when it
  // is ahead of ours (the real protocol verifies 2f+1 checkpoint signatures;
  // the simulation trusts its honest replicas).
  CatchUpView(view);
  if (executed <= executed_count_) {
    return;
  }
  static const CoverageMap::BlockId kBlkPbftStateAdopt = CoverageMap::InternBlock("pbft.state.adopt");
  coverage_.Hit(kBlkPbftStateAdopt);
  executed_count_ = executed;
  state_digest_ = digest;
  low_watermark_ = executed;
  log_.erase(log_.begin(), log_.upper_bound(low_watermark_));
  pending_client_.clear();  // anything executed elsewhere was answered there
  checkpoint_digest_ = digest;
  idle_ticks_ = 0;
}

void PbftReplica::OnPrePrepare(int view, int64_t seq, const std::string& digest,
                               const std::string& payload) {
  CatchUpView(view);
  if (view != view_ || seq <= low_watermark_) {
    return;
  }
  SeqState& st = Seq(seq);
  if (st.executed) {
    return;  // stale retransmission
  }
  if (st.pre_prepared && st.digest != digest) {
    return;  // conflicting assignment from a faulty primary: ignore
  }
  st.digest = digest;
  if (st.request == nullptr) {
    st.request = std::make_unique<std::string>(payload);
  }
  st.pre_prepared = true;
  st.prepares.insert(view_ % config_.n);  // the primary's implicit prepare
  st.prepares.insert(id_);
  if (seq > next_seq_) {
    next_seq_ = seq;
  }
  Multicast(StrFormat("P|%d|%lld|%s|%d", view_, static_cast<long long>(seq), digest.c_str(),
                      id_));
  OnPrepare(view_, seq, digest, id_, -1);
}

void PbftReplica::OnPrepare(int view, int64_t seq, const std::string& digest, int replica,
                            int src_port) {
  CatchUpView(view);
  if (seq <= low_watermark_) {
    SendStateTo(src_port);  // the sender lags behind our stable checkpoint
    return;
  }
  if (view != view_) {
    return;
  }
  SeqState& st = Seq(seq);
  if (!st.digest.empty() && st.digest != digest) {
    return;
  }
  if (st.executed && src_port >= 0) {
    // The sender lags behind on a sequence we already executed: gossip our
    // commit back so it can assemble its certificate.
    SendTo(src_port, StrFormat("C|%d|%lld|%s|%d", view_, static_cast<long long>(seq),
                               st.digest.c_str(), id_));
    return;
  }
  st.digest = digest;
  st.prepares.insert(replica);
  // prepared(m, v, n): 2f prepares matching the pre-prepare.
  if (static_cast<int>(st.prepares.size()) >= 2 * config_.f && st.commits.count(id_) == 0) {
    st.commits.insert(id_);
    Multicast(StrFormat("C|%d|%lld|%s|%d", view_, static_cast<long long>(seq), digest.c_str(),
                        id_));
    OnCommit(view, seq, digest, id_, -1);
  }
}

void PbftReplica::OnCommit(int view, int64_t seq, const std::string& digest, int replica,
                           int src_port) {
  CatchUpView(view);
  if (seq <= low_watermark_) {
    SendStateTo(src_port);
    return;
  }
  if (view != view_) {
    return;
  }
  SeqState& st = Seq(seq);
  if (!st.digest.empty() && st.digest != digest) {
    return;
  }
  if (st.executed && src_port >= 0) {
    SendTo(src_port, StrFormat("C|%d|%lld|%s|%d", view_, static_cast<long long>(seq),
                               st.digest.c_str(), id_));
    return;
  }
  st.digest = digest;
  st.commits.insert(replica);
  // committed-local: 2f+1 commits.
  if (static_cast<int>(st.commits.size()) >= 2 * config_.f + 1) {
    st.committed = true;
    TryExecute();
  }
}

void PbftReplica::TryExecute() {
  while (true) {
    auto it = log_.find(executed_count_ + 1);
    if (it == log_.end() || !it->second.committed || it->second.executed) {
      break;
    }
    SeqState& st = it->second;
    if (st.request == nullptr) {
      break;  // payload never arrived; wait for retransmission or view change
    }
    st.executed = true;
    static const CoverageMap::BlockId kBlkPbftExecBody = CoverageMap::InternBlock("pbft.exec.body");
    coverage_.Hit(kBlkPbftExecBody);
    ++executed_count_;
    executed_digests_.insert(st.digest);
    state_digest_ = Digest(state_digest_ + st.digest);
    // Request payload: "<timestamp>#<client_port>#<op>" (the client id is
    // part of the request, as in PBFT).
    std::vector<std::string> fields = Split(*st.request, '#');
    if (fields.size() >= 2) {
      auto port = ParseInt(fields[1]);
      if (port) {
        std::string reply = StrFormat("REPLY|%d|%s|%d|%s", view_, fields[0].c_str(), id_,
                                      state_digest_.c_str());
        SendTo(static_cast<int>(*port), reply);
        reply_cache_[st.digest] = {static_cast<int>(*port), reply};
      }
    }
    pending_client_.erase(st.digest);
    MaybeCheckpoint();
  }
}

void PbftReplica::MaybeCheckpoint() {
  if (executed_count_ % config_.checkpoint_interval != 0) {
    return;
  }
  ScopedFrame frame(&libc_.stack(), kModule, "save_checkpoint");
  coverage_.Hit("pbft.checkpoint.body");
  std::string path = StrFormat("/pbft/replica%d.ckpt", id_);
  frame.set_offset(Site("pbft.checkpoint.fopen"));
  VFile* f = libc_.FOpen(path, "w");
  if (f == nullptr) {
    // Periodic checkpoints check their fopen; retried next interval.
    coverage_.Hit("pbft.checkpoint.err_fopen");
    return;
  }
  std::string record = StrFormat("%lld %s\n", static_cast<long long>(executed_count_),
                                 state_digest_.c_str());
  frame.set_offset(Site("pbft.checkpoint.fwrite"));
  unsigned long written = libc_.FWrite(record.data(), record.size(), f);
  frame.set_offset(Site("pbft.checkpoint.fclose"));
  libc_.FClose(f);
  if (written == record.size()) {
    low_watermark_ = executed_count_;
    checkpoint_digest_ = state_digest_;
    log_.erase(log_.begin(), log_.upper_bound(low_watermark_));
  } else {
    // Short write: keep the previous stable checkpoint and the full log.
    coverage_.Hit("pbft.checkpoint.err_short");
  }
}

void PbftReplica::StartViewChange() {
  coverage_.Hit("pbft.viewchange.start");
  view_change_sent_ = true;
  view_change_votes_.insert(id_);
  Multicast(StrFormat("VC|%d|%d", view_ + 1, id_));
  OnViewChange(view_ + 1, id_);
}

void PbftReplica::OnViewChange(int view, int replica) {
  if (view != view_ + 1) {
    return;
  }
  view_change_votes_.insert(replica);
  if (static_cast<int>(view_change_votes_.size()) >= 2 * config_.f + 1) {
    int new_primary = view % config_.n;
    ++view_changes_;
    view_ = view;
    view_change_votes_.clear();
    view_change_sent_ = false;
    idle_ticks_ = 0;
    if (new_primary == id_) {
      BecomePrimaryOfNewView();
    }
  }
}

void PbftReplica::BecomePrimaryOfNewView() {
  coverage_.Hit("pbft.viewchange.new_primary");
  // Carry forward every request with prepare evidence, per the view-change
  // protocol. The prepare/commit certificates may reference messages this
  // replica never received (their PRE-PREPAREs were lost to network faults).
  std::string carried;
  for (auto& [seq, st] : log_) {
    if (st.executed || (st.prepares.empty() && st.commits.empty())) {
      continue;
    }
    if (config_.debug_build) {
      // Debug build: the message log is validated first; on a gap the
      // replica halts with an error exit code (the paper's observation that
      // the bug does not manifest in the debug build).
      if (st.request == nullptr) {
        coverage_.Hit("pbft.viewchange.halt");
        halted_ = true;
        return;
      }
    }
    // BUG (Table 1, release build): the committed message is accessed
    // without checking that it was ever received.
    std::string* request = MustDeref(st.request.get(), "view change: committed message access");
    carried += StrFormat("%lld:%s:%s;", static_cast<long long>(seq), st.digest.c_str(),
                         request->c_str());
    st.prepares.insert(id_);
  }
  Multicast(StrFormat("NV|%d|%s", view_, carried.c_str()));
  // Re-propose the carried requests under the new view.
  for (auto& [seq, st] : log_) {
    if (!st.executed && st.request != nullptr) {
      Multicast(StrFormat("PP|%d|%lld|%s|%s", view_, static_cast<long long>(seq),
                          st.digest.c_str(), st.request->c_str()));
    }
  }
}

void PbftReplica::OnNewView(int view, const std::string& carried) {
  if (view <= view_ - 1 || view % config_.n == id_) {
    return;
  }
  if (view > view_) {
    ++view_changes_;
    view_ = view;
    view_change_votes_.clear();
    view_change_sent_ = false;
    idle_ticks_ = 0;
  }
  for (const std::string& entry : Split(carried, ';')) {
    if (entry.empty()) {
      continue;
    }
    std::vector<std::string> fields = Split(entry, ':');
    if (fields.size() < 3) {
      continue;
    }
    auto seq = ParseInt(fields[0]);
    if (seq) {
      OnPrePrepare(view_, *seq, fields[1], fields[2]);
    }
  }
}

void PbftReplica::Retransmit() {
  if (view_change_sent_) {
    // Keep announcing the vote until the view change completes; lost VC
    // messages must not wedge the protocol.
    Multicast(StrFormat("VC|%d|%d", view_ + 1, id_));
  }
  // Re-multicast the highest-phase message for every incomplete sequence, so
  // the protocol makes progress under heavy message loss.
  for (auto& [seq, st] : log_) {
    if (st.executed || st.digest.empty()) {
      continue;
    }
    if (st.request == nullptr) {
      // We have evidence for this sequence but never received the payload:
      // fetch it from the peers (PBFT message retrieval).
      coverage_.Hit("pbft.fetch.missing_payload");
      Multicast(StrFormat("FETCH|%lld|%d", static_cast<long long>(seq), id_));
      continue;
    }
    if (st.commits.count(id_) != 0) {
      Multicast(StrFormat("C|%d|%lld|%s|%d", view_, static_cast<long long>(seq),
                          st.digest.c_str(), id_));
    } else if (st.pre_prepared) {
      if (is_primary() && st.request != nullptr) {
        Multicast(StrFormat("PP|%d|%lld|%s|%s", view_, static_cast<long long>(seq),
                            st.digest.c_str(), st.request->c_str()));
      } else {
        Multicast(StrFormat("P|%d|%lld|%s|%d", view_, static_cast<long long>(seq),
                            st.digest.c_str(), id_));
      }
    }
  }
}

void PbftReplica::Shutdown() {
  ScopedFrame frame(&libc_.stack(), kModule, "shutdown_checkpoint");
  coverage_.Hit("pbft.shutdown.body");
  std::string path = StrFormat("/pbft/replica%d.final", id_);
  frame.set_offset(Site("pbft.shutdown.fopen"));
  VFile* f = libc_.FOpen(path, "w");
  // BUG (Table 1): the fopen result is not checked before writing the final
  // checkpoint; an injected failure hands fwrite a NULL stream.
  std::string record = StrFormat("final %lld %s\n", static_cast<long long>(executed_count_),
                                 state_digest_.c_str());
  frame.set_offset(Site("pbft.shutdown.fwrite"));
  libc_.FWrite(record.data(), record.size(), f);
  frame.set_offset(Site("pbft.shutdown.fclose"));
  libc_.FClose(f);
}

std::map<int64_t, PbftReplica::SeqState> PbftReplica::CloneLog(
    const std::map<int64_t, SeqState>& log) {
  std::map<int64_t, SeqState> copy;
  for (const auto& [seq, state] : log) {
    SeqState& s = copy[seq];
    s.digest = state.digest;
    if (state.request != nullptr) {
      s.request = std::make_unique<std::string>(*state.request);
    }
    s.prepares = state.prepares;
    s.commits = state.commits;
    s.pre_prepared = state.pre_prepared;
    s.committed = state.committed;
    s.executed = state.executed;
  }
  return copy;
}

PbftReplica::Snapshot PbftReplica::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.libc = libc_.TakeSnapshot();
  snapshot.coverage = coverage_;
  snapshot.fd = fd_;
  snapshot.session_keys = session_keys_;
  snapshot.view = view_;
  snapshot.next_seq = next_seq_;
  snapshot.executed_count = executed_count_;
  snapshot.low_watermark = low_watermark_;
  snapshot.log = CloneLog(log_);
  snapshot.pending_client = pending_client_;
  snapshot.executed_digests = executed_digests_;
  snapshot.reply_cache = reply_cache_;
  snapshot.view_change_votes = view_change_votes_;
  snapshot.view_change_sent = view_change_sent_;
  snapshot.idle_ticks = idle_ticks_;
  snapshot.ticks = ticks_;
  snapshot.halted = halted_;
  snapshot.view_changes = view_changes_;
  snapshot.state_digest = state_digest_;
  snapshot.checkpoint_digest = checkpoint_digest_;
  return snapshot;
}

bool PbftReplica::Restore(const Snapshot& snapshot) {
  coverage_ = snapshot.coverage;
  fd_ = snapshot.fd;
  session_keys_ = snapshot.session_keys;
  view_ = snapshot.view;
  next_seq_ = snapshot.next_seq;
  executed_count_ = snapshot.executed_count;
  low_watermark_ = snapshot.low_watermark;
  log_ = CloneLog(snapshot.log);
  pending_client_ = snapshot.pending_client;
  executed_digests_ = snapshot.executed_digests;
  reply_cache_ = snapshot.reply_cache;
  view_change_votes_ = snapshot.view_change_votes;
  view_change_sent_ = snapshot.view_change_sent;
  idle_ticks_ = snapshot.idle_ticks;
  ticks_ = snapshot.ticks;
  halted_ = snapshot.halted;
  view_changes_ = snapshot.view_changes;
  state_digest_ = snapshot.state_digest;
  checkpoint_digest_ = snapshot.checkpoint_digest;
  return libc_.Restore(snapshot.libc);
}

// --- PbftClient ----------------------------------------------------------------

PbftClient::PbftClient(VirtualFs* fs, VirtualNet* net, const PbftConfig& config)
    : libc_(fs, net, "pbft-client"), config_(config) {}

bool PbftClient::Start() {
  fd_ = libc_.Socket();
  if (fd_ < 0) {
    return false;
  }
  if (libc_.BindSocket(fd_, kPbftClientPort) != 0) {
    return false;
  }
  // Establish the session keys with every replica (see PbftReplica::Start).
  for (int peer = 0; peer < config_.n; ++peer) {
    session_keys_[kPbftBasePort + peer] =
        DeriveSessionKey(kPbftClientPort, kPbftBasePort + peer);
  }
  return true;
}

void PbftClient::Step() {
  // Collect replies for the outstanding request.
  while (outstanding_) {
    char buf[512];
    int src_port = -1;
    long n = libc_.RecvFrom(fd_, buf, sizeof buf, &src_port);
    if (n < 0) {
      break;
    }
    // Authenticate the replying replica (same MAC check as the replicas).
    if (session_keys_.find(src_port) == session_keys_.end()) {
      continue;
    }
    std::vector<std::string> parts = Split(std::string(buf, static_cast<size_t>(n)), '|');
    if (parts.size() >= 4 && parts[0] == "REPLY") {
      auto ts = ParseInt(parts[2]);
      if (ts && *ts == timestamp_) {
        reply_votes_.insert(static_cast<int>(*ParseInt(parts[3])));
        if (static_cast<int>(reply_votes_.size()) >= config_.f + 1) {
          ++completed_;
          outstanding_ = false;
          reply_votes_.clear();
        }
      }
    }
  }

  if (!outstanding_) {
    if (max_requests_ > 0 && timestamp_ >= max_requests_) {
      return;  // workload complete; stop issuing
    }
    // Issue the next request to the (believed) primary.
    ++timestamp_;
    outstanding_ = true;
    broadcast_mode_ = false;
    ticks_since_send_ = 0;
    std::string payload =
        StrFormat("%lld#%d#op", static_cast<long long>(timestamp_), kPbftClientPort);
    std::string msg = StrFormat("REQ|0|%s|%d|0", payload.c_str(), kPbftClientPort);
    libc_.SendTo(fd_, msg.data(), msg.size(), kPbftBasePort);  // view-0 primary
    return;
  }

  // Retransmit: after the first timeout, broadcast to all replicas (which
  // forward to the primary and start suspecting it), per the protocol.
  if (++ticks_since_send_ >= 4) {
    ticks_since_send_ = 0;
    broadcast_mode_ = true;
    std::string payload =
        StrFormat("%lld#%d#op", static_cast<long long>(timestamp_), kPbftClientPort);
    std::string msg = StrFormat("REQ|0|%s|%d|0", payload.c_str(), kPbftClientPort);
    for (int i = 0; i < config_.n; ++i) {
      libc_.SendTo(fd_, msg.data(), msg.size(), kPbftBasePort + i);
    }
  }
}

// --- PbftCluster -----------------------------------------------------------------

PbftCluster::PbftCluster(VirtualFs* fs, VirtualNet* net, const PbftConfig& config)
    : config_(config), net_(net) {
  net_->set_tick_delivery(true);  // uniform one-tick message latency
  for (int i = 0; i < config.n; ++i) {
    replicas_.push_back(std::make_unique<PbftReplica>(fs, net, i, config));
  }
  client_ = std::make_unique<PbftClient>(fs, net, config);
}

bool PbftCluster::Start() {
  for (auto& r : replicas_) {
    if (!r->Start()) {
      return false;
    }
  }
  return client_->Start();
}

CoverageMap PbftCluster::Coverage() const {
  CoverageMap merged;
  for (const auto& r : replicas_) {
    merged.Absorb(r->coverage());
  }
  return merged;
}

PbftCluster::Snapshot PbftCluster::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.replicas.reserve(replicas_.size());
  for (const auto& r : replicas_) {
    snapshot.replicas.push_back(r->TakeSnapshot());
  }
  snapshot.client = client_->TakeSnapshot();
  snapshot.crashed = crashed_;
  snapshot.crash_kind = crash_kind_;
  snapshot.crash_reason = crash_reason_;
  snapshot.crashed_replica = crashed_replica_;
  return snapshot;
}

bool PbftCluster::Restore(const Snapshot& snapshot) {
  if (snapshot.replicas.size() != replicas_.size()) {
    return false;
  }
  bool ok = true;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    ok = replicas_[i]->Restore(snapshot.replicas[i]) && ok;
  }
  ok = client_->Restore(snapshot.client) && ok;
  crashed_ = snapshot.crashed;
  crash_kind_ = snapshot.crash_kind;
  crash_reason_ = snapshot.crash_reason;
  crashed_replica_ = snapshot.crashed_replica;
  return ok;
}

int PbftCluster::RunWorkload(int requests, int max_ticks) {
  client_->set_max_requests(requests);
  int ticks = 0;
  auto step_all = [&]() -> bool {
    ++ticks;
    net_->AdvanceTick();  // deliver everything sent during the previous tick
    client_->Step();
    for (auto& r : replicas_) {
      try {
        r->Step();
      } catch (const SimCrash& crash) {
        crashed_ = true;
        crash_kind_ = crash.kind();
        crash_reason_ = crash.what();
        crashed_replica_ = r->id();
        return false;
      }
    }
    return true;
  };
  while (client_->completed() < requests && ticks < max_ticks) {
    if (!step_all()) {
      return ticks;
    }
  }
  // Drain: let the backups finish executing the tail of the workload.
  for (int i = 0; i < 20 && ticks < max_ticks; ++i) {
    if (!step_all()) {
      return ticks;
    }
  }
  return ticks;
}

}  // namespace lfi
