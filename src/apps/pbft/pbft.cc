#include "apps/pbft/pbft.h"

#include <algorithm>
#include <cstring>

#include "apps/pbft/wire.h"
#include "util/errno_codes.h"
#include "util/sha1.h"
#include "util/string_util.h"
#include "vlib/sim_crash.h"

namespace lfi {
namespace {

using pbft_wire::AppendJoined;
using pbft_wire::DecodeWire;
using pbft_wire::Wire;
using pbft_wire::WireFields;
using pbft_wire::WireNumber;
using pbft_wire::WireType;

template <SiteName kName>
uint32_t Site() {
  return CachedSiteOffset<PbftBinary, kName>();
}

std::string Digest(std::string_view payload) { return Sha1::HexDigest(payload).substr(0, 16); }

// Session-key derivation (the authenticators of the PBFT paper): both ends
// of a node pair stretch the pair identity into a shared MAC key by iterated
// hashing. Deliberately expensive -- in the Castro-Liskov implementation the
// keys are established with public-key signatures, so key establishment
// dominates replica bring-up; the round count here is sized to keep that
// true for this model. A cluster's 30,720 hashes are most of its bring-up,
// and bring-up costs more than one workload: on a 4-vCPU VM with SHA
// extensions the hashes take ~1.4 ms (~7.4 ms on the portable kernel) and a
// cluster builds in ~1.45 ms at the median, while a pbft-random job takes
// ~0.29 ms at the median and ~0.49 ms at p95 (campaign_bench, traced).
// The hash count is the model and the kernel or the stretch loop is the
// machine, so making either faster leaves the count alone. This is exactly
// the per-test cost the paper's fresh-process model pays and the
// warm-instance snapshot amortizes.
// Pure computation, no library calls, so it is never an injection site.
constexpr int kKeyStretchRounds = 1536;

std::string DeriveSessionKey(int port_a, int port_b) {
  const Wire pair("pbft-session-key", std::min(port_a, port_b), std::max(port_a, port_b));
  return Sha1::StretchHex(pair.view(), kKeyStretchRounds);
}

// The session keys of the process at `own_port` with every other process of
// an `n`-replica cluster: the client and each replica.
std::shared_ptr<const pbft_state::SessionKeyTable> DeriveSessionKeys(int own_port, int n) {
  auto table = std::make_shared<pbft_state::SessionKeyTable>();
  table->first_port = kPbftClientPort;
  table->keys.resize(static_cast<size_t>(kPbftBasePort + n - kPbftClientPort));
  for (int port = kPbftClientPort; port < kPbftBasePort + n; ++port) {
    if (port != own_port) {
      table->keys[static_cast<size_t>(port - kPbftClientPort)] = DeriveSessionKey(own_port, port);
    }
  }
  return table;
}

// Whether a datagram from `port` authenticates against `keys` (null before
// Start()).
bool Authenticates(const std::shared_ptr<const pbft_state::SessionKeyTable>& keys, int port) {
  return keys != nullptr && keys->Holds(port);
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

bool PbftReplica::Start() {
  ScopedFrame frame(&libc_.stack(), kModule, "replica_init");
  frame.set_offset(Site<"pbft.replica.socket">());
  fd_ = libc_.Socket();
  if (fd_ < 0) {
    return false;
  }
  frame.set_offset(Site<"pbft.replica.bind">());
  if (libc_.BindSocket(fd_, kPbftBasePort + id_) != 0) {
    return false;
  }
  // Establish the pairwise session keys with every peer and the client.
  session_keys_ = DeriveSessionKeys(kPbftBasePort + id_, config_.n);
  return true;
}

void PbftReplica::SendTo(int port, std::string_view msg) {
  ScopedFrame frame(&libc_.stack(), kModule, "send_message");
  frame.set_offset(Site<"pbft.replica.sendto">());
  // Fire-and-forget (release build): result intentionally unchecked.
  libc_.SendTo(fd_, msg.data(), msg.size(), port);
}

void PbftReplica::Multicast(std::string_view msg) {
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
      frame.set_offset(Site<"pbft.replica.recvfrom">());
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
      if (!Authenticates(session_keys_, src_port)) {
        continue;
      }
      HandleMessage(std::string_view(buf, static_cast<size_t>(n)), src_port);
      if (halted_) {
        return;
      }
    }
  }

  // View-change timer: pending work without progress.
  bool pending = !pending_client_.empty();
  for (const SeqState& st : log_) {
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

void PbftReplica::HandleMessage(std::string_view msg, int src_port) {
  // One pass over the datagram; the text fields are views into the receive
  // buffer, so no message is copied before it is understood.
  const WireFields m = DecodeWire(msg);
  switch (m.type) {
    case WireType::kRequest:
      OnRequest(m.payload, static_cast<int>(m.port), m.forwarded);
      break;
    case WireType::kPrePrepare:
      OnPrePrepare(static_cast<int>(m.view), m.seq, m.digest, m.payload);
      break;
    case WireType::kPrepare:
      OnPrepare(static_cast<int>(m.view), m.seq, m.digest, static_cast<int>(m.replica), src_port);
      break;
    case WireType::kCommit:
      OnCommit(static_cast<int>(m.view), m.seq, m.digest, static_cast<int>(m.replica), src_port);
      break;
    case WireType::kFetch:
      // Missing-message retrieval (PBFT's message/state-transfer mechanism):
      // answer with the pre-prepare if we hold the payload.
      if (m.seq <= low_watermark_) {
        SendStateTo(kPbftBasePort + static_cast<int>(m.replica));
      } else {
        const SeqState* st = log_.Find(m.seq);
        if (st != nullptr && st->request) {
          SendTo(kPbftBasePort + static_cast<int>(m.replica),
                 Wire("PP", view_, m.seq, st->digest, *st->request));
        }
      }
      break;
    case WireType::kState:
      OnStateTransfer(m.seq, m.digest, static_cast<int>(m.view));
      break;
    case WireType::kViewChange:
      OnViewChange(static_cast<int>(m.view), static_cast<int>(m.replica));
      break;
    case WireType::kNewView:
      OnNewView(static_cast<int>(m.view), m.payload);
      break;
    case WireType::kReply:  // the client's, not a replica's
    case WireType::kDrop:   // truncated or garbled: dropped whole
      break;
  }
}

void PbftReplica::OnRequest(std::string_view payload, int client_port, bool forwarded) {
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
      SendTo(kPbftBasePort + (view_ % config_.n),
             Wire("REQ", 0, payload, client_port, 1));
    }
    return;
  }
  // Already ordered? Re-announce the assignment.
  for (const SeqState& st : log_) {
    if (st.digest == digest) {
      if (st.request) {
        Multicast(Wire("PP", view_, st.seq, digest, *st.request));
      }
      return;
    }
  }
  int64_t seq = ++next_seq_;
  SeqState& st = log_.Get(seq);
  st.digest = digest;
  st.request.emplace(payload);
  st.pre_prepared = true;
  st.prepares.Insert(id_);
  Multicast(Wire("PP", view_, seq, digest, *st.request));
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
  SendTo(port, Wire("STATE", low_watermark_, checkpoint_digest_, view_));
}

void PbftReplica::OnStateTransfer(int64_t executed, std::string_view digest, int view) {
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
  log_.EraseThrough(low_watermark_);
  pending_client_.clear();  // anything executed elsewhere was answered there
  checkpoint_digest_ = digest;
  idle_ticks_ = 0;
}

void PbftReplica::OnPrePrepare(int view, int64_t seq, std::string_view digest,
                               std::string_view payload) {
  CatchUpView(view);
  if (view != view_ || seq <= low_watermark_) {
    return;
  }
  SeqState& st = log_.Get(seq);
  if (st.executed) {
    return;  // stale retransmission
  }
  if (st.pre_prepared && st.digest != digest) {
    return;  // conflicting assignment from a faulty primary: ignore
  }
  st.digest = digest;
  if (!st.request) {
    st.request.emplace(payload);
  }
  st.pre_prepared = true;
  st.prepares.Insert(view_ % config_.n);  // the primary's implicit prepare
  st.prepares.Insert(id_);
  if (seq > next_seq_) {
    next_seq_ = seq;
  }
  Multicast(Wire("P", view_, seq, digest, id_));
  OnPrepare(view_, seq, digest, id_, -1);
}

void PbftReplica::OnPrepare(int view, int64_t seq, std::string_view digest, int replica,
                            int src_port) {
  CatchUpView(view);
  if (seq <= low_watermark_) {
    SendStateTo(src_port);  // the sender lags behind our stable checkpoint
    return;
  }
  if (view != view_) {
    return;
  }
  SeqState& st = log_.Get(seq);
  if (!st.digest.empty() && st.digest != digest) {
    return;
  }
  if (st.executed && src_port >= 0) {
    // The sender lags behind on a sequence we already executed: gossip our
    // commit back so it can assemble its certificate.
    SendTo(src_port, Wire("C", view_, seq, st.digest, id_));
    return;
  }
  st.digest = digest;
  st.prepares.Insert(replica);
  // prepared(m, v, n): 2f prepares matching the pre-prepare.
  if (st.prepares.size() >= 2 * config_.f && !st.commits.Contains(id_)) {
    st.commits.Insert(id_);
    Multicast(Wire("C", view_, seq, digest, id_));
    OnCommit(view, seq, digest, id_, -1);
  }
}

void PbftReplica::OnCommit(int view, int64_t seq, std::string_view digest, int replica,
                           int src_port) {
  CatchUpView(view);
  if (seq <= low_watermark_) {
    SendStateTo(src_port);
    return;
  }
  if (view != view_) {
    return;
  }
  SeqState& st = log_.Get(seq);
  if (!st.digest.empty() && st.digest != digest) {
    return;
  }
  if (st.executed && src_port >= 0) {
    SendTo(src_port, Wire("C", view_, seq, st.digest, id_));
    return;
  }
  st.digest = digest;
  st.commits.Insert(replica);
  // committed-local: 2f+1 commits.
  if (st.commits.size() >= 2 * config_.f + 1) {
    st.committed = true;
    TryExecute();  // may truncate the log: `st` is not used past here
  }
}

void PbftReplica::TryExecute() {
  while (true) {
    // Looked up afresh each round: MaybeCheckpoint below truncates the log.
    SeqState* next = log_.Find(executed_count_ + 1);
    if (next == nullptr || !next->committed || next->executed) {
      break;
    }
    SeqState& st = *next;
    if (!st.request) {
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
    std::string_view fields[2];
    if (SplitViews(*st.request, '#', fields) >= 2) {
      auto port = WireNumber(fields[1]);
      if (port) {
        const Wire reply("REPLY", view_, fields[0], id_, state_digest_);
        SendTo(static_cast<int>(*port), reply);
        reply_cache_[st.digest] = {static_cast<int>(*port), std::string(reply.view())};
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
  static const CoverageMap::BlockId kBlkPbftCheckpointBody = CoverageMap::InternBlock("pbft.checkpoint.body");
  coverage_.Hit(kBlkPbftCheckpointBody);
  std::string path = StrFormat("/pbft/replica%d.ckpt", id_);
  frame.set_offset(Site<"pbft.checkpoint.fopen">());
  VFile* f = libc_.FOpen(path, "w");
  if (f == nullptr) {
    // Periodic checkpoints check their fopen; retried next interval.
    static const CoverageMap::BlockId kBlkPbftCheckpointErrFopen = CoverageMap::InternBlock("pbft.checkpoint.err_fopen");
    coverage_.Hit(kBlkPbftCheckpointErrFopen);
    return;
  }
  std::string record = StrFormat("%lld %s\n", static_cast<long long>(executed_count_),
                                 state_digest_.c_str());
  frame.set_offset(Site<"pbft.checkpoint.fwrite">());
  unsigned long written = libc_.FWrite(record.data(), record.size(), f);
  frame.set_offset(Site<"pbft.checkpoint.fclose">());
  libc_.FClose(f);
  if (written == record.size()) {
    low_watermark_ = executed_count_;
    checkpoint_digest_ = state_digest_;
    log_.EraseThrough(low_watermark_);
  } else {
    // Short write: keep the previous stable checkpoint and the full log.
    static const CoverageMap::BlockId kBlkPbftCheckpointErrShort = CoverageMap::InternBlock("pbft.checkpoint.err_short");
    coverage_.Hit(kBlkPbftCheckpointErrShort);
  }
}

void PbftReplica::StartViewChange() {
  static const CoverageMap::BlockId kBlkPbftViewchangeStart = CoverageMap::InternBlock("pbft.viewchange.start");
  coverage_.Hit(kBlkPbftViewchangeStart);
  view_change_sent_ = true;
  view_change_votes_.Insert(id_);
  Multicast(Wire("VC", view_ + 1, id_));
  OnViewChange(view_ + 1, id_);
}

void PbftReplica::OnViewChange(int view, int replica) {
  if (view != view_ + 1) {
    return;
  }
  view_change_votes_.Insert(replica);
  if (view_change_votes_.size() >= 2 * config_.f + 1) {
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
  static const CoverageMap::BlockId kBlkPbftViewchangeNewPrimary = CoverageMap::InternBlock("pbft.viewchange.new_primary");
  coverage_.Hit(kBlkPbftViewchangeNewPrimary);
  // Carry forward every request with prepare evidence, per the view-change
  // protocol. The prepare/commit certificates may reference messages this
  // replica never received (their PRE-PREPAREs were lost to network faults).
  std::string carried;
  for (SeqState& st : log_) {
    if (st.executed || (st.prepares.empty() && st.commits.empty())) {
      continue;
    }
    if (config_.debug_build) {
      // Debug build: the message log is validated first; on a gap the
      // replica halts with an error exit code (the paper's observation that
      // the bug does not manifest in the debug build).
      if (!st.request) {
        static const CoverageMap::BlockId kBlkPbftViewchangeHalt = CoverageMap::InternBlock("pbft.viewchange.halt");
        coverage_.Hit(kBlkPbftViewchangeHalt);
        halted_ = true;
        return;
      }
    }
    // BUG (Table 1, release build): the committed message is accessed
    // without checking that it was ever received.
    std::string* request = MustDeref(st.request ? &*st.request : nullptr,
                                     "view change: committed message access");
    AppendJoined(&carried, ':', st.seq, st.digest, *request);
    carried.push_back(';');
    st.prepares.Insert(id_);
  }
  Multicast(Wire("NV", view_, carried));
  // Re-propose the carried requests under the new view.
  for (const SeqState& st : log_) {
    if (!st.executed && st.request) {
      Multicast(Wire("PP", view_, st.seq, st.digest, *st.request));
    }
  }
}

void PbftReplica::OnNewView(int view, std::string_view carried) {
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
  // Entries "seq:digest:payload", each ';'-terminated.
  while (!carried.empty()) {
    size_t end = carried.find(';');
    std::string_view entry = carried.substr(0, end);
    carried.remove_prefix(end == std::string_view::npos ? carried.size() : end + 1);
    std::string_view fields[3];
    if (SplitViews(entry, ':', fields) < 3) {
      continue;
    }
    auto seq = WireNumber(fields[0]);
    if (seq) {
      OnPrePrepare(view_, *seq, fields[1], fields[2]);
    }
  }
}

void PbftReplica::Retransmit() {
  if (view_change_sent_) {
    // Keep announcing the vote until the view change completes; lost VC
    // messages must not wedge the protocol.
    Multicast(Wire("VC", view_ + 1, id_));
  }
  // Re-multicast the highest-phase message for every incomplete sequence, so
  // the protocol makes progress under heavy message loss.
  for (const SeqState& st : log_) {
    if (st.executed || st.digest.empty()) {
      continue;
    }
    if (!st.request) {
      // We have evidence for this sequence but never received the payload:
      // fetch it from the peers (PBFT message retrieval).
      static const CoverageMap::BlockId kBlkPbftFetchMissingPayload = CoverageMap::InternBlock("pbft.fetch.missing_payload");
      coverage_.Hit(kBlkPbftFetchMissingPayload);
      Multicast(Wire("FETCH", st.seq, id_));
      continue;
    }
    if (st.commits.Contains(id_)) {
      Multicast(Wire("C", view_, st.seq, st.digest, id_));
    } else if (st.pre_prepared) {
      if (is_primary()) {
        Multicast(Wire("PP", view_, st.seq, st.digest, *st.request));
      } else {
        Multicast(Wire("P", view_, st.seq, st.digest, id_));
      }
    }
  }
}

void PbftReplica::Shutdown() {
  ScopedFrame frame(&libc_.stack(), kModule, "shutdown_checkpoint");
  static const CoverageMap::BlockId kBlkPbftShutdownBody = CoverageMap::InternBlock("pbft.shutdown.body");
  coverage_.Hit(kBlkPbftShutdownBody);
  std::string path = StrFormat("/pbft/replica%d.final", id_);
  frame.set_offset(Site<"pbft.shutdown.fopen">());
  VFile* f = libc_.FOpen(path, "w");
  // BUG (Table 1): the fopen result is not checked before writing the final
  // checkpoint; an injected failure hands fwrite a NULL stream.
  std::string record = StrFormat("final %lld %s\n", static_cast<long long>(executed_count_),
                                 state_digest_.c_str());
  frame.set_offset(Site<"pbft.shutdown.fwrite">());
  libc_.FWrite(record.data(), record.size(), f);
  frame.set_offset(Site<"pbft.shutdown.fclose">());
  libc_.FClose(f);
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
  snapshot.log = log_;
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
  log_ = snapshot.log;
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
  session_keys_ = DeriveSessionKeys(kPbftClientPort, config_.n);
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
    if (!Authenticates(session_keys_, src_port)) {
      continue;
    }
    const WireFields m = DecodeWire(std::string_view(buf, static_cast<size_t>(n)));
    if (m.type == WireType::kReply && m.seq == timestamp_) {
      reply_votes_.Insert(static_cast<int>(m.replica));
      if (reply_votes_.size() >= config_.f + 1) {
        ++completed_;
        outstanding_ = false;
        reply_votes_.clear();
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
    const Wire msg = RequestMessage();
    libc_.SendTo(fd_, msg.view().data(), msg.view().size(), kPbftBasePort);  // view-0 primary
    return;
  }

  // Retransmit: after the first timeout, broadcast to all replicas (which
  // forward to the primary and start suspecting it), per the protocol.
  if (++ticks_since_send_ >= 4) {
    ticks_since_send_ = 0;
    broadcast_mode_ = true;
    const Wire msg = RequestMessage();
    for (int i = 0; i < config_.n; ++i) {
      libc_.SendTo(fd_, msg.view().data(), msg.view().size(), kPbftBasePort + i);
    }
  }
}

Wire PbftClient::RequestMessage() const {
  // Request payload "<timestamp>#<client_port>#op", carried in "REQ|0|...|<port>|0".
  std::string payload;
  AppendJoined(&payload, '#', timestamp_, kPbftClientPort, "op");
  return Wire("REQ", 0, payload, kPbftClientPort, 0);
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
