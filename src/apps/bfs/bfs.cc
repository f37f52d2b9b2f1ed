#include "apps/bfs/bfs.h"

#include <algorithm>
#include <cstring>

#include "util/binary_io.h"
#include "util/errno_codes.h"
#include "util/sha1.h"
#include "util/string_util.h"
#include "vlib/sim_crash.h"

namespace lfi {
namespace {

uint32_t Site(const char* name) { return BfsBinary().SiteOffset(name); }

// Lease-key derivation: server and client independently stretch the client's
// port identity into a shared request token by iterated hashing. Like pbft's
// session keys, this is deliberately expensive so bring-up dominates a single
// workload -- the cost the warm-instance snapshot amortizes. Pure
// computation, no library calls, so it is never an injection site.
constexpr int kLeaseStretchRounds = 512;

std::string DeriveLeaseKey(int client_port) {
  std::string key = StrFormat("bfs-lease|%d", client_port);
  for (int round = 0; round < kLeaseStretchRounds; ++round) {
    key = Sha1::HexDigest(key);
  }
  return key;
}

// Deterministic '|'-free payload bytes for scripted writes.
std::string MakePayload(int client, int round, size_t len) {
  std::string base = StrFormat("c%d-r%d-", client, round);
  std::string out;
  while (out.size() < len) {
    out += base;
  }
  out.resize(len);
  return out;
}

struct BlockSpec {
  const char* id;
  bool recovery;
  int lines;
};

// The shared basic-block table; server and every client register the same
// blocks so cluster-wide recovery coverage reads as one program (the pbft
// replica convention).
constexpr BlockSpec kBfsBlocks[] = {
    // server: socket drain
    {"bfs.recv.body", false, 4},
    {"bfs.recv.err_retry", true, 3},
    {"bfs.recv.err_backoff", true, 2},
    // connection mux (both ends)
    {"bfs.mux.frame", false, 5},
    {"bfs.mux.desync", true, 3},
    {"bfs.mux.crc_drop", true, 3},
    {"bfs.mux.stall_flush", true, 2},
    {"bfs.mux.resend", true, 3},
    // server: frame send
    {"bfs.send.err_retry", true, 2},
    {"bfs.send.err_drop", true, 2},
    // server: request dispatch
    {"bfs.op.body", false, 6},
    {"bfs.op.dup_replay", true, 3},
    // server: block store
    {"bfs.block.err_open", true, 2},
    {"bfs.block.err_short", true, 3},
    {"bfs.block.retry_ok", true, 2},
    {"bfs.read.err_open", true, 2},
    {"bfs.read.err_short", true, 3},
    {"bfs.read.retry_ok", true, 2},
    // server: metadata
    {"bfs.inode.err_open", true, 2},
    {"bfs.inode.err_short", true, 2},
    {"bfs.inode.defer", true, 4},
    {"bfs.unlink.tombstone", true, 3},
    {"bfs.unlink.orphan", true, 2},
    {"bfs.sync.body", false, 5},
    {"bfs.sync.err_open", true, 2},
    {"bfs.sync.err_short", true, 2},
    {"bfs.fsync.body", false, 4},
    // client state machine
    {"bfs.client.issue", false, 3},
    {"bfs.client.op_done", false, 3},
    {"bfs.client.retry", true, 2},
    {"bfs.client.reconnect", true, 3},
    {"bfs.client.giveup", true, 2},
    {"bfs.client.resend", true, 2},
};

void RegisterBfsBlocks(CoverageMap* map) {
  for (const BlockSpec& blk : kBfsBlocks) {
    map->RegisterBlock(blk.id, blk.recovery, blk.lines);
  }
}

std::string InodePath(size_t ino) { return StrFormat("/bfs/inode%zu", ino); }
std::string BlockPath(size_t ino, size_t blk) { return StrFormat("/bfs/d%zu.%zu", ino, blk); }

std::string OkReply(int64_t seq, const std::string& data) {
  return StrFormat("%lld|OK|%s", static_cast<long long>(seq), data.c_str());
}
std::string ErrReply(int64_t seq, const char* msg) {
  return StrFormat("%lld|ERR|%s", static_cast<long long>(seq), msg);
}

}  // namespace

const AppBinary& BfsBinary() {
  static const AppBinary* binary = [] {
    AppBinaryBuilder b("bfs-server", /*filler_seed=*/71);
    b.AddSite({"bfs.server.socket", "server_init", "socket", CheckPattern::kCheckIneq, {}});
    b.AddSite({"bfs.server.bind", "server_init", "bind", CheckPattern::kCheckEqAll, {-1}});
    b.AddSite({"bfs.server.recvfrom", "serve_requests", "recvfrom", CheckPattern::kCheckIneq, {}});
    b.AddSite({"bfs.server.sendto", "send_frame", "sendto", CheckPattern::kCheckIneq, {}});
    b.AddSite({"bfs.block.fopen", "write_block", "fopen", CheckPattern::kCheckZeroEq, {}});
    b.AddSite({"bfs.block.fwrite", "write_block", "fwrite", CheckPattern::kCheckIneq, {}});
    b.AddSite({"bfs.block.fclose", "write_block", "fclose", CheckPattern::kCheckEqAll, {-1}});
    b.AddSite({"bfs.read.fopen", "read_block", "fopen", CheckPattern::kCheckZeroEq, {}});
    b.AddSite({"bfs.read.fread", "read_block", "fread", CheckPattern::kCheckIneq, {}});
    b.AddSite({"bfs.read.fclose", "read_block", "fclose", CheckPattern::kCheckEqAll, {-1}});
    // The inode path *checks* its stream calls -- its defer recovery is where
    // the silent-corruption bug hides, out of the analyzer's reach.
    b.AddSite({"bfs.inode.fopen", "write_inode", "fopen", CheckPattern::kCheckZeroEq, {}});
    b.AddSite({"bfs.inode.fwrite", "write_inode", "fwrite", CheckPattern::kCheckIneq, {}});
    b.AddSite({"bfs.inode.fclose", "write_inode", "fclose", CheckPattern::kCheckEqAll, {-1}});
    b.AddSite({"bfs.unlink.blocks", "remove_file", "unlink", CheckPattern::kCheckEqAll, {-1}});
    b.AddSite({"bfs.unlink.unlink", "remove_file", "unlink", CheckPattern::kCheckEqAll, {-1}});
    b.AddSite({"bfs.meta.fopen", "sync_meta", "fopen", CheckPattern::kCheckZeroEq, {}});
    b.AddSite({"bfs.meta.fwrite", "sync_meta", "fwrite", CheckPattern::kCheckIneq, {}});
    b.AddSite({"bfs.meta.fclose", "sync_meta", "fclose", CheckPattern::kCheckEqAll, {-1}});
    // The FSYNC durability barrier ignores its fopen and fwrite results: the
    // unchecked sites the analyzer flags, and the crash bug behind them.
    b.AddSite({"bfs.super.fopen", "flush_super", "fopen", CheckPattern::kNoCheck, {}});
    b.AddSite({"bfs.super.fwrite", "flush_super", "fwrite", CheckPattern::kNoCheck, {}});
    b.AddSite({"bfs.super.fclose", "flush_super", "fclose", CheckPattern::kCheckEqAll, {-1}});
    return new AppBinary(b.Build());
  }();
  return *binary;
}

// --- BfsMux ----------------------------------------------------------------

std::string BfsMux::EncodeFrame(const std::string& payload) {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(Crc32(payload));
  w.PutBytes(payload);
  return w.TakeBuffer();
}

void BfsMux::Accept(int src_port, const std::string& bytes) {
  Buffer& buf = buffers_[src_port];
  buf.bytes += bytes;
  buf.stall = 0;  // progress, even if no frame completes yet
  ExtractFrames(src_port, &buf);
}

void BfsMux::ExtractFrames(int src_port, Buffer* buf) {
  while (buf->bytes.size() >= 8) {
    ByteReader r(buf->bytes);
    uint32_t len = r.GetU32();
    uint32_t crc = r.GetU32();
    if (len > kBfsMaxFrame) {
      // A partial transfer desynchronized the stream: the length field is
      // mid-frame garbage. Drop the buffer; the request/reply retry protocol
      // re-fills it from a clean frame boundary.
      coverage_->Hit("bfs.mux.desync");
      buf->bytes.clear();
      return;
    }
    if (buf->bytes.size() < 8 + len) {
      return;  // incomplete frame: wait for the rest (or a stall flush)
    }
    std::string payload = buf->bytes.substr(8, len);
    if (Crc32(payload) != crc) {
      coverage_->Hit("bfs.mux.crc_drop");
      buf->bytes.clear();
      return;
    }
    coverage_->Hit("bfs.mux.frame");
    buf->bytes.erase(0, 8 + len);
    ready_.emplace_back(src_port, std::move(payload));
  }
}

void BfsMux::Tick(int stall_ticks) {
  for (auto& [port, buf] : buffers_) {
    if (buf.bytes.empty()) {
      buf.stall = 0;
      continue;
    }
    if (++buf.stall >= stall_ticks) {
      // The tail of a frame never arrived (partial send/recv ate it).
      coverage_->Hit("bfs.mux.stall_flush");
      buf.bytes.clear();
      buf.stall = 0;
    }
  }
}

void BfsMux::ClearPeer(int src_port) { buffers_.erase(src_port); }

std::vector<std::pair<int, std::string>> BfsMux::TakeFrames() {
  std::vector<std::pair<int, std::string>> out;
  out.swap(ready_);
  return out;
}

BfsMux::Snapshot BfsMux::TakeSnapshot() const {
  Snapshot snapshot;
  for (const auto& [port, buf] : buffers_) {
    snapshot.buffers[port] = {buf.bytes, buf.stall};
  }
  snapshot.ready = ready_;
  return snapshot;
}

void BfsMux::Restore(const Snapshot& snapshot) {
  buffers_.clear();
  for (const auto& [port, state] : snapshot.buffers) {
    buffers_[port] = Buffer{state.first, state.second};
  }
  ready_ = snapshot.ready;
}

// --- BfsOracle -------------------------------------------------------------

void BfsOracle::OnOpenAck(const std::string& name) { files_[name].exists = true; }

void BfsOracle::OnWriteAck(const std::string& name, size_t offset, const std::string& data) {
  FileModel& f = files_[name];
  if (f.indeterminate) {
    return;
  }
  f.exists = true;
  if (f.content.size() < offset) {
    f.content.resize(offset, '.');  // same gap fill as the server
  }
  if (f.content.size() < offset + data.size()) {
    f.content.resize(offset + data.size());
  }
  f.content.replace(offset, data.size(), data);
}

void BfsOracle::OnReadAck(const std::string& name, size_t offset, size_t len,
                          const std::string& data) {
  auto it = files_.find(name);
  if (it == files_.end() || it->second.indeterminate || !it->second.exists) {
    return;
  }
  const std::string& content = it->second.content;
  std::string expected;
  if (offset < content.size()) {
    expected = content.substr(offset, std::min(len, content.size() - offset));
  }
  if (data != expected) {
    errors_.push_back(StrFormat("read %s@%zu+%zu diverges from the acknowledged write history",
                                name.c_str(), offset, len));
  }
}

void BfsOracle::OnUnlinkAck(const std::string& name) {
  FileModel& f = files_[name];
  f.exists = false;
  f.content.clear();
}

void BfsOracle::OnOpFailed(const std::string& name) {
  if (!name.empty()) {
    files_[name].indeterminate = true;
  }
}

void BfsOracle::Audit(const VirtualFs& fs) {
  // Decode the store straight from the filesystem -- no library calls, so
  // the audit itself can never be injected into.
  struct DiskFile {
    std::string content;
    bool crc_ok = true;
  };
  std::map<std::string, DiskFile> disk;
  for (const std::string& entry : fs.ListDir("/bfs")) {
    if (!StartsWith(entry, "inode")) {
      continue;
    }
    const VfsFile* file = fs.GetFile("/bfs/" + entry);
    if (file == nullptr) {
      continue;
    }
    std::vector<std::string> parts = Split(file->data, '|');
    if (parts.size() != 4) {
      continue;  // malformed record: the model comparison reports the loss
    }
    std::string payload = parts[0] + "|" + parts[1] + "|" + parts[2];
    std::optional<int64_t> reccrc = ParseInt(parts[3]);
    if (!reccrc || static_cast<uint32_t>(*reccrc) != Crc32(payload)) {
      continue;
    }
    if (parts[0] == "!free") {
      continue;  // tombstoned slot
    }
    std::optional<int64_t> size = ParseInt(parts[1]);
    std::optional<int64_t> datacrc = ParseInt(parts[2]);
    std::optional<int64_t> ino = ParseInt(entry.substr(5));
    if (!size || *size < 0 || !datacrc || !ino) {
      continue;
    }
    DiskFile df;
    for (size_t blk = 0; df.content.size() < static_cast<size_t>(*size); ++blk) {
      const VfsFile* b = fs.GetFile(BlockPath(static_cast<size_t>(*ino), blk));
      if (b == nullptr) {
        break;
      }
      df.content += b->data;
    }
    if (df.content.size() > static_cast<size_t>(*size)) {
      df.content.resize(static_cast<size_t>(*size));
    }
    df.crc_ok = df.content.size() == static_cast<size_t>(*size) &&
                Crc32(df.content) == static_cast<uint32_t>(*datacrc);
    disk[parts[0]] = std::move(df);
  }

  // Compare every determinate model file; map order keeps messages stable.
  for (const auto& [name, model] : files_) {
    if (model.indeterminate) {
      continue;
    }
    auto it = disk.find(name);
    if (!model.exists) {
      if (it != disk.end()) {
        errors_.push_back(StrFormat("remount: unlinked %s still in the store", name.c_str()));
      }
      continue;
    }
    if (it == disk.end()) {
      errors_.push_back(StrFormat("remount: %s missing from the store", name.c_str()));
    } else if (!it->second.crc_ok) {
      errors_.push_back(StrFormat("remount: %s data diverges from its inode CRC", name.c_str()));
    } else if (it->second.content != model.content) {
      errors_.push_back(StrFormat("remount: %s holds %zu byte(s), acknowledged history says %zu",
                                  name.c_str(), it->second.content.size(),
                                  model.content.size()));
    }
  }
}

// --- BfsServer -------------------------------------------------------------

BfsServer::BfsServer(VirtualFs* fs, VirtualNet* net, const BfsConfig& config)
    : libc_(fs, net, "bfs-server"), config_(config), mux_(&coverage_) {
  RegisterBfsBlocks(&coverage_);
}

bool BfsServer::Start() {
  {
    ScopedFrame frame(&libc_.stack(), kModule, "server_init");
    frame.set_offset(Site("bfs.server.socket"));
    fd_ = libc_.Socket();
    if (fd_ < 0) {
      return false;
    }
    frame.set_offset(Site("bfs.server.bind"));
    if (libc_.BindSocket(fd_, kBfsServerPort) == -1) {
      return false;
    }
  }
  // Format the volume and derive every client's lease key. Bring-up runs
  // before any test controller installs, so none of this is injectable --
  // the same disarmed-bring-up contract as pbft's BuildStartedCluster.
  libc_.MkDir("/bfs");
  VFile* f = libc_.FOpen("/bfs/super", "w");
  if (f != nullptr) {
    std::string record = SuperRecord();
    libc_.FWrite(record.data(), record.size(), f);
    libc_.FClose(f);
  }
  for (int i = 0; i < config_.clients; ++i) {
    int port = kBfsClientBasePort + i;
    client_keys_[port] = DeriveLeaseKey(port);
  }
  return true;
}

void BfsServer::Step() {
  {
    ScopedFrame frame(&libc_.stack(), kModule, "serve_requests");
    int consecutive_failures = 0;
    for (int budget = 0; budget < 256; ++budget) {
      char buf[2048];
      int src_port = -1;
      frame.set_offset(Site("bfs.server.recvfrom"));
      long n = libc_.RecvFrom(fd_, buf, sizeof(buf), &src_port);
      if (n < 0) {
        if (libc_.verrno() == kEAGAIN) {
          break;  // drained
        }
        coverage_.Hit("bfs.recv.err_retry");
        if (++consecutive_failures >= 8) {
          // Persistent receive failure: back off for this tick rather than
          // spinning; queued requests survive until the next drain.
          coverage_.Hit("bfs.recv.err_backoff");
          break;
        }
        continue;
      }
      consecutive_failures = 0;
      coverage_.Hit("bfs.recv.body");
      mux_.Accept(src_port, std::string(buf, static_cast<size_t>(n)));
    }
  }
  for (auto& [src_port, payload] : mux_.TakeFrames()) {
    HandleRequest(payload, src_port);
  }
  mux_.Tick(config_.stall_ticks);
}

bool BfsServer::SendFrame(int dst_port, const std::string& payload) {
  std::string wire = BfsMux::EncodeFrame(payload);
  ScopedFrame frame(&libc_.stack(), kModule, "send_frame");
  size_t off = 0;
  int failures = 0;
  while (off < wire.size()) {
    frame.set_offset(Site("bfs.server.sendto"));
    long n = libc_.SendTo(fd_, wire.data() + off, wire.size() - off, dst_port);
    if (n < 0) {
      coverage_.Hit("bfs.send.err_retry");
      if (++failures >= 4) {
        // Give up on this reply; the client's retry re-requests it and the
        // dedup cache resends without reapplying.
        coverage_.Hit("bfs.send.err_drop");
        return false;
      }
      continue;
    }
    if (static_cast<size_t>(n) < wire.size() - off) {
      // Short write: the fabric accepted a prefix; resend from the honest
      // byte count, exactly what the partial-send fault site demands.
      coverage_.Hit("bfs.mux.resend");
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

void BfsServer::HandleRequest(const std::string& payload, int src_port) {
  std::vector<std::string> parts = Split(payload, '|');
  if (parts.size() < 5) {
    return;
  }
  std::optional<int64_t> cid = ParseInt(parts[0]);
  std::optional<int64_t> seq = ParseInt(parts[1]);
  if (!cid || !seq) {
    return;
  }
  auto key = client_keys_.find(src_port);
  if (key == client_keys_.end() || key->second.substr(0, 8) != parts[2]) {
    return;  // unauthenticated peer
  }
  Dedup& dd = dedup_[src_port];
  if (*seq == dd.last_seq) {
    // Lost-reply retry: resend the cached reply, never reapply the op.
    coverage_.Hit("bfs.op.dup_replay");
    SendFrame(src_port, dd.last_reply);
    return;
  }
  if (*seq < dd.last_seq) {
    return;  // stale duplicate
  }
  coverage_.Hit("bfs.op.body");
  std::string reply = ApplyOp(*seq, parts, src_port);
  dd.last_seq = *seq;
  dd.last_reply = reply;
  ++applied_ops_;
  SendFrame(src_port, reply);
  if (++ops_since_sync_ >= config_.sync_interval) {
    ops_since_sync_ = 0;
    SyncMeta();
  }
}

std::string BfsServer::ApplyOp(int64_t seq, const std::vector<std::string>& parts,
                               int src_port) {
  (void)src_port;
  const std::string& op = parts[3];
  if (op == "OPEN") {
    return OpOpen(seq, parts[4]);
  }
  if (op == "UNLINK") {
    return OpUnlink(seq, parts[4]);
  }
  std::optional<int64_t> handle = ParseInt(parts[4]);
  if (!handle) {
    return ErrReply(seq, "badreq");
  }
  if (op == "FSYNC") {
    return OpFsync(seq, static_cast<int>(*handle));
  }
  if (op == "CLOSE") {
    return OpClose(seq, static_cast<int>(*handle));
  }
  if (parts.size() < 7) {
    return ErrReply(seq, "badreq");
  }
  std::optional<int64_t> offset = ParseInt(parts[5]);
  if (!offset || *offset < 0) {
    return ErrReply(seq, "badreq");
  }
  if (op == "WRITE") {
    return OpWrite(seq, static_cast<int>(*handle), static_cast<size_t>(*offset), parts[6]);
  }
  if (op == "READ") {
    std::optional<int64_t> len = ParseInt(parts[6]);
    if (!len || *len < 0) {
      return ErrReply(seq, "badreq");
    }
    return OpRead(seq, static_cast<int>(*handle), static_cast<size_t>(*offset),
                  static_cast<size_t>(*len));
  }
  return ErrReply(seq, "badop");
}

std::string BfsServer::OpOpen(int64_t seq, const std::string& name) {
  for (size_t i = 0; i < inodes_.size(); ++i) {
    if (inodes_[i].used && inodes_[i].name == name) {
      int h = next_handle_++;
      handles_[h] = i;
      return OkReply(seq, StrFormat("%d", h));
    }
  }
  size_t ino = inodes_.size();
  inodes_.push_back(Inode{name, "", true});
  int h = next_handle_++;
  handles_[h] = ino;
  if (!WriteInode(ino)) {
    // Short metadata write: defer the rewrite to the next metadata sync.
    // BUG (Table 1): this records the client's connection *handle* where the
    // inode number belongs; SyncMeta() skips ids it does not recognize, so
    // the deferred rewrite never happens and the on-disk inode stays stale.
    // The client still gets its ACK -- silent corruption the consistency
    // oracle surfaces at remount.
    coverage_.Hit("bfs.inode.defer");
    dirty_inodes_.insert(static_cast<size_t>(h));
  }
  return OkReply(seq, StrFormat("%d", h));
}

std::string BfsServer::OpWrite(int64_t seq, int handle, size_t offset,
                               const std::string& data) {
  auto it = handles_.find(handle);
  if (it == handles_.end()) {
    return ErrReply(seq, "badhandle");
  }
  size_t ino = it->second;
  Inode& nd = inodes_[ino];
  std::string next = nd.content;
  if (next.size() < offset) {
    next.resize(offset, '.');
  }
  if (next.size() < offset + data.size()) {
    next.resize(offset + data.size());
  }
  next.replace(offset, data.size(), data);
  if (!data.empty()) {
    size_t first = offset / kBfsBlockSize;
    size_t last = (offset + data.size() - 1) / kBfsBlockSize;
    for (size_t blk = first; blk <= last; ++blk) {
      if (!WriteBlock(ino, blk, next.substr(blk * kBfsBlockSize, kBfsBlockSize))) {
        // Data did not make it down after retry: fail the op client-visibly
        // and keep the in-memory image at the last acknowledged state.
        return ErrReply(seq, "io");
      }
    }
  }
  nd.content = std::move(next);
  if (!WriteInode(ino)) {
    // Same deferred-rewrite recovery as OpOpen -- and the same BUG: the
    // handle goes into the dirty set instead of the inode number.
    coverage_.Hit("bfs.inode.defer");
    dirty_inodes_.insert(static_cast<size_t>(handle));
  }
  return OkReply(seq, "");
}

std::string BfsServer::OpRead(int64_t seq, int handle, size_t offset, size_t len) {
  auto it = handles_.find(handle);
  if (it == handles_.end()) {
    return ErrReply(seq, "badhandle");
  }
  size_t ino = it->second;
  const Inode& nd = inodes_[ino];
  if (offset >= nd.content.size() || len == 0) {
    return OkReply(seq, "");
  }
  size_t n = std::min(len, nd.content.size() - offset);
  // Serve from the store, not memory: corruption on disk must be visible in
  // replies, or the oracle's during-run checks would test nothing.
  size_t first = offset / kBfsBlockSize;
  size_t last = (offset + n - 1) / kBfsBlockSize;
  std::string assembled;
  for (size_t blk = first; blk <= last; ++blk) {
    size_t want = std::min(kBfsBlockSize, nd.content.size() - blk * kBfsBlockSize);
    std::optional<std::string> piece = ReadBlock(ino, blk, want);
    if (!piece) {
      return ErrReply(seq, "io");
    }
    assembled += *piece;
  }
  return OkReply(seq, assembled.substr(offset - first * kBfsBlockSize, n));
}

std::string BfsServer::OpFsync(int64_t seq, int handle) {
  if (handles_.find(handle) == handles_.end()) {
    return ErrReply(seq, "badhandle");
  }
  SyncMeta();
  FlushSuper();
  return OkReply(seq, "");
}

std::string BfsServer::OpUnlink(int64_t seq, const std::string& name) {
  size_t ino = inodes_.size();
  for (size_t i = 0; i < inodes_.size(); ++i) {
    if (inodes_[i].used && inodes_[i].name == name) {
      ino = i;
      break;
    }
  }
  if (ino == inodes_.size()) {
    return ErrReply(seq, "noent");
  }
  Inode& nd = inodes_[ino];
  size_t nblocks = (nd.content.size() + kBfsBlockSize - 1) / kBfsBlockSize;
  bool inode_gone = false;
  {
    ScopedFrame frame(&libc_.stack(), kModule, "remove_file");
    for (size_t blk = 0; blk < nblocks; ++blk) {
      frame.set_offset(Site("bfs.unlink.blocks"));
      if (libc_.Unlink(BlockPath(ino, blk)) != 0) {
        // Orphaned data block: harmless (nothing references it), collected
        // by the next format.
        coverage_.Hit("bfs.unlink.orphan");
      }
    }
    frame.set_offset(Site("bfs.unlink.unlink"));
    inode_gone = libc_.Unlink(InodePath(ino)) == 0;
  }
  nd.used = false;
  nd.name.clear();
  nd.content.clear();
  for (auto hit = handles_.begin(); hit != handles_.end();) {
    hit = hit->second == ino ? handles_.erase(hit) : std::next(hit);
  }
  if (!inode_gone) {
    // Failed metadata unlink: persist a free-slot tombstone instead, so a
    // remount cannot resurrect the file.
    coverage_.Hit("bfs.unlink.tombstone");
    if (!WriteInode(ino)) {
      // Not durably removed; defer (by inode number -- this path gets it
      // right) and report the op failed rather than lie about durability.
      dirty_inodes_.insert(ino);
      return ErrReply(seq, "busy");
    }
  }
  return OkReply(seq, "");
}

std::string BfsServer::OpClose(int64_t seq, int handle) {
  if (handles_.erase(handle) == 0) {
    return ErrReply(seq, "badhandle");
  }
  return OkReply(seq, "");
}

bool BfsServer::WriteBlock(size_t ino, size_t blk, const std::string& data) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    ScopedFrame frame(&libc_.stack(), kModule, "write_block");
    frame.set_offset(Site("bfs.block.fopen"));
    VFile* f = libc_.FOpen(BlockPath(ino, blk), "w");
    if (f == nullptr) {
      coverage_.Hit("bfs.block.err_open");
      continue;
    }
    frame.set_offset(Site("bfs.block.fwrite"));
    unsigned long wrote = libc_.FWrite(data.data(), data.size(), f);
    frame.set_offset(Site("bfs.block.fclose"));
    libc_.FClose(f);
    if (wrote == data.size()) {
      if (attempt > 0) {
        coverage_.Hit("bfs.block.retry_ok");
      }
      return true;
    }
    // Short write: retry the whole block -- fixed-size blocks make the
    // rewrite idempotent.
    coverage_.Hit("bfs.block.err_short");
  }
  return false;
}

std::optional<std::string> BfsServer::ReadBlock(size_t ino, size_t blk, size_t want) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    ScopedFrame frame(&libc_.stack(), kModule, "read_block");
    frame.set_offset(Site("bfs.read.fopen"));
    VFile* f = libc_.FOpen(BlockPath(ino, blk), "r");
    if (f == nullptr) {
      coverage_.Hit("bfs.read.err_open");
      continue;
    }
    char buf[kBfsBlockSize];
    frame.set_offset(Site("bfs.read.fread"));
    unsigned long n = libc_.FRead(buf, want, f);
    frame.set_offset(Site("bfs.read.fclose"));
    libc_.FClose(f);
    if (n == want) {
      if (attempt > 0) {
        coverage_.Hit("bfs.read.retry_ok");
      }
      return std::string(buf, want);
    }
    coverage_.Hit("bfs.read.err_short");
  }
  return std::nullopt;
}

bool BfsServer::WriteInode(size_t ino) {
  const Inode& nd = inodes_[ino];
  std::string payload =
      nd.used ? StrFormat("%s|%zu|%u", nd.name.c_str(), nd.content.size(), Crc32(nd.content))
              : StrFormat("!free|0|%u", Crc32(""));
  std::string record = payload + StrFormat("|%u", Crc32(payload));
  ScopedFrame frame(&libc_.stack(), kModule, "write_inode");
  frame.set_offset(Site("bfs.inode.fopen"));
  VFile* f = libc_.FOpen(InodePath(ino), "w");
  if (f == nullptr) {
    coverage_.Hit("bfs.inode.err_open");
    return false;
  }
  frame.set_offset(Site("bfs.inode.fwrite"));
  unsigned long wrote = libc_.FWrite(record.data(), record.size(), f);
  frame.set_offset(Site("bfs.inode.fclose"));
  libc_.FClose(f);
  if (wrote != record.size()) {
    coverage_.Hit("bfs.inode.err_short");
    return false;
  }
  return true;
}

void BfsServer::SyncMeta() {
  ScopedFrame frame(&libc_.stack(), kModule, "sync_meta");
  coverage_.Hit("bfs.sync.body");
  std::set<size_t> deferred;
  deferred.swap(dirty_inodes_);
  for (size_t id : deferred) {
    if (id >= inodes_.size()) {
      continue;  // id no longer names a live slot; nothing to rewrite
    }
    if (!WriteInode(id)) {
      dirty_inodes_.insert(id);  // still failing: keep deferring
    }
  }
  ++generation_;
  std::string record = SuperRecord();
  frame.set_offset(Site("bfs.meta.fopen"));
  VFile* f = libc_.FOpen("/bfs/super", "w");
  if (f == nullptr) {
    coverage_.Hit("bfs.sync.err_open");
    return;
  }
  frame.set_offset(Site("bfs.meta.fwrite"));
  unsigned long wrote = libc_.FWrite(record.data(), record.size(), f);
  frame.set_offset(Site("bfs.meta.fclose"));
  libc_.FClose(f);
  if (wrote != record.size()) {
    coverage_.Hit("bfs.sync.err_short");
  }
}

void BfsServer::FlushSuper() {
  ScopedFrame frame(&libc_.stack(), kModule, "flush_super");
  coverage_.Hit("bfs.fsync.body");
  ++generation_;
  std::string record = SuperRecord();
  frame.set_offset(Site("bfs.super.fopen"));
  // BUG (Table 1): the durability barrier never checks fopen -- an injected
  // failure hands FWrite a NULL stream and the server segfaults mid-FSYNC.
  VFile* f = libc_.FOpen("/bfs/super", "w");
  frame.set_offset(Site("bfs.super.fwrite"));
  libc_.FWrite(record.data(), record.size(), f);
  frame.set_offset(Site("bfs.super.fclose"));
  libc_.FClose(f);
}

std::string BfsServer::SuperRecord() const {
  size_t live = 0;
  for (const Inode& nd : inodes_) {
    live += nd.used ? 1 : 0;
  }
  std::string payload =
      StrFormat("bfs1|%llu|%zu", static_cast<unsigned long long>(generation_), live);
  return payload + StrFormat("|%u", Crc32(payload));
}

BfsServer::Snapshot BfsServer::TakeSnapshot() const {
  return Snapshot{libc_.TakeSnapshot(),
                  coverage_,
                  mux_.TakeSnapshot(),
                  fd_,
                  client_keys_,
                  inodes_,
                  handles_,
                  next_handle_,
                  dirty_inodes_,
                  dedup_,
                  generation_,
                  applied_ops_,
                  ops_since_sync_};
}

bool BfsServer::Restore(const Snapshot& snapshot) {
  if (!libc_.Restore(snapshot.libc)) {
    return false;
  }
  coverage_ = snapshot.coverage;
  mux_.Restore(snapshot.mux);
  fd_ = snapshot.fd;
  client_keys_ = snapshot.client_keys;
  inodes_ = snapshot.inodes;
  handles_ = snapshot.handles;
  next_handle_ = snapshot.next_handle;
  dirty_inodes_ = snapshot.dirty_inodes;
  dedup_ = snapshot.dedup;
  generation_ = snapshot.generation;
  applied_ops_ = snapshot.applied_ops;
  ops_since_sync_ = snapshot.ops_since_sync;
  return true;
}

// --- BfsClient -------------------------------------------------------------

BfsClient::BfsClient(VirtualFs* fs, VirtualNet* net, int id, const BfsConfig& config,
                     BfsOracle* oracle)
    : libc_(fs, net, StrFormat("bfs-client-%d", id)),
      config_(config),
      mux_(&coverage_),
      oracle_(oracle),
      id_(id) {
  RegisterBfsBlocks(&coverage_);
  handles_.assign(3, -1);
  BuildScript();
}

void BfsClient::BuildScript() {
  const std::string priv = StrFormat("/c%d.dat", id_);
  auto add = [&](BfsOp op) { script_.push_back(std::move(op)); };
  // Private phase: sequential writes read back after each round, then an
  // interior overwrite that dirties already-written blocks.
  add({BfsOp::kOpen, priv, 0, 0, "", 0, -1});
  for (int k = 0; k < config_.rounds; ++k) {
    add({BfsOp::kWrite, priv, 0, static_cast<size_t>(k) * 40, MakePayload(id_, k, 40), 0, -1});
    add({BfsOp::kRead, priv, 0, static_cast<size_t>(k) * 40, "", 40, -1});
  }
  add({BfsOp::kWrite, priv, 0, 16, MakePayload(id_, 90, 24), 0, -1});
  add({BfsOp::kRead, priv, 0, 0, "", static_cast<size_t>(config_.rounds) * 40, -1});
  add({BfsOp::kFsync, priv, 0, 0, "", 0, -1});
  if (id_ == 0) {
    // Shared phase, producer side; then the unlink surface on a temp file.
    add({BfsOp::kOpen, "/shared.dat", 1, 0, "", 0, -1});
    add({BfsOp::kWrite, "/shared.dat", 1, 0, MakePayload(0, 77, 48), 0, -1});
    add({BfsOp::kFsync, "/shared.dat", 1, 0, "", 0, -1});
    add({BfsOp::kClose, "", 1, 0, "", 0, -1});
    add({BfsOp::kOpen, "/t0.tmp", 2, 0, "", 0, -1});
    add({BfsOp::kWrite, "/t0.tmp", 2, 0, MakePayload(0, 55, 20), 0, -1});
    add({BfsOp::kFsync, "/t0.tmp", 2, 0, "", 0, -1});
    add({BfsOp::kClose, "", 2, 0, "", 0, -1});
    add({BfsOp::kUnlink, "/t0.tmp", 0, 0, "", 0, -1});
  } else {
    // Shared phase, consumer side: gated on the producer finishing, so the
    // cross-client read order is deterministic.
    add({BfsOp::kBarrier, "", 0, 0, "", 0, 0});
    add({BfsOp::kOpen, "/shared.dat", 1, 0, "", 0, -1});
    add({BfsOp::kRead, "/shared.dat", 1, 0, "", 48, -1});
    add({BfsOp::kClose, "", 1, 0, "", 0, -1});
  }
  add({BfsOp::kClose, "", 0, 0, "", 0, -1});
}

bool BfsClient::Start() {
  fd_ = libc_.Socket();
  if (fd_ < 0) {
    return false;
  }
  if (libc_.BindSocket(fd_, kBfsClientBasePort + id_) == -1) {
    return false;
  }
  token_ = DeriveLeaseKey(kBfsClientBasePort + id_).substr(0, 8);
  return true;
}

void BfsClient::Step() {
  for (int budget = 0; budget < 64; ++budget) {
    char buf[2048];
    int src_port = -1;
    long n = libc_.RecvFrom(fd_, buf, sizeof(buf), &src_port);
    if (n < 0) {
      break;
    }
    if (src_port != kBfsServerPort) {
      continue;
    }
    mux_.Accept(src_port, std::string(buf, static_cast<size_t>(n)));
  }
  for (auto& [src_port, payload] : mux_.TakeFrames()) {
    (void)src_port;
    OnReply(payload);
  }
  mux_.Tick(config_.stall_ticks);
  if (Done()) {
    return;
  }
  const BfsOp& op = script_[script_pos_];
  if (op.kind == BfsOp::kBarrier) {
    if (oracle_->ClientDone(op.wait_client)) {
      Advance();
    }
    return;
  }
  if (!outstanding_) {
    IssueCurrent();
    return;
  }
  if (++ticks_since_send_ < config_.retry_interval) {
    return;
  }
  ticks_since_send_ = 0;
  ++attempts_;
  if (attempts_ > config_.max_retries) {
    // The server is unreachable (or this op keeps failing in flight): mark
    // the op failed and move on; the oracle treats the file as
    // indeterminate from here.
    coverage_.Hit("bfs.client.giveup");
    CompleteOp(false, "");
    return;
  }
  if (attempts_ % 3 == 0) {
    // Reconnect: drop the half-assembled reply stream before retrying, as a
    // real client would after reopening its connection.
    coverage_.Hit("bfs.client.reconnect");
    mux_.ClearPeer(kBfsServerPort);
  }
  coverage_.Hit("bfs.client.retry");
  SendRequest(pending_request_);
}

void BfsClient::IssueCurrent() {
  const BfsOp& op = script_[script_pos_];
  int64_t seq = ++seq_;
  std::string req;
  switch (op.kind) {
    case BfsOp::kOpen:
      req = StrFormat("%d|%lld|%s|OPEN|%s", id_, static_cast<long long>(seq), token_.c_str(),
                      op.name.c_str());
      break;
    case BfsOp::kUnlink:
      req = StrFormat("%d|%lld|%s|UNLINK|%s", id_, static_cast<long long>(seq), token_.c_str(),
                      op.name.c_str());
      break;
    case BfsOp::kWrite:
    case BfsOp::kRead:
    case BfsOp::kFsync:
    case BfsOp::kClose: {
      int h = handles_[static_cast<size_t>(op.slot)];
      if (h < 0) {
        // The open that should have filled this slot failed; the dependent
        // op cannot run.
        CompleteOp(false, "");
        return;
      }
      if (op.kind == BfsOp::kWrite) {
        req = StrFormat("%d|%lld|%s|WRITE|%d|%zu|%s", id_, static_cast<long long>(seq),
                        token_.c_str(), h, op.offset, op.data.c_str());
      } else if (op.kind == BfsOp::kRead) {
        req = StrFormat("%d|%lld|%s|READ|%d|%zu|%zu", id_, static_cast<long long>(seq),
                        token_.c_str(), h, op.offset, op.len);
      } else if (op.kind == BfsOp::kFsync) {
        req = StrFormat("%d|%lld|%s|FSYNC|%d", id_, static_cast<long long>(seq), token_.c_str(),
                        h);
      } else {
        req = StrFormat("%d|%lld|%s|CLOSE|%d", id_, static_cast<long long>(seq), token_.c_str(),
                        h);
      }
      break;
    }
    case BfsOp::kBarrier:
      return;  // handled in Step
  }
  coverage_.Hit("bfs.client.issue");
  pending_request_ = req;
  outstanding_ = true;
  attempts_ = 1;
  ticks_since_send_ = 0;
  SendRequest(req);
}

void BfsClient::SendRequest(const std::string& request) {
  std::string wire = BfsMux::EncodeFrame(request);
  size_t off = 0;
  int stalls = 0;
  while (off < wire.size() && stalls < 4) {
    long n = libc_.SendTo(fd_, wire.data() + off, wire.size() - off, kBfsServerPort);
    if (n <= 0) {
      ++stalls;
      continue;
    }
    if (static_cast<size_t>(n) < wire.size() - off) {
      coverage_.Hit("bfs.client.resend");
    }
    off += static_cast<size_t>(n);
  }
}

void BfsClient::OnReply(const std::string& payload) {
  if (!outstanding_) {
    return;
  }
  std::vector<std::string> parts = Split(payload, '|');
  if (parts.size() < 2) {
    return;
  }
  std::optional<int64_t> seq = ParseInt(parts[0]);
  if (!seq || *seq != seq_) {
    return;  // reply to an earlier incarnation of this request stream
  }
  CompleteOp(parts[1] == "OK", parts.size() >= 3 ? parts[2] : "");
}

void BfsClient::CompleteOp(bool ok, const std::string& reply_data) {
  const BfsOp& op = script_[script_pos_];
  outstanding_ = false;
  const std::string file = OpFile(script_pos_);
  if (!ok) {
    if (!file.empty()) {
      oracle_->OnOpFailed(file);
    }
  } else {
    ++completed_ops_;
    coverage_.Hit("bfs.client.op_done");
    switch (op.kind) {
      case BfsOp::kOpen: {
        std::optional<int64_t> h = ParseInt(reply_data);
        handles_[static_cast<size_t>(op.slot)] = h ? static_cast<int>(*h) : -1;
        oracle_->OnOpenAck(op.name);
        break;
      }
      case BfsOp::kWrite:
        oracle_->OnWriteAck(file, op.offset, op.data);
        break;
      case BfsOp::kRead:
        oracle_->OnReadAck(file, op.offset, op.len, reply_data);
        break;
      case BfsOp::kUnlink:
        oracle_->OnUnlinkAck(op.name);
        break;
      case BfsOp::kFsync:
      case BfsOp::kClose:
      case BfsOp::kBarrier:
        break;
    }
  }
  Advance();
}

std::string BfsClient::OpFile(size_t pos) const { return script_[pos].name; }

void BfsClient::Advance() {
  ++script_pos_;
  attempts_ = 0;
  ticks_since_send_ = 0;
  if (Done()) {
    oracle_->MarkClientDone(id_);
  }
}

BfsClient::Snapshot BfsClient::TakeSnapshot() const {
  return Snapshot{libc_.TakeSnapshot(),
                  coverage_,
                  mux_.TakeSnapshot(),
                  fd_,
                  token_,
                  script_pos_,
                  seq_,
                  outstanding_,
                  attempts_,
                  ticks_since_send_,
                  handles_,
                  completed_ops_};
}

bool BfsClient::Restore(const Snapshot& snapshot) {
  if (!libc_.Restore(snapshot.libc)) {
    return false;
  }
  coverage_ = snapshot.coverage;
  mux_.Restore(snapshot.mux);
  fd_ = snapshot.fd;
  token_ = snapshot.token;
  script_pos_ = snapshot.script_pos;
  seq_ = snapshot.seq;
  outstanding_ = snapshot.outstanding;
  attempts_ = snapshot.attempts;
  ticks_since_send_ = snapshot.ticks_since_send;
  handles_ = snapshot.handles;
  completed_ops_ = snapshot.completed_ops;
  pending_request_.clear();
  if (outstanding_) {
    // The request text is a pure function of the op and seq; rebuilding it
    // keeps the snapshot free of redundant state.
    outstanding_ = false;
    ticks_since_send_ = config_.retry_interval;  // reissue on the next tick
  }
  return true;
}

// --- BfsCluster ------------------------------------------------------------

BfsCluster::BfsCluster(VirtualFs* fs, VirtualNet* net, const BfsConfig& config)
    : config_(config), fs_(fs), net_(net), oracle_(config.clients) {
  net_->set_tick_delivery(true);
  server_ = std::make_unique<BfsServer>(fs, net, config_);
  for (int i = 0; i < config_.clients; ++i) {
    clients_.push_back(std::make_unique<BfsClient>(fs, net, i, config_, &oracle_));
  }
}

bool BfsCluster::Start() {
  if (!server_->Start()) {
    return false;
  }
  for (auto& client : clients_) {
    if (!client->Start()) {
      return false;
    }
  }
  return true;
}

CoverageMap BfsCluster::Coverage() const {
  CoverageMap out;
  out.Absorb(server_->coverage());
  for (const auto& client : clients_) {
    out.Absorb(client->coverage());
  }
  return out;
}

bool BfsCluster::AllClientsDone() const {
  for (const auto& client : clients_) {
    if (!client->Done()) {
      return false;
    }
  }
  return true;
}

int BfsCluster::RunWorkload(int max_ticks) {
  int ticks = 0;
  while (ticks < max_ticks && !AllClientsDone() && !crashed_) {
    ++ticks;
    net_->AdvanceTick();
    try {
      server_->Step();
      for (auto& client : clients_) {
        client->Step();
      }
    } catch (const SimCrash& crash) {
      crashed_ = true;
      crash_kind_ = crash.kind();
      crash_reason_ = crash.what();
      break;
    }
  }
  return ticks;
}

std::string BfsCluster::CheckConsistency() {
  oracle_.Audit(*fs_);
  return oracle_.FirstError();
}

BfsCluster::Snapshot BfsCluster::TakeSnapshot() const {
  Snapshot snapshot{server_->TakeSnapshot(), {}, oracle_, crashed_, crash_kind_, crash_reason_};
  for (const auto& client : clients_) {
    snapshot.clients.push_back(client->TakeSnapshot());
  }
  return snapshot;
}

bool BfsCluster::Restore(const Snapshot& snapshot) {
  if (snapshot.clients.size() != clients_.size()) {
    return false;
  }
  if (!server_->Restore(snapshot.server)) {
    return false;
  }
  for (size_t i = 0; i < clients_.size(); ++i) {
    if (!clients_[i]->Restore(snapshot.clients[i])) {
      return false;
    }
  }
  oracle_ = snapshot.oracle;
  crashed_ = snapshot.crashed;
  crash_kind_ = snapshot.crash_kind;
  crash_reason_ = snapshot.crash_reason;
  return true;
}

}  // namespace lfi
