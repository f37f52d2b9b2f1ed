// BFS: a block-layer client/server filesystem over the virtual network --
// the fifth campaign target, and the first whose correctness oracle is
// stateful across the simulated clients of a job.
//
// One BfsServer owns a fixed-size-block store inside the shared VirtualFs
// (CRC'd superblock, per-file inode records, data blocks) and serves
// open/read/write/unlink/fsync/close requests from several BfsClients over
// the datagram fabric. Requests and replies travel through a length-prefixed,
// CRC'd connection mux (BfsMux): the fabric can deliver *partial* sends and
// receives (vnet partial-transfer fault sites), so both ends carry real
// recovery code -- suffix resend on short writes, reassembly-buffer drops on
// CRC mismatch, stall flushes, bounded client retry with reconnect.
//
// The two planted bugs live at the paper's kind of call sites:
//   - the FSYNC durability barrier writes the superblock through an fopen
//     whose result is never checked, so an injected fopen failure hands
//     fwrite a NULL stream (the crash bug, found by the analyzer);
//   - the inode-update path *checks* its fwrite and defers a short write to
//     the next metadata sync -- but records the client's connection handle
//     where the inode number belongs, and the sync silently skips unknown
//     ids. The client got its ACK, the data blocks are on disk, and the
//     stale inode surfaces only at remount: silent corruption that only the
//     consistency oracle (BfsOracle) turns into a deterministic FoundBug.
//
// The oracle replays the client-visible history against an in-memory model:
// every acknowledged READ is checked against acknowledged WRITEs during the
// run, and after the workload the store is remounted straight from the
// VirtualFs (no library calls, so no injections) and audited file by file.
// Files with any client-visibly failed operation are indeterminate -- the
// server may or may not have applied them -- and are excluded, so the
// oracle never flags legitimate fault absorption.

#ifndef LFI_APPS_BFS_BFS_H_
#define LFI_APPS_BFS_BFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "apps/common/app_binary.h"
#include "coverage/coverage.h"
#include "vlib/sim_crash.h"
#include "vlib/virtual_libc.h"

namespace lfi {

const AppBinary& BfsBinary();

inline constexpr int kBfsServerPort = 7100;
inline constexpr int kBfsClientBasePort = 7101;
inline constexpr size_t kBfsBlockSize = 32;
inline constexpr size_t kBfsMaxFrame = 4096;

struct BfsConfig {
  int clients = 2;          // concurrent clients (>= 2 exercises the shared file)
  int rounds = 2;           // sequential write/read rounds per client
  int max_retries = 6;      // client attempts per op before giving up
  int retry_interval = 4;   // ticks between client retransmissions
  int stall_ticks = 6;      // reassembly-buffer ticks without progress -> flush
  int sync_interval = 4;    // server ops between periodic metadata syncs
};

// The connection mux's receive side: per-peer reassembly of the byte stream
// the datagram fabric (possibly partially) delivered, framed as
// [u32 length | u32 crc32 | payload]. Short transfers surface as CRC
// mismatches or stalled buffers; both recoveries drop the buffer and rely on
// the request/reply retry protocol above. Pure bookkeeping -- no library
// calls -- so the mux itself is never an injection site.
class BfsMux {
 public:
  explicit BfsMux(CoverageMap* coverage) : coverage_(coverage) {}

  static std::string EncodeFrame(const std::string& payload);

  // Appends a received datagram's bytes to `src_port`'s buffer and extracts
  // every complete, CRC-valid frame.
  void Accept(int src_port, const std::string& bytes);
  // One tick of stall detection: a non-empty buffer that made no progress
  // for stall_ticks is flushed (its tail was lost to a partial transfer).
  void Tick(int stall_ticks);
  // Drops one peer's buffered bytes (client reconnect).
  void ClearPeer(int src_port);

  std::vector<std::pair<int, std::string>> TakeFrames();

  struct Snapshot {
    std::map<int, std::pair<std::string, int>> buffers;  // port -> (bytes, stall)
    std::vector<std::pair<int, std::string>> ready;
  };
  Snapshot TakeSnapshot() const;
  void Restore(const Snapshot& snapshot);

 private:
  struct Buffer {
    std::string bytes;
    int stall = 0;
  };
  void ExtractFrames(int src_port, Buffer* buf);

  CoverageMap* coverage_;
  std::map<int, Buffer> buffers_;
  std::vector<std::pair<int, std::string>> ready_;
};

// One scripted client operation.
struct BfsOp {
  enum Kind { kOpen, kWrite, kRead, kFsync, kUnlink, kClose, kBarrier };
  Kind kind = kOpen;
  std::string name;     // open/unlink
  int slot = 0;         // client-local handle slot
  size_t offset = 0;    // write/read
  std::string data;     // write payload
  size_t len = 0;       // read length
  int wait_client = -1; // barrier: wait until this client's script finished
};

// The stateful consistency oracle: the in-memory model of the acknowledged
// history, the during-run read checks, and the remount audit. Plain data --
// cluster snapshots copy it wholesale.
class BfsOracle {
 public:
  explicit BfsOracle(int clients) : client_done_(static_cast<size_t>(clients), false) {}

  void OnOpenAck(const std::string& name);
  void OnWriteAck(const std::string& name, size_t offset, const std::string& data);
  void OnReadAck(const std::string& name, size_t offset, size_t len, const std::string& data);
  void OnUnlinkAck(const std::string& name);
  // A client-visibly failed operation: the server may or may not have
  // applied it, so the file leaves the checkable model.
  void OnOpFailed(const std::string& name);

  void MarkClientDone(int client) { client_done_[static_cast<size_t>(client)] = true; }
  bool ClientDone(int client) const { return client_done_[static_cast<size_t>(client)]; }

  // Remounts the store straight from the filesystem (no libc, no injection)
  // and compares every determinate file against the model. Appends to the
  // during-run error list; FirstError() reports the oldest inconsistency.
  void Audit(const VirtualFs& fs);
  const std::vector<std::string>& errors() const { return errors_; }
  std::string FirstError() const { return errors_.empty() ? "" : errors_.front(); }

 private:
  struct FileModel {
    std::string content;
    bool exists = false;
    bool indeterminate = false;
  };
  std::map<std::string, FileModel> files_;
  std::vector<std::string> errors_;
  std::vector<bool> client_done_;
};

class BfsServer {
 public:
  static constexpr const char* kModule = "bfs-server";

  BfsServer(VirtualFs* fs, VirtualNet* net, const BfsConfig& config);

  VirtualLibc& libc() { return libc_; }
  CoverageMap& coverage() { return coverage_; }

  // Socket bring-up, volume format, and per-client lease-key derivation (the
  // expensive part of bring-up the warm-instance snapshot amortizes, like
  // pbft's session keys). Runs injection-disarmed in both the cold and warm
  // paths.
  bool Start();
  // One simulation tick: drain the socket through the mux, serve complete
  // requests, run the periodic metadata sync.
  void Step();

  uint64_t applied_ops() const { return applied_ops_; }

  struct Snapshot;
  Snapshot TakeSnapshot() const;
  bool Restore(const Snapshot& snapshot);

 private:
  struct Inode {
    std::string name;
    std::string content;
    bool used = false;
  };
  struct Dedup {
    int64_t last_seq = -1;
    std::string last_reply;
  };

  void HandleRequest(const std::string& payload, int src_port);
  std::string ApplyOp(int64_t seq, const std::vector<std::string>& parts, int src_port);
  std::string OpOpen(int64_t seq, const std::string& name);
  std::string OpWrite(int64_t seq, int handle, size_t offset, const std::string& data);
  std::string OpRead(int64_t seq, int handle, size_t offset, size_t len);
  std::string OpFsync(int64_t seq, int handle);
  std::string OpUnlink(int64_t seq, const std::string& name);
  std::string OpClose(int64_t seq, int handle);

  bool SendFrame(int dst_port, const std::string& payload);
  bool WriteBlock(size_t ino, size_t blk, const std::string& data);
  std::optional<std::string> ReadBlock(size_t ino, size_t blk, size_t want);
  // Serializes inodes_[ino] (or a free-slot tombstone when unused) to its
  // CRC'd on-disk record. False when both the open and the write path failed.
  bool WriteInode(size_t ino);
  // Deferred-metadata sync plus the checked superblock rewrite.
  void SyncMeta();
  // The FSYNC durability barrier (the unchecked-fopen crash bug).
  void FlushSuper();
  std::string SuperRecord() const;

  VirtualLibc libc_;
  CoverageMap coverage_;
  BfsConfig config_;
  BfsMux mux_;
  int fd_ = -1;
  std::map<int, std::string> client_keys_;  // client port -> lease token
  std::vector<Inode> inodes_;
  std::map<int, size_t> handles_;  // connection handle -> inode number
  int next_handle_ = 100;          // distinct from the inode id space
  std::set<size_t> dirty_inodes_;  // deferred metadata rewrites
  std::map<int, Dedup> dedup_;     // client port -> last applied request
  uint64_t generation_ = 0;
  uint64_t applied_ops_ = 0;
  int ops_since_sync_ = 0;
};

struct BfsServer::Snapshot {
  VirtualLibc::Snapshot libc;
  CoverageMap coverage;
  BfsMux::Snapshot mux;
  int fd = -1;
  std::map<int, std::string> client_keys;
  std::vector<Inode> inodes;
  std::map<int, size_t> handles;
  int next_handle = 100;
  std::set<size_t> dirty_inodes;
  std::map<int, Dedup> dedup;
  uint64_t generation = 0;
  uint64_t applied_ops = 0;
  int ops_since_sync = 0;
};

class BfsClient {
 public:
  static constexpr const char* kModule = "bfs-client";

  BfsClient(VirtualFs* fs, VirtualNet* net, int id, const BfsConfig& config,
            BfsOracle* oracle);

  VirtualLibc& libc() { return libc_; }
  CoverageMap& coverage() { return coverage_; }

  bool Start();
  // One tick: collect replies, drive the scripted operation state machine.
  void Step();
  bool Done() const { return script_pos_ >= script_.size(); }
  size_t completed_ops() const { return completed_ops_; }

  struct Snapshot {
    VirtualLibc::Snapshot libc;
    CoverageMap coverage;
    BfsMux::Snapshot mux;
    int fd = -1;
    std::string token;
    size_t script_pos = 0;
    int64_t seq = 0;
    bool outstanding = false;
    int attempts = 0;
    int ticks_since_send = 0;
    std::vector<int> handles;
    size_t completed_ops = 0;
  };
  Snapshot TakeSnapshot() const;
  bool Restore(const Snapshot& snapshot);

 private:
  void BuildScript();
  void IssueCurrent();
  void SendRequest(const std::string& request);
  void OnReply(const std::string& payload);
  void CompleteOp(bool ok, const std::string& reply_data);
  // The file the op at `pos` targets, or "" (close/barrier).
  std::string OpFile(size_t pos) const;
  void Advance();

  VirtualLibc libc_;
  CoverageMap coverage_;
  BfsConfig config_;
  BfsMux mux_;
  BfsOracle* oracle_;
  int id_;
  int fd_ = -1;
  std::string token_;
  std::vector<BfsOp> script_;
  size_t script_pos_ = 0;
  int64_t seq_ = 0;
  bool outstanding_ = false;
  std::string pending_request_;
  int attempts_ = 0;
  int ticks_since_send_ = 0;
  std::vector<int> handles_;  // slot -> server handle, -1 = unset
  size_t completed_ops_ = 0;
};

// Harness: one server plus config.clients scripted clients, stepped in
// lockstep over a tick-synchronous fabric.
class BfsCluster {
 public:
  BfsCluster(VirtualFs* fs, VirtualNet* net, const BfsConfig& config);

  bool Start();
  BfsServer& server() { return *server_; }
  BfsClient& client(int i) { return *clients_[static_cast<size_t>(i)]; }
  int clients() const { return config_.clients; }
  VirtualNet* net() { return net_; }

  // Union of the server's and every client's coverage (identical block
  // tables, so recovery coverage reads as one program).
  CoverageMap Coverage() const;

  // Runs until every client script finished or `max_ticks` elapse.
  int RunWorkload(int max_ticks);
  bool AllClientsDone() const;

  bool crashed() const { return crashed_; }
  CrashKind crash_kind() const { return crash_kind_; }
  const std::string& crash_reason() const { return crash_reason_; }

  // Runs the remount audit and returns the oldest inconsistency between the
  // acknowledged client history and the store ("" = consistent).
  std::string CheckConsistency();

  struct Snapshot {
    BfsServer::Snapshot server;
    std::vector<BfsClient::Snapshot> clients;
    BfsOracle oracle;
    bool crashed = false;
    CrashKind crash_kind = CrashKind::kSegfault;
    std::string crash_reason;
  };
  Snapshot TakeSnapshot() const;
  bool Restore(const Snapshot& snapshot);

 private:
  BfsConfig config_;
  VirtualFs* fs_;
  VirtualNet* net_;
  BfsOracle oracle_;
  std::unique_ptr<BfsServer> server_;
  std::vector<std::unique_ptr<BfsClient>> clients_;
  bool crashed_ = false;
  CrashKind crash_kind_ = CrashKind::kSegfault;
  std::string crash_reason_;
};

}  // namespace lfi

#endif  // LFI_APPS_BFS_BFS_H_
