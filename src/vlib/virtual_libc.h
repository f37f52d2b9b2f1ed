// The virtual libc: the library boundary LFI injects at.
//
// Each application instance (a BIND server, a Git client, a MySQL server, a
// PBFT replica) owns one VirtualLibc, which provides the libc-shaped API the
// application is written against: file descriptors, streams, directories,
// heap, environment, mutexes and datagram sockets, plus the small libxml and
// libapr surfaces BIND and Apache use. Every call funnels through the
// installed Interposer (the LFI runtime) before the real implementation
// executes -- the exact place the paper's LD_PRELOAD shims sit. Calls made
// *by triggers themselves* (e.g. the ReadPipe trigger calling fstat) bypass
// interception, like a dlsym(RTLD_NEXT) call would.
//
// Function-name strings used at the interposition boundary match the paper
// ("read", "pthread_mutex_lock", "apr_file_read", "xmlNewTextWriterDoc", ...).

#ifndef LFI_VLIB_VIRTUAL_LIBC_H_
#define LFI_VLIB_VIRTUAL_LIBC_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "vlib/call_stack.h"
#include "vlib/interposer.h"
#include "vlib/vfs.h"
#include "vlib/vnet.h"

namespace lfi {

// open(2) flags.
inline constexpr int kORdOnly = 0x0;
inline constexpr int kOWrOnly = 0x1;
inline constexpr int kORdWr = 0x2;
inline constexpr int kOCreate = 0x40;
inline constexpr int kOTrunc = 0x200;
inline constexpr int kOAppend = 0x400;
inline constexpr int kONonBlock = 0x800;

// lseek whence.
inline constexpr int kSeekSet = 0;
inline constexpr int kSeekCur = 1;
inline constexpr int kSeekEnd = 2;

// fcntl commands.
inline constexpr int kFGetFl = 1;
inline constexpr int kFSetFl = 2;
inline constexpr int kFGetLk = 5;
inline constexpr int kFSetLk = 6;

struct VStat {
  bool is_fifo = false;
  bool is_dir = false;
  bool is_socket = false;
  uint64_t size = 0;
};

// FILE-stream handle (opaque to applications).
struct VFile {
  int fd = -1;
  bool error = false;
  bool eof = false;
};

// DIR handle.
struct VDir {
  std::vector<std::string> entries;
  size_t pos = 0;
  std::string current;  // storage for the last readdir result
};

// Mutex with bookkeeping; unlocking an unheld mutex crashes (double unlock).
struct VMutex {
  const char* name = "mutex";
  int held = 0;
};

// Minimal libxml-style text-writer handle (BIND stats channel).
struct VXmlWriter {
  std::string buffer;
  std::vector<std::string> open_elements;
};

class VirtualLibc {
 public:
  VirtualLibc(VirtualFs* fs, VirtualNet* net, std::string process_name);
  ~VirtualLibc();

  VirtualLibc(const VirtualLibc&) = delete;
  VirtualLibc& operator=(const VirtualLibc&) = delete;

  // --- LFI hook-up -------------------------------------------------------
  void set_interposer(Interposer* interposer) { interposer_ = interposer; }
  Interposer* interposer() const { return interposer_; }
  CallStack& stack() { return stack_; }
  const CallStack& stack() const { return stack_; }
  const std::string& process_name() const { return process_name_; }

  int verrno() const { return errno_; }
  void set_verrno(int value) { errno_ = value; }

  // --- file descriptors --------------------------------------------------
  int Open(const std::string& path, int flags);
  int Close(int fd);
  long Read(int fd, char* buf, unsigned long count);
  long Write(int fd, const char* buf, unsigned long count);
  long Lseek(int fd, long offset, int whence);
  int Fstat(int fd, VStat* st);
  int Stat(const std::string& path, VStat* st);
  int Fcntl(int fd, int cmd, long arg);
  int Unlink(const std::string& path);
  // Reads a symlink's target into buf; -1/EINVAL when not a symlink.
  long ReadLink(const std::string& path, char* buf, unsigned long size);
  int Rename(const std::string& from, const std::string& to);
  int MkDir(const std::string& path);
  int RmDir(const std::string& path);
  // Creates an anonymous FIFO; both ends share one descriptor pair.
  int Pipe(int fds[2]);

  // --- streams -----------------------------------------------------------
  VFile* FOpen(const std::string& path, const std::string& mode);
  int FClose(VFile* f);
  unsigned long FRead(char* buf, unsigned long count, VFile* f);
  unsigned long FWrite(const char* buf, unsigned long count, VFile* f);
  int FFlush(VFile* f);

  // --- directories -------------------------------------------------------
  VDir* OpenDir(const std::string& path);
  // Returns the next entry name or nullptr at end. Null `dir` segfaults.
  const char* ReadDir(VDir* dir);
  int CloseDir(VDir* dir);

  // --- heap ----------------------------------------------------------------
  void* Malloc(unsigned long size);
  void* Calloc(unsigned long n, unsigned long size);
  void* Realloc(void* p, unsigned long size);
  void Free(void* p);
  size_t live_allocations() const { return allocations_.size(); }

  // --- environment ---------------------------------------------------------
  int SetEnv(const std::string& name, const std::string& value, int overwrite);
  const char* GetEnv(const std::string& name);
  int UnsetEnv(const std::string& name);

  // --- mutexes -------------------------------------------------------------
  int MutexLock(VMutex* m);
  int MutexUnlock(VMutex* m);

  // --- sockets -------------------------------------------------------------
  int Socket();
  int BindSocket(int sockfd, int port);
  long SendTo(int sockfd, const char* buf, unsigned long len, int dst_port);
  // Non-blocking: -1/EAGAIN when the queue is empty.
  long RecvFrom(int sockfd, char* buf, unsigned long len, int* src_port);

  // --- libxml (stats channel) ------------------------------------------------
  VXmlWriter* XmlNewTextWriterDoc();
  int XmlWriterWriteElement(VXmlWriter* w, const std::string& name, const std::string& text);
  // Returns the serialized document and releases the writer.
  std::string XmlFreeTextWriter(VXmlWriter* w);

  // --- libapr (Apache) -------------------------------------------------------
  long AprFileRead(int fd, char* buf, unsigned long count);
  int AprStat(VStat* st, int fd);

  VirtualFs* fs() { return fs_; }
  VirtualNet* net() { return net_; }

  // --- introspection surface for triggers -----------------------------------
  // Applications publish named globals here (the analogue of the symbol/DWARF
  // lookup the paper's program-state trigger performs on real processes).
  // Lookups are heterogeneous: string_view/char* callers never allocate.
  void SetGlobal(std::string_view name, int64_t value) {
    auto it = globals_.find(name);
    if (it == globals_.end()) {
      globals_.emplace(std::string(name), value);
    } else {
      it->second = value;
    }
  }
  std::optional<int64_t> GetGlobal(std::string_view name) const {
    auto it = globals_.find(name);
    return it == globals_.end() ? std::nullopt : std::optional<int64_t>(it->second);
  }

  // Named services attachable to a process, e.g. the distributed-trigger
  // controller a PBFT replica reports to.
  void SetService(std::string_view name, void* service) {
    auto it = services_.find(name);
    if (it == services_.end()) {
      services_.emplace(std::string(name), service);
    } else {
      it->second = service;
    }
  }
  void* GetService(std::string_view name) const {
    auto it = services_.find(name);
    return it == services_.end() ? nullptr : it->second;
  }

  // Number of calls that reached the interposition boundary.
  uint64_t intercepted_calls() const { return intercepted_calls_; }
  // Per-function count of calls that reached the boundary. This is what the
  // call-count trigger consults: "the n-th call to a function". The id
  // overload is the fast path (an array index); the name overload resolves
  // against the process-wide symbol table without interning.
  uint64_t CallCount(FunctionId function) const {
    return function < call_counts_.size() ? call_counts_[function] : 0;
  }
  uint64_t CallCount(std::string_view function) const {
    auto id = SymbolTable::Functions().Find(function);
    return id ? CallCount(*id) : 0;
  }
  // The function whose interception the interposer is deciding right now
  // (meaningful only inside an interposer call). A trigger reads its
  // per-function state by this id, not by resolving the name it was handed.
  FunctionId intercepted_function() const { return intercepted_function_; }
  // Clears the per-function boundary counts. The test controller calls this
  // at the start of every test, mirroring the paper's fresh process per run.
  void ResetCallCounts() { call_counts_.clear(); }

  // --- snapshot / restore ----------------------------------------------------
  // Captures the process's entire libc-visible state: descriptors, handle
  // contents (streams, DIRs, xml writers), the live-allocation set,
  // environment, globals, services, errno, call counters, and the call
  // stack. Defined after the class (it names the private OpenFd).
  struct Snapshot;
  Snapshot TakeSnapshot() const;

  // Rolls the process back to `snapshot`. Handles and heap blocks created
  // after the snapshot are released; snapshot-era handle *contents* (stream
  // error/eof/offset, DIR cursors, writer buffers) are restored in place.
  // The interposer is detached and in-trigger state cleared.
  //
  // Returns false -- leaving the process unusable -- when the state cannot
  // be rolled back: a snapshot-era heap block, stream, DIR, or writer was
  // released after the snapshot (its address may have been reused, so
  // "re-allocating" it is impossible). Callers fall back to a cold rebuild.
  // Raw heap block *contents* are not captured (sizes are untracked); no
  // target keeps setup-phase heap data across jobs, and a snapshot-era block
  // still live at restore keeps whatever bytes it has.
  bool Restore(const Snapshot& snapshot);

 private:
  struct OpenFd {
    std::string path;
    size_t offset = 0;
    int flags = 0;
    bool is_socket = false;
    int port = -1;
  };

  // Consults the interposer; returns the injected value when a fault fires.
  // `function` is the call site's id, interned once per process via a static
  // local at each call site in virtual_libc.cc; the initializer list is the
  // call's inline argument array -- no heap on this path.
  std::optional<int64_t> Intercept(FunctionId function, std::initializer_list<Word> args);

  OpenFd* Fd(int fd);
  int AllocFd(OpenFd f);

  VirtualFs* fs_;
  VirtualNet* net_;
  std::string process_name_;
  Interposer* interposer_ = nullptr;
  bool in_interposer_ = false;
  FunctionId intercepted_function_ = 0;
  CallStack stack_;
  int errno_ = 0;
  uint64_t intercepted_calls_ = 0;
  std::vector<uint64_t> call_counts_;  // dense, indexed by FunctionId
  std::vector<std::optional<OpenFd>> fds_;
  std::set<void*> allocations_;
  std::set<VFile*> open_files_;
  std::set<VDir*> open_dirs_;
  std::set<VXmlWriter*> open_writers_;
  std::map<std::string, std::string, std::less<>> env_;
  std::map<std::string, int64_t, std::less<>> globals_;
  std::map<std::string, void*, std::less<>> services_;
  int next_pipe_id_ = 0;
};

// Out-of-class so it can name the private OpenFd (a member type has access).
// Handle state is keyed by the live pointer and holds a value copy of what it
// pointed at when the snapshot was taken.
struct VirtualLibc::Snapshot {
  CallStack stack;
  int errno_value = 0;
  uint64_t intercepted_calls = 0;
  std::vector<uint64_t> call_counts;
  std::vector<std::optional<OpenFd>> fds;
  std::set<void*> allocations;
  std::map<VFile*, VFile> open_files;
  std::map<VDir*, VDir> open_dirs;
  std::map<VXmlWriter*, VXmlWriter> open_writers;
  std::map<std::string, std::string, std::less<>> env;
  std::map<std::string, int64_t, std::less<>> globals;
  std::map<std::string, void*, std::less<>> services;
  int next_pipe_id = 0;
};

}  // namespace lfi

#endif  // LFI_VLIB_VIRTUAL_LIBC_H_
