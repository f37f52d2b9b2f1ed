#include "vlib/virtual_libc.h"

#include <cstring>

#include "util/errno_codes.h"
#include "util/string_util.h"
#include "vlib/sim_crash.h"
#include "xml/xml.h"

namespace lfi {

VirtualLibc::VirtualLibc(VirtualFs* fs, VirtualNet* net, std::string process_name)
    : fs_(fs), net_(net), process_name_(std::move(process_name)) {}

VirtualLibc::~VirtualLibc() {
  for (void* p : allocations_) {
    ::operator delete(p);
  }
  for (VFile* f : open_files_) {
    delete f;
  }
  for (VDir* d : open_dirs_) {
    delete d;
  }
  for (VXmlWriter* w : open_writers_) {
    delete w;
  }
}

VirtualLibc::Snapshot VirtualLibc::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.stack = stack_;
  snapshot.errno_value = errno_;
  snapshot.intercepted_calls = intercepted_calls_;
  snapshot.call_counts = call_counts_;
  snapshot.fds = fds_;
  snapshot.allocations = allocations_;
  for (VFile* f : open_files_) {
    snapshot.open_files.emplace(f, *f);
  }
  for (VDir* d : open_dirs_) {
    snapshot.open_dirs.emplace(d, *d);
  }
  for (VXmlWriter* w : open_writers_) {
    snapshot.open_writers.emplace(w, *w);
  }
  snapshot.env = env_;
  snapshot.globals = globals_;
  snapshot.services = services_;
  snapshot.next_pipe_id = next_pipe_id_;
  return snapshot;
}

bool VirtualLibc::Restore(const Snapshot& snapshot) {
  // Snapshot-era handles and heap blocks must all still be live: a released
  // pointer cannot be conjured back at the same address, so such state is
  // non-restorable and the caller must rebuild from scratch.
  for (void* p : snapshot.allocations) {
    if (allocations_.count(p) == 0) {
      return false;
    }
  }
  for (const auto& [f, copy] : snapshot.open_files) {
    if (open_files_.count(f) == 0) {
      return false;
    }
  }
  for (const auto& [d, copy] : snapshot.open_dirs) {
    if (open_dirs_.count(d) == 0) {
      return false;
    }
  }
  for (const auto& [w, copy] : snapshot.open_writers) {
    if (open_writers_.count(w) == 0) {
      return false;
    }
  }

  // Release everything born after the snapshot, then roll handle contents
  // back in place (stream error/eof flags, DIR cursors, writer buffers).
  for (auto it = allocations_.begin(); it != allocations_.end();) {
    if (snapshot.allocations.count(*it) == 0) {
      ::operator delete(*it);
      it = allocations_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = open_files_.begin(); it != open_files_.end();) {
    if (snapshot.open_files.count(*it) == 0) {
      delete *it;
      it = open_files_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = open_dirs_.begin(); it != open_dirs_.end();) {
    if (snapshot.open_dirs.count(*it) == 0) {
      delete *it;
      it = open_dirs_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = open_writers_.begin(); it != open_writers_.end();) {
    if (snapshot.open_writers.count(*it) == 0) {
      delete *it;
      it = open_writers_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& [f, copy] : snapshot.open_files) {
    *f = copy;
  }
  for (const auto& [d, copy] : snapshot.open_dirs) {
    *d = copy;
  }
  for (const auto& [w, copy] : snapshot.open_writers) {
    *w = copy;
  }

  stack_ = snapshot.stack;
  errno_ = snapshot.errno_value;
  intercepted_calls_ = snapshot.intercepted_calls;
  call_counts_ = snapshot.call_counts;
  fds_ = snapshot.fds;
  env_ = snapshot.env;
  globals_ = snapshot.globals;
  services_ = snapshot.services;
  next_pipe_id_ = snapshot.next_pipe_id;
  interposer_ = nullptr;
  in_interposer_ = false;
  return true;
}

std::optional<int64_t> VirtualLibc::Intercept(FunctionId function,
                                              std::initializer_list<Word> args) {
  if (interposer_ == nullptr || in_interposer_) {
    return std::nullopt;  // pass-through: no shim installed, or trigger code
  }
  ++intercepted_calls_;
  if (function >= call_counts_.size()) {
    call_counts_.resize(function + 1, 0);
  }
  ++call_counts_[function];
  in_interposer_ = true;
  InjectionDecision decision;
  try {
    decision = interposer_->OnCall(this, function, ArgSpan(args));
  } catch (...) {
    in_interposer_ = false;  // the interposer may end the run (SimCrash)
    throw;
  }
  in_interposer_ = false;
  if (!decision.inject) {
    return std::nullopt;
  }
  if (decision.errno_value != 0) {
    errno_ = decision.errno_value;
  }
  return decision.retval;
}

VirtualLibc::OpenFd* VirtualLibc::Fd(int fd) {
  if (fd < 0 || static_cast<size_t>(fd) >= fds_.size() || !fds_[static_cast<size_t>(fd)]) {
    return nullptr;
  }
  return &*fds_[static_cast<size_t>(fd)];
}

int VirtualLibc::AllocFd(OpenFd f) {
  for (size_t i = 0; i < fds_.size(); ++i) {
    if (!fds_[i]) {
      fds_[i] = std::move(f);
      return static_cast<int>(i);
    }
  }
  fds_.push_back(std::move(f));
  return static_cast<int>(fds_.size()) - 1;
}

// --- file descriptors ------------------------------------------------------

int VirtualLibc::Open(const std::string& path, int flags) {
  static const FunctionId kFn = InternFunction("open");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(&path), static_cast<Word>(flags)})) {
    return static_cast<int>(*inj);
  }
  bool exists = fs_->FileExists(path);
  if (!exists && (flags & kOCreate) == 0) {
    errno_ = kENOENT;
    return -1;
  }
  if (fs_->DirExists(path)) {
    errno_ = kEISDIR;
    return -1;
  }
  if (!exists) {
    if (!fs_->ParentExists(path)) {
      errno_ = kENOENT;
      return -1;
    }
    fs_->WriteFile(path, "");
  } else if ((flags & kOTrunc) != 0) {
    fs_->GetMutableFile(path)->data.clear();
  }
  OpenFd f;
  f.path = path;
  f.flags = flags;
  if ((flags & kOAppend) != 0) {
    f.offset = fs_->GetFile(path)->data.size();
  }
  return AllocFd(std::move(f));
}

int VirtualLibc::Close(int fd) {
  static const FunctionId kFn = InternFunction("close");
  if (auto inj = Intercept(kFn, {static_cast<Word>(fd)})) {
    return static_cast<int>(*inj);
  }
  OpenFd* f = Fd(fd);
  if (f == nullptr) {
    errno_ = kEBADF;
    return -1;
  }
  if (f->is_socket && f->port >= 0) {
    net_->Unbind(f->port);
  }
  fds_[static_cast<size_t>(fd)].reset();
  return 0;
}

long VirtualLibc::Read(int fd, char* buf, unsigned long count) {
  static const FunctionId kFn = InternFunction("read");
  if (auto inj = Intercept(kFn, {static_cast<Word>(fd), reinterpret_cast<Word>(buf),
                                    static_cast<Word>(count)})) {
    return static_cast<long>(*inj);
  }
  OpenFd* f = Fd(fd);
  if (f == nullptr) {
    errno_ = kEBADF;
    return -1;
  }
  const VfsFile* file = fs_->GetFile(f->path);
  if (file == nullptr) {
    errno_ = kEIO;
    return -1;
  }
  if (f->offset >= file->data.size()) {
    return 0;  // EOF
  }
  size_t n = std::min<size_t>(count, file->data.size() - f->offset);
  std::memcpy(buf, file->data.data() + f->offset, n);
  f->offset += n;
  return static_cast<long>(n);
}

long VirtualLibc::Write(int fd, const char* buf, unsigned long count) {
  static const FunctionId kFn = InternFunction("write");
  if (auto inj = Intercept(kFn, {static_cast<Word>(fd), reinterpret_cast<Word>(buf),
                                     static_cast<Word>(count)})) {
    return static_cast<long>(*inj);
  }
  OpenFd* f = Fd(fd);
  if (f == nullptr) {
    errno_ = kEBADF;
    return -1;
  }
  VfsFile* file = fs_->GetMutableFile(f->path);
  if (file == nullptr) {
    errno_ = kEIO;
    return -1;
  }
  if (file->data.size() < f->offset) {
    file->data.resize(f->offset, '\0');
  }
  file->data.replace(f->offset, count, buf, count);
  f->offset += count;
  return static_cast<long>(count);
}

long VirtualLibc::Lseek(int fd, long offset, int whence) {
  static const FunctionId kFn = InternFunction("lseek");
  if (auto inj = Intercept(kFn, {static_cast<Word>(fd), static_cast<Word>(offset),
                                     static_cast<Word>(whence)})) {
    return static_cast<long>(*inj);
  }
  OpenFd* f = Fd(fd);
  if (f == nullptr) {
    errno_ = kEBADF;
    return -1;
  }
  const VfsFile* file = fs_->GetFile(f->path);
  long base = 0;
  switch (whence) {
    case kSeekSet:
      base = 0;
      break;
    case kSeekCur:
      base = static_cast<long>(f->offset);
      break;
    case kSeekEnd:
      base = file == nullptr ? 0 : static_cast<long>(file->data.size());
      break;
    default:
      errno_ = kEINVAL;
      return -1;
  }
  long target = base + offset;
  if (target < 0) {
    errno_ = kEINVAL;
    return -1;
  }
  f->offset = static_cast<size_t>(target);
  return target;
}

int VirtualLibc::Fstat(int fd, VStat* st) {
  static const FunctionId kFn = InternFunction("fstat");
  if (auto inj = Intercept(kFn, {static_cast<Word>(fd), reinterpret_cast<Word>(st)})) {
    return static_cast<int>(*inj);
  }
  OpenFd* f = Fd(fd);
  if (f == nullptr) {
    errno_ = kEBADF;
    return -1;
  }
  *st = VStat{};
  if (f->is_socket) {
    st->is_socket = true;
    return 0;
  }
  const VfsFile* file = fs_->GetFile(f->path);
  if (file != nullptr) {
    st->is_fifo = file->is_fifo;
    st->size = file->data.size();
  }
  return 0;
}

int VirtualLibc::Stat(const std::string& path, VStat* st) {
  static const FunctionId kFn = InternFunction("stat");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(&path), reinterpret_cast<Word>(st)})) {
    return static_cast<int>(*inj);
  }
  *st = VStat{};
  if (fs_->DirExists(path)) {
    st->is_dir = true;
    return 0;
  }
  const VfsFile* file = fs_->GetFile(path);
  if (file == nullptr) {
    errno_ = kENOENT;
    return -1;
  }
  st->is_fifo = file->is_fifo;
  st->size = file->data.size();
  return 0;
}

int VirtualLibc::Fcntl(int fd, int cmd, long arg) {
  static const FunctionId kFn = InternFunction("fcntl");
  if (auto inj = Intercept(kFn, {static_cast<Word>(fd), static_cast<Word>(cmd),
                                     static_cast<Word>(arg)})) {
    return static_cast<int>(*inj);
  }
  OpenFd* f = Fd(fd);
  if (f == nullptr) {
    errno_ = kEBADF;
    return -1;
  }
  switch (cmd) {
    case kFGetFl:
      return f->flags;
    case kFSetFl:
      f->flags = static_cast<int>(arg);
      return 0;
    case kFGetLk:
    case kFSetLk:
      return 0;  // locks always granted on the virtual fs
    default:
      errno_ = kEINVAL;
      return -1;
  }
}

int VirtualLibc::Unlink(const std::string& path) {
  static const FunctionId kFn = InternFunction("unlink");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(&path)})) {
    return static_cast<int>(*inj);
  }
  if (!fs_->Remove(path)) {
    errno_ = kENOENT;
    return -1;
  }
  return 0;
}

long VirtualLibc::ReadLink(const std::string& path, char* buf, unsigned long size) {
  static const FunctionId kFn = InternFunction("readlink");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(&path),
                                        reinterpret_cast<Word>(buf), static_cast<Word>(size)})) {
    return static_cast<long>(*inj);
  }
  const VfsFile* file = fs_->GetFile(path);
  if (file == nullptr) {
    errno_ = kENOENT;
    return -1;
  }
  if (file->symlink_target.empty()) {
    errno_ = kEINVAL;
    return -1;
  }
  size_t n = std::min<size_t>(size, file->symlink_target.size());
  std::memcpy(buf, file->symlink_target.data(), n);
  return static_cast<long>(n);
}

int VirtualLibc::Rename(const std::string& from, const std::string& to) {
  static const FunctionId kFn = InternFunction("rename");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(&from), reinterpret_cast<Word>(&to)})) {
    return static_cast<int>(*inj);
  }
  if (!fs_->Rename(from, to)) {
    errno_ = kENOENT;
    return -1;
  }
  return 0;
}

int VirtualLibc::MkDir(const std::string& path) {
  static const FunctionId kFn = InternFunction("mkdir");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(&path)})) {
    return static_cast<int>(*inj);
  }
  if (!fs_->MkDir(path)) {
    errno_ = fs_->DirExists(path) ? kEEXIST : kENOENT;
    return -1;
  }
  return 0;
}

int VirtualLibc::RmDir(const std::string& path) {
  static const FunctionId kFn = InternFunction("rmdir");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(&path)})) {
    return static_cast<int>(*inj);
  }
  if (!fs_->RmDir(path)) {
    errno_ = fs_->DirExists(path) ? kENOTEMPTY : kENOENT;
    return -1;
  }
  return 0;
}

int VirtualLibc::Pipe(int fds[2]) {
  static const FunctionId kFn = InternFunction("pipe");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(fds)})) {
    return static_cast<int>(*inj);
  }
  std::string path = StrFormat("/pipe/%s.%d", process_name_.c_str(), next_pipe_id_++);
  if (!fs_->DirExists("/pipe")) {
    fs_->MkDir("/pipe");
  }
  fs_->WriteFile(path, "", /*is_fifo=*/true);
  OpenFd rd;
  rd.path = path;
  rd.flags = kORdOnly;
  OpenFd wr;
  wr.path = path;
  wr.flags = kOWrOnly;
  fds[0] = AllocFd(std::move(rd));
  fds[1] = AllocFd(std::move(wr));
  return 0;
}

// --- streams -----------------------------------------------------------------

VFile* VirtualLibc::FOpen(const std::string& path, const std::string& mode) {
  static const FunctionId kFn = InternFunction("fopen");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(&path),
                                     reinterpret_cast<Word>(&mode)})) {
    return reinterpret_cast<VFile*>(static_cast<uintptr_t>(*inj));
  }
  int flags;
  if (mode == "r") {
    flags = kORdOnly;
  } else if (mode == "w") {
    flags = kOWrOnly | kOCreate | kOTrunc;
  } else if (mode == "a") {
    flags = kOWrOnly | kOCreate | kOAppend;
  } else {
    errno_ = kEINVAL;
    return nullptr;
  }
  // Open the descriptor without re-interception (a single logical call).
  bool was_in = in_interposer_;
  in_interposer_ = true;
  int fd = Open(path, flags);
  in_interposer_ = was_in;
  if (fd < 0) {
    return nullptr;
  }
  VFile* f = new VFile{fd, false, false};
  open_files_.insert(f);
  return f;
}

int VirtualLibc::FClose(VFile* f) {
  static const FunctionId kFn = InternFunction("fclose");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(f)})) {
    return static_cast<int>(*inj);
  }
  MustDeref(f, "fclose");
  bool was_in = in_interposer_;
  in_interposer_ = true;
  Close(f->fd);
  in_interposer_ = was_in;
  open_files_.erase(f);
  delete f;
  return 0;
}

unsigned long VirtualLibc::FRead(char* buf, unsigned long count, VFile* f) {
  static const FunctionId kFn = InternFunction("fread");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(buf), static_cast<Word>(count),
                                     reinterpret_cast<Word>(f)})) {
    if (static_cast<long>(*inj) < static_cast<long>(count) && f != nullptr) {
      f->error = true;
    }
    return static_cast<unsigned long>(*inj);
  }
  MustDeref(f, "fread");
  bool was_in = in_interposer_;
  in_interposer_ = true;
  long n = Read(f->fd, buf, count);
  in_interposer_ = was_in;
  if (n < 0) {
    f->error = true;
    return 0;
  }
  if (n == 0) {
    f->eof = true;
  }
  return static_cast<unsigned long>(n);
}

unsigned long VirtualLibc::FWrite(const char* buf, unsigned long count, VFile* f) {
  static const FunctionId kFn = InternFunction("fwrite");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(buf), static_cast<Word>(count),
                                      reinterpret_cast<Word>(f)})) {
    if (static_cast<unsigned long>(*inj) < count && f != nullptr) {
      f->error = true;
    }
    return static_cast<unsigned long>(*inj);
  }
  MustDeref(f, "fwrite");
  bool was_in = in_interposer_;
  in_interposer_ = true;
  long n = Write(f->fd, buf, count);
  in_interposer_ = was_in;
  if (n < 0) {
    f->error = true;
    return 0;
  }
  return static_cast<unsigned long>(n);
}

int VirtualLibc::FFlush(VFile* f) {
  static const FunctionId kFn = InternFunction("fflush");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(f)})) {
    return static_cast<int>(*inj);
  }
  MustDeref(f, "fflush");
  return 0;  // writes are synchronous on the virtual fs
}

// --- directories ---------------------------------------------------------------

VDir* VirtualLibc::OpenDir(const std::string& path) {
  static const FunctionId kFn = InternFunction("opendir");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(&path)})) {
    return reinterpret_cast<VDir*>(static_cast<uintptr_t>(*inj));
  }
  if (!fs_->DirExists(path)) {
    errno_ = fs_->FileExists(path) ? kENOTDIR : kENOENT;
    return nullptr;
  }
  VDir* d = new VDir;
  d->entries = fs_->ListDir(path);
  open_dirs_.insert(d);
  return d;
}

const char* VirtualLibc::ReadDir(VDir* dir) {
  static const FunctionId kFn = InternFunction("readdir");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(dir)})) {
    return reinterpret_cast<const char*>(static_cast<uintptr_t>(*inj));
  }
  MustDeref(dir, "readdir");
  if (dir->pos >= dir->entries.size()) {
    return nullptr;
  }
  dir->current = dir->entries[dir->pos++];
  return dir->current.c_str();
}

int VirtualLibc::CloseDir(VDir* dir) {
  static const FunctionId kFn = InternFunction("closedir");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(dir)})) {
    return static_cast<int>(*inj);
  }
  MustDeref(dir, "closedir");
  open_dirs_.erase(dir);
  delete dir;
  return 0;
}

// --- heap ------------------------------------------------------------------------

void* VirtualLibc::Malloc(unsigned long size) {
  static const FunctionId kFn = InternFunction("malloc");
  if (auto inj = Intercept(kFn, {static_cast<Word>(size)})) {
    return reinterpret_cast<void*>(static_cast<uintptr_t>(*inj));
  }
  void* p = ::operator new(size == 0 ? 1 : size);
  allocations_.insert(p);
  return p;
}

void* VirtualLibc::Calloc(unsigned long n, unsigned long size) {
  static const FunctionId kFn = InternFunction("calloc");
  if (auto inj = Intercept(kFn, {static_cast<Word>(n), static_cast<Word>(size)})) {
    return reinterpret_cast<void*>(static_cast<uintptr_t>(*inj));
  }
  unsigned long total = n * size;
  void* p = ::operator new(total == 0 ? 1 : total);
  std::memset(p, 0, total);
  allocations_.insert(p);
  return p;
}

void* VirtualLibc::Realloc(void* p, unsigned long size) {
  static const FunctionId kFn = InternFunction("realloc");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(p), static_cast<Word>(size)})) {
    return reinterpret_cast<void*>(static_cast<uintptr_t>(*inj));
  }
  void* q = ::operator new(size == 0 ? 1 : size);
  allocations_.insert(q);
  if (p != nullptr) {
    // Sizes are not tracked; the virtual heap copies conservatively little.
    allocations_.erase(p);
    ::operator delete(p);
  }
  return q;
}

void VirtualLibc::Free(void* p) {
  if (p == nullptr) {
    return;
  }
  if (allocations_.erase(p) == 0) {
    throw SimCrash(CrashKind::kAbort, "free(): invalid pointer");
  }
  ::operator delete(p);
}

// --- environment -------------------------------------------------------------------

int VirtualLibc::SetEnv(const std::string& name, const std::string& value, int overwrite) {
  static const FunctionId kFn = InternFunction("setenv");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(&name),
                                      reinterpret_cast<Word>(&value),
                                      static_cast<Word>(overwrite)})) {
    return static_cast<int>(*inj);
  }
  if (name.empty() || name.find('=') != std::string::npos) {
    errno_ = kEINVAL;
    return -1;
  }
  if (overwrite == 0 && env_.count(name) != 0) {
    return 0;
  }
  env_[name] = value;
  return 0;
}

const char* VirtualLibc::GetEnv(const std::string& name) {
  static const FunctionId kFn = InternFunction("getenv");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(&name)})) {
    return reinterpret_cast<const char*>(static_cast<uintptr_t>(*inj));
  }
  auto it = env_.find(name);
  return it == env_.end() ? nullptr : it->second.c_str();
}

int VirtualLibc::UnsetEnv(const std::string& name) {
  static const FunctionId kFn = InternFunction("unsetenv");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(&name)})) {
    return static_cast<int>(*inj);
  }
  env_.erase(name);
  return 0;
}

// --- mutexes ---------------------------------------------------------------------------

int VirtualLibc::MutexLock(VMutex* m) {
  static const FunctionId kFn = InternFunction("pthread_mutex_lock");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(m)})) {
    return static_cast<int>(*inj);
  }
  MustDeref(m, "pthread_mutex_lock");
  ++m->held;
  return 0;
}

int VirtualLibc::MutexUnlock(VMutex* m) {
  static const FunctionId kFn = InternFunction("pthread_mutex_unlock");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(m)})) {
    return static_cast<int>(*inj);
  }
  MustDeref(m, "pthread_mutex_unlock");
  if (m->held <= 0) {
    // Undefined behaviour in POSIX; glibc error-checking mutexes abort, and
    // the MySQL bug in Table 1 manifests exactly this way.
    throw SimCrash(CrashKind::kDoubleUnlock, m->name);
  }
  --m->held;
  return 0;
}

// --- sockets ----------------------------------------------------------------------------

int VirtualLibc::Socket() {
  static const FunctionId kFn = InternFunction("socket");
  if (auto inj = Intercept(kFn, {})) {
    return static_cast<int>(*inj);
  }
  OpenFd f;
  f.is_socket = true;
  return AllocFd(std::move(f));
}

int VirtualLibc::BindSocket(int sockfd, int port) {
  static const FunctionId kFn = InternFunction("bind");
  if (auto inj = Intercept(kFn, {static_cast<Word>(sockfd), static_cast<Word>(port)})) {
    return static_cast<int>(*inj);
  }
  OpenFd* f = Fd(sockfd);
  if (f == nullptr || !f->is_socket) {
    errno_ = kEBADF;
    return -1;
  }
  if (!net_->Bind(port)) {
    errno_ = kEEXIST;
    return -1;
  }
  f->port = port;
  return 0;
}

long VirtualLibc::SendTo(int sockfd, const char* buf, unsigned long len, int dst_port) {
  static const FunctionId kFn = InternFunction("sendto");
  if (auto inj = Intercept(kFn, {static_cast<Word>(sockfd), reinterpret_cast<Word>(buf),
                                      static_cast<Word>(len), static_cast<Word>(dst_port)})) {
    return static_cast<long>(*inj);
  }
  OpenFd* f = Fd(sockfd);
  if (f == nullptr || !f->is_socket) {
    errno_ = kEBADF;
    return -1;
  }
  return net_->Send(f->port, dst_port, std::string(buf, len));
}

long VirtualLibc::RecvFrom(int sockfd, char* buf, unsigned long len, int* src_port) {
  static const FunctionId kFn = InternFunction("recvfrom");
  if (auto inj = Intercept(kFn, {static_cast<Word>(sockfd), reinterpret_cast<Word>(buf),
                                        static_cast<Word>(len),
                                        reinterpret_cast<Word>(src_port)})) {
    // A failed receive consumes the datagram it would have delivered: the
    // injected fault models receiver-side loss (buffer overrun, truncation),
    // so the message is gone, exactly like the paper's "deteriorated network
    // conditions".
    OpenFd* sock = Fd(sockfd);
    if (static_cast<long>(*inj) < 0 && sock != nullptr && sock->is_socket && sock->port >= 0) {
      Datagram dropped;
      net_->Receive(sock->port, &dropped);
    }
    return static_cast<long>(*inj);
  }
  OpenFd* f = Fd(sockfd);
  if (f == nullptr || !f->is_socket || f->port < 0) {
    errno_ = kEBADF;
    return -1;
  }
  Datagram dgram;
  if (!net_->Receive(f->port, &dgram)) {
    errno_ = kEAGAIN;
    return -1;
  }
  size_t n = std::min<size_t>(len, dgram.payload.size());
  std::memcpy(buf, dgram.payload.data(), n);
  if (src_port != nullptr) {
    *src_port = dgram.src_port;
  }
  return static_cast<long>(n);
}

// --- libxml ---------------------------------------------------------------------------------

VXmlWriter* VirtualLibc::XmlNewTextWriterDoc() {
  static const FunctionId kFn = InternFunction("xmlNewTextWriterDoc");
  if (auto inj = Intercept(kFn, {})) {
    return reinterpret_cast<VXmlWriter*>(static_cast<uintptr_t>(*inj));
  }
  VXmlWriter* w = new VXmlWriter;
  w->buffer = "<?xml version=\"1.0\"?>\n";
  open_writers_.insert(w);
  return w;
}

int VirtualLibc::XmlWriterWriteElement(VXmlWriter* w, const std::string& name,
                                       const std::string& text) {
  static const FunctionId kFn = InternFunction("xmlTextWriterWriteElement");
  if (auto inj = Intercept(kFn,
                           {reinterpret_cast<Word>(w), reinterpret_cast<Word>(&name),
                            reinterpret_cast<Word>(&text)})) {
    return static_cast<int>(*inj);
  }
  MustDeref(w, "xmlTextWriterWriteElement");
  w->buffer += "<" + name + ">" + XmlEscape(text) + "</" + name + ">\n";
  return 0;
}

std::string VirtualLibc::XmlFreeTextWriter(VXmlWriter* w) {
  MustDeref(w, "xmlFreeTextWriter");
  std::string out = std::move(w->buffer);
  open_writers_.erase(w);
  delete w;
  return out;
}

// --- libapr -----------------------------------------------------------------------------------

long VirtualLibc::AprFileRead(int fd, char* buf, unsigned long count) {
  static const FunctionId kFn = InternFunction("apr_file_read");
  if (auto inj = Intercept(kFn, {static_cast<Word>(fd), reinterpret_cast<Word>(buf),
                                             static_cast<Word>(count)})) {
    return static_cast<long>(*inj);
  }
  bool was_in = in_interposer_;
  in_interposer_ = true;
  long n = Read(fd, buf, count);
  in_interposer_ = was_in;
  return n;
}

int VirtualLibc::AprStat(VStat* st, int fd) {
  static const FunctionId kFn = InternFunction("apr_stat");
  if (auto inj = Intercept(kFn, {reinterpret_cast<Word>(st), static_cast<Word>(fd)})) {
    return static_cast<int>(*inj);
  }
  bool was_in = in_interposer_;
  in_interposer_ = true;
  int r = Fstat(fd, st);
  in_interposer_ = was_in;
  return r;
}

}  // namespace lfi
