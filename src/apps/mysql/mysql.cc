#include "apps/mysql/mysql.h"

#include <cstring>

#include "util/errno_codes.h"
#include "util/string_util.h"
#include "vlib/sim_crash.h"

namespace lfi {
namespace {

template <SiteName kName>
uint32_t Site() {
  return CachedSiteOffset<MysqlBinary, kName>();
}

}  // namespace

const AppBinary& MysqlBinary() {
  static const AppBinary* binary = [] {
    AppBinaryBuilder b(MiniMysql::kModule, /*filler_seed=*/0x5a1);
    // errmsg.sys loader: open checked (bug #25097 fixed upstream), read
    // UNchecked for the crash path -- more precisely, the error is detected
    // and logged but recovery is wrong; at the binary level the retval feeds
    // a logging helper, which the intra-procedural analyzer cannot follow,
    // so this is also the realistic "checked via helper" shape.
    b.AddSite({"mysql.errmsg.open", "read_errmsg", "open", CheckPattern::kCheckIneq, {}});
    b.AddSite({"mysql.errmsg.read", "read_errmsg", "read", CheckPattern::kCheckViaHelper, {}});
    b.AddSite({"mysql.errmsg.close", "read_errmsg", "close", CheckPattern::kCheckEqAll, {-1}});
    // mi_create.
    b.AddSite({"mysql.mi_create.lock", "mi_create", "pthread_mutex_lock",
               CheckPattern::kCheckEqAll, {kEDEADLK}});
    b.AddSite({"mysql.mi_create.open", "mi_create", "open", CheckPattern::kCheckIneq, {}});
    b.AddSite({"mysql.mi_create.write", "mi_create", "write", CheckPattern::kCheckIneq, {}});
    b.AddSite({"mysql.mi_create.unlock", "mi_create", "pthread_mutex_unlock",
               CheckPattern::kNoCheck, {}});
    b.AddSite({"mysql.mi_create.close", "mi_create", "close", CheckPattern::kCheckEqAll, {-1}});
    // merge-big scan loop.
    b.AddSite({"mysql.merge.open", "merge_big", "open", CheckPattern::kCheckIneq, {}});
    b.AddSite({"mysql.merge.read", "merge_big", "read", CheckPattern::kCheckIneq, {}});
    b.AddSite({"mysql.merge.close", "merge_big", "close", CheckPattern::kCheckEqAll, {-1}});
    // OLTP path.
    b.AddSite({"mysql.oltp.open", "oltp_init", "open", CheckPattern::kCheckIneq, {}});
    b.AddSite({"mysql.oltp.fcntl", "oltp_row", "fcntl", CheckPattern::kCheckEqAll, {-1}});
    b.AddSite({"mysql.oltp.lseek", "oltp_row", "lseek", CheckPattern::kCheckIneq, {}});
    b.AddSite({"mysql.oltp.read", "oltp_row", "read", CheckPattern::kCheckIneq, {}});
    b.AddSite({"mysql.oltp.write", "oltp_row", "write", CheckPattern::kCheckIneq, {}});
    return new AppBinary(b.Build());
  }();
  return *binary;
}

MiniMysql::MiniMysql(VirtualFs* fs, VirtualNet* net, std::string datadir)
    : libc_(fs, net, kModule), datadir_(std::move(datadir)) {
  fs->MkDir(datadir_);
  fs->MkDir(datadir_ + "/share");
  RegisterCoverageBlocks();
  SetThreadCount(1);
  SetShutdownInProgress(false);
}

void MiniMysql::RegisterCoverageBlocks() {
  struct BlockSpec {
    const char* id;
    bool recovery;
    int lines;
  };
  static const BlockSpec kBlocks[] = {
      {"mysql.errmsg.body", false, 20},
      {"mysql.errmsg.err_missing", true, 6},
      {"mysql.errmsg.err_read", true, 5},
      {"mysql.mi_create.body", false, 34},
      {"mysql.mi_create.err_open", true, 6},
      {"mysql.mi_create.err_write", true, 7},
      {"mysql.mi_create.err_close", true, 9},
      {"mysql.merge.body", false, 18},
      {"mysql.merge.err_scan", true, 5},
      {"mysql.oltp.body", false, 24},
      {"mysql.oltp.err_lock", true, 5},
      {"mysql.oltp.err_io", true, 6},
  };
  for (const auto& blk : kBlocks) {
    coverage_.RegisterBlock(blk.id, blk.recovery, blk.lines);
  }
}

std::string MiniMysql::TablePath(const std::string& table, int segment) const {
  return StrFormat("%s/%s.MYD.%d", datadir_.c_str(), table.c_str(), segment);
}

bool MiniMysql::Startup() {
  ScopedFrame frame(&libc_.stack(), kModule, "read_errmsg");
  coverage_.Hit("mysql.errmsg.body");

  frame.set_offset(Site<"mysql.errmsg.open">());
  int fd = libc_.Open(datadir_ + "/share/errmsg.sys", kORdOnly);
  if (fd < 0) {
    // Bug #25097 was fixed: a *missing* errmsg.sys is reported cleanly.
    coverage_.Hit("mysql.errmsg.err_missing");
    startup_log_.push_back("[ERROR] Can't find messagefile errmsg.sys");
    return false;
  }

  char buf[4096];
  frame.set_offset(Site<"mysql.errmsg.read">());
  long n = libc_.Read(fd, buf, sizeof buf);
  if (n < 0) {
    // BUG (#53393): the error is logged, but initialization is skipped and
    // execution continues as if it had succeeded.
    coverage_.Hit("mysql.errmsg.err_read");
    startup_log_.push_back("[ERROR] Error reading messagefile errmsg.sys");
  } else {
    errmsg_storage_ = Split(std::string(buf, static_cast<size_t>(n)), '\n');
    errmsg_.messages = &errmsg_storage_;
    errmsg_.initialized = true;
  }
  frame.set_offset(Site<"mysql.errmsg.close">());
  libc_.Close(fd);

  // Prime the startup banner: formats message 0 through the table. When the
  // read above failed, `messages` is still NULL and this dereference is the
  // crash the paper reports.
  startup_log_.push_back("[Note] ready for connections: " + GetErrMsg(0));
  return true;
}

const std::string& MiniMysql::GetErrMsg(size_t index) {
  std::vector<std::string>* table = MustDeref(errmsg_.messages, "errmsg table access");
  if (index >= table->size()) {
    static const std::string kUnknown = "Unknown error";
    return kUnknown;
  }
  return (*table)[index];
}

int MiniMysql::MiCreate(const std::string& table) {
  ScopedFrame frame(&libc_.stack(), kModule, "mi_create");
  coverage_.Hit("mysql.mi_create.body");

  frame.set_offset(Site<"mysql.mi_create.lock">());
  if (libc_.MutexLock(&create_mutex_) != 0) {
    return -1;
  }

  int fds[kMiCreateSegments];
  int opened = 0;
  for (int i = 0; i < kMiCreateSegments; ++i) {
    frame.set_offset(Site<"mysql.mi_create.open">());
    fds[i] = libc_.Open(TablePath(table, i), kOWrOnly | kOCreate | kOTrunc);
    if (fds[i] < 0) {
      coverage_.Hit("mysql.mi_create.err_open");
      for (int j = 0; j < opened; ++j) {
        libc_.Close(fds[j]);
      }
      libc_.MutexUnlock(&create_mutex_);
      return -1;
    }
    ++opened;
    std::string header = StrFormat("MYI\1 segment %d of %s\n", i, table.c_str());
    frame.set_offset(Site<"mysql.mi_create.write">());
    long n = libc_.Write(fds[i], header.data(), header.size());
    if (n < 0) {
      coverage_.Hit("mysql.mi_create.err_write");
      for (int j = 0; j <= i; ++j) {
        libc_.Close(fds[j]);
      }
      libc_.MutexUnlock(&create_mutex_);
      return -1;
    }
  }

  // Normal flow: creation is done, release the creation mutex...
  frame.set_offset(Site<"mysql.mi_create.unlock">());
  libc_.MutexUnlock(&create_mutex_);

  // ...then flush/close the segments. BUG (#53268): a failed close jumps to
  // the shared error handler, whose cleanup releases *all* resources --
  // including the mutex the normal flow just released. Double unlock.
  bool failed = false;
  for (int i = 0; i < kMiCreateSegments; ++i) {
    frame.set_offset(Site<"mysql.mi_create.close">());
    if (libc_.Close(fds[i]) == -1) {
      failed = true;
      break;
    }
  }
  if (failed) {
    coverage_.Hit("mysql.mi_create.err_close");
    for (int i = 0; i < kMiCreateSegments; ++i) {
      libc_.Unlink(TablePath(table, i));
    }
    libc_.MutexUnlock(&create_mutex_);  // crashes: not held anymore
    return -1;
  }
  return 0;
}

bool MiniMysql::MergeBig() {
  ScopedFrame frame(&libc_.stack(), kModule, "merge_big");
  coverage_.Hit("mysql.merge.body");

  // Phase 1: scan the source tables. Closes are checked; any failure aborts
  // the merge before the vulnerable code is reached.
  for (int i = 0; i < kMergeSourceTables; ++i) {
    std::string path = StrFormat("%s/src%d.MYD", datadir_.c_str(), i);
    if (!libc_.fs()->FileExists(path)) {
      libc_.fs()->WriteFile(path, StrFormat("source table %d\n", i));
    }
    frame.set_offset(Site<"mysql.merge.open">());
    int fd = libc_.Open(path, kORdOnly);
    if (fd < 0) {
      coverage_.Hit("mysql.merge.err_scan");
      return false;
    }
    char buf[64];
    frame.set_offset(Site<"mysql.merge.read">());
    libc_.Read(fd, buf, sizeof buf);
    frame.set_offset(Site<"mysql.merge.close">());
    if (libc_.Close(fd) == -1) {
      coverage_.Hit("mysql.merge.err_scan");
      return false;
    }
  }
  // Phase 2: build the merged table.
  return MiCreate("merged") == 0;
}

bool MiniMysql::OltpInit(int rows) {
  ScopedFrame frame(&libc_.stack(), kModule, "oltp_init");
  coverage_.Hit("mysql.oltp.body");
  std::string data;
  data.reserve(static_cast<size_t>(rows) * kRowWidth);
  for (int i = 0; i < rows; ++i) {
    std::string row = StrFormat("%08d|", i);
    row.resize(kRowWidth - 1, 'x');
    row += "\n";
    data += row;
  }
  libc_.fs()->WriteFile(datadir_ + "/oltp.MYD", std::move(data));
  frame.set_offset(Site<"mysql.oltp.open">());
  oltp_fd_ = libc_.Open(datadir_ + "/oltp.MYD", kORdWr);
  if (oltp_fd_ < 0) {
    return false;
  }
  oltp_rows_ = rows;
  return true;
}

std::optional<std::string> MiniMysql::OltpRead(int key) {
  if (oltp_fd_ < 0 || key < 0 || key >= oltp_rows_) {
    return std::nullopt;
  }
  ScopedFrame frame(&libc_.stack(), kModule, "oltp_row");
  frame.set_offset(Site<"mysql.oltp.fcntl">());
  if (libc_.Fcntl(oltp_fd_, kFGetLk, key) == -1) {
    coverage_.Hit("mysql.oltp.err_lock");
    return std::nullopt;
  }
  frame.set_offset(Site<"mysql.oltp.lseek">());
  if (libc_.Lseek(oltp_fd_, static_cast<long>(key) * static_cast<long>(kRowWidth), kSeekSet) <
      0) {
    coverage_.Hit("mysql.oltp.err_io");
    return std::nullopt;
  }
  char buf[kRowWidth];
  frame.set_offset(Site<"mysql.oltp.read">());
  long n = libc_.Read(oltp_fd_, buf, kRowWidth);
  if (n < 0) {
    coverage_.Hit("mysql.oltp.err_io");
    return std::nullopt;
  }
  return std::string(buf, static_cast<size_t>(n));
}

bool MiniMysql::OltpWrite(int key, const std::string& value) {
  if (oltp_fd_ < 0 || key < 0 || key >= oltp_rows_) {
    return false;
  }
  ScopedFrame frame(&libc_.stack(), kModule, "oltp_row");
  frame.set_offset(Site<"mysql.oltp.fcntl">());
  if (libc_.Fcntl(oltp_fd_, kFSetLk, key) == -1) {
    coverage_.Hit("mysql.oltp.err_lock");
    return false;
  }
  frame.set_offset(Site<"mysql.oltp.lseek">());
  if (libc_.Lseek(oltp_fd_, static_cast<long>(key) * static_cast<long>(kRowWidth), kSeekSet) <
      0) {
    coverage_.Hit("mysql.oltp.err_io");
    return false;
  }
  std::string row = value;
  row.resize(kRowWidth - 1, ' ');
  row += "\n";
  frame.set_offset(Site<"mysql.oltp.write">());
  long n = libc_.Write(oltp_fd_, row.data(), row.size());
  if (n < 0) {
    coverage_.Hit("mysql.oltp.err_io");
    return false;
  }
  return true;
}

bool MiniMysql::OltpTransaction(Rng* rng, bool read_only) {
  coverage_.Hit("mysql.oltp.body");
  for (int i = 0; i < 10; ++i) {
    int key = static_cast<int>(rng->NextBelow(static_cast<uint64_t>(oltp_rows_)));
    if (!OltpRead(key)) {
      return false;
    }
  }
  if (!read_only) {
    for (int i = 0; i < 2; ++i) {
      int key = static_cast<int>(rng->NextBelow(static_cast<uint64_t>(oltp_rows_)));
      if (!OltpWrite(key, StrFormat("%08d|updated", key))) {
        return false;
      }
    }
  }
  return true;
}

void MiniMysql::SetThreadCount(int64_t n) { libc_.SetGlobal("thread_count", n); }

void MiniMysql::SetShutdownInProgress(bool value) {
  libc_.SetGlobal("shutdown_in_progress", value ? 1 : 0);
}

}  // namespace lfi
