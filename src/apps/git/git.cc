#include "apps/git/git.h"

#include <cstring>

#include "util/errno_codes.h"
#include "util/sha1.h"
#include "util/string_util.h"

namespace lfi {
namespace {

template <SiteName kName>
uint32_t Site() {
  return CachedSiteOffset<GitBinary, kName>();
}

}  // namespace

const AppBinary& GitBinary() {
  static const AppBinary* binary = [] {
    AppBinaryBuilder b(MiniGit::kModule, /*filler_seed=*/0x617);

    // Object store plumbing (checked; exercised by the C++ implementation).
    b.AddSite({"git.write_object.open", "write_object", "open", CheckPattern::kCheckIneq, {}});
    b.AddSite({"git.write_object.write", "write_object", "write", CheckPattern::kCheckIneq, {}});
    b.AddSite({"git.write_object.close", "write_object", "close", CheckPattern::kCheckEqAll, {-1}});
    b.AddSite({"git.read_object.open", "read_object", "open", CheckPattern::kCheckIneq, {}});
    b.AddSite({"git.read_object.read", "read_object", "read", CheckPattern::kCheckIneq, {}});
    b.AddSite({"git.read_object.close", "read_object", "close", CheckPattern::kCheckEqAll, {-1}});
    b.AddSite({"git.index.open", "write_index", "open", CheckPattern::kCheckIneq, {}});
    b.AddSite({"git.index.write", "write_index", "write", CheckPattern::kCheckIneq, {}});
    b.AddSite({"git.index.close", "write_index", "close", CheckPattern::kCheckEqAll, {-1}});
    b.AddSite({"git.index.read_open", "read_index", "open", CheckPattern::kCheckIneq, {}});
    b.AddSite({"git.index.read", "read_index", "read", CheckPattern::kCheckIneq, {}});
    b.AddSite({"git.ref.open", "update_ref", "open", CheckPattern::kCheckIneq, {}});
    b.AddSite({"git.ref.write", "update_ref", "write", CheckPattern::kCheckIneq, {}});
    b.AddSite({"git.ref.close", "update_ref", "close", CheckPattern::kCheckEqAll, {-1}});
    b.AddSite({"git.ref.read_open", "resolve_ref", "open", CheckPattern::kCheckIneq, {}});
    b.AddSite({"git.ref.read", "resolve_ref", "read", CheckPattern::kCheckIneq, {}});
    b.AddSite(
        {"git.resolve_ref.readlink", "resolve_ref", "readlink", CheckPattern::kCheckIneq, {}});

    // Table 1 bug sites.
    b.AddSite({"git.branches.opendir", "list_branches", "opendir", CheckPattern::kNoCheck, {}});
    b.AddSite({"git.branches.readdir", "list_branches", "readdir", CheckPattern::kNoCheck, {}});
    b.AddSite({"git.hook.unsetenv", "run_hook", "unsetenv", CheckPattern::kCheckEqAll, {-1}});
    b.AddSite({"git.hook.setenv", "run_hook", "setenv", CheckPattern::kNoCheck, {}});
    b.AddSite({"git.hook.open", "run_hook", "open", CheckPattern::kCheckIneq, {}});
    b.AddSite({"git.hook.write", "run_hook", "write", CheckPattern::kNoCheck, {}});
    b.AddSite({"git.hook.close", "run_hook", "close", CheckPattern::kCheckEqAll, {-1}});
    b.AddSite({"git.xmerge.malloc567", "xdl_do_merge", "malloc", CheckPattern::kNoCheck, {}});
    b.AddSite({"git.xmerge.malloc571", "xdl_do_merge", "malloc", CheckPattern::kNoCheck, {}});
    b.AddSite({"git.xpatience.malloc191", "patience_diff", "malloc", CheckPattern::kNoCheck, {}});

    // Table 4 populations. Git: 25 malloc sites total (3 unchecked above +
    // 22 checked here), 127 close sites (3 + 5 above are named; pad to 127),
    // 7 readlink sites (1 named above + 6 here). All ground-truth labels are
    // carried by the CheckPattern.
    for (int i = 0; i < 22; ++i) {
      b.AddSite({StrFormat("git.alloc%02d", i), StrFormat("alloc_helper_%d", i / 4), "malloc",
                 CheckPattern::kCheckZeroEq, {}});
    }
    for (int i = 0; i < 122; ++i) {
      b.AddSite({StrFormat("git.close%03d", i), StrFormat("io_helper_%d", i / 8), "close",
                 CheckPattern::kCheckEqAll, {-1}});
    }
    for (int i = 0; i < 6; ++i) {
      b.AddSite({StrFormat("git.readlink%d", i), StrFormat("link_helper_%d", i / 3), "readlink",
                 CheckPattern::kCheckIneq, {}});
    }
    return new AppBinary(b.Build());
  }();
  return *binary;
}

MiniGit::MiniGit(VirtualFs* fs, VirtualNet* net, std::string repo_root)
    : libc_(fs, net, kModule), repo_root_(std::move(repo_root)) {
  RegisterCoverageBlocks();
}

void MiniGit::RegisterCoverageBlocks() {
  struct BlockSpec {
    const char* id;
    bool recovery;
    int lines;
  };
  static const BlockSpec kBlocks[] = {
      {"git.init.body", false, 14},
      {"git.write_object.body", false, 22},
      {"git.write_object.err_open", true, 5},
      {"git.write_object.err_write", true, 6},
      {"git.write_object.err_close", true, 4},
      {"git.read_object.body", false, 18},
      {"git.read_object.err_open", true, 4},
      {"git.read_object.err_read", true, 6},
      {"git.add.body", false, 12},
      {"git.add.err_object", true, 4},
      {"git.index.body", false, 10},
      {"git.index.err_open", true, 4},
      {"git.index.err_write", true, 5},
      {"git.commit.body", false, 26},
      {"git.commit.err_tree", true, 5},
      {"git.commit.err_ref", true, 6},
      {"git.ref.body", false, 9},
      {"git.ref.err_open", true, 4},
      {"git.ref.err_write", true, 5},
      {"git.resolve_ref.body", false, 11},
      {"git.resolve_ref.err_link", true, 4},
      {"git.resolve_ref.err_open", true, 4},
      {"git.branches.body", false, 8},
      {"git.hook.body", false, 13},
      {"git.hook.err_open", true, 4},
      {"git.merge.body", false, 30},
      {"git.merge.err_read", true, 5},
      {"git.patience.body", false, 16},
      {"git.diff.body", false, 12},
      {"git.diff.err_read", true, 4},
      {"git.fsck.body", false, 15},
      {"git.fsck.err_missing", true, 6},
  };
  for (const auto& blk : kBlocks) {
    coverage_.RegisterBlock(blk.id, blk.recovery, blk.lines);
  }
}

std::string MiniGit::ObjectPath(const std::string& id) const {
  return repo_root_ + "/.git/objects/" + id.substr(0, 2) + "/" + id.substr(2);
}

bool MiniGit::Init() {
  coverage_.Hit("git.init.body");
  VirtualFs* fs = libc_.fs();
  fs->MkDir(repo_root_);
  fs->MkDir(repo_root_ + "/.git");
  fs->MkDir(repo_root_ + "/.git/objects");
  fs->MkDir(repo_root_ + "/.git/refs");
  fs->MkDir(repo_root_ + "/.git/refs/heads");
  // HEAD is a symbolic ref, resolved with readlink().
  VfsFile head;
  head.symlink_target = "refs/heads/master";
  fs->WriteFile(repo_root_ + "/.git/HEAD", "");
  fs->GetMutableFile(repo_root_ + "/.git/HEAD")->symlink_target = "refs/heads/master";
  fs->WriteFile(repo_root_ + "/.git/index", "");
  return true;
}

std::optional<std::string> MiniGit::WriteObject(const std::string& type,
                                                const std::string& content) {
  ScopedFrame frame(&libc_.stack(), kModule, "write_object");
  static const CoverageMap::BlockId kBlkGitWriteObjectBody = CoverageMap::InternBlock("git.write_object.body");
  coverage_.Hit(kBlkGitWriteObjectBody);
  std::string payload = type + " " + StrFormat("%zu", content.size()) + '\0' + content;
  std::string id = Sha1::HexDigest(payload);

  std::string dir = repo_root_ + "/.git/objects/" + id.substr(0, 2);
  if (!libc_.fs()->DirExists(dir)) {
    libc_.fs()->MkDir(dir);
  }
  frame.set_offset(Site<"git.write_object.open">());
  int fd = libc_.Open(ObjectPath(id), kOWrOnly | kOCreate | kOTrunc);
  if (fd < 0) {
    coverage_.Hit("git.write_object.err_open");
    return std::nullopt;
  }
  frame.set_offset(Site<"git.write_object.write">());
  long n = libc_.Write(fd, payload.data(), payload.size());
  if (n < 0 || static_cast<size_t>(n) != payload.size()) {
    coverage_.Hit("git.write_object.err_write");
    libc_.Close(fd);
    libc_.Unlink(ObjectPath(id));
    return std::nullopt;
  }
  frame.set_offset(Site<"git.write_object.close">());
  if (libc_.Close(fd) == -1) {
    coverage_.Hit("git.write_object.err_close");
    return std::nullopt;
  }
  return id;
}

std::optional<std::string> MiniGit::ReadObject(const std::string& id, std::string* type) {
  ScopedFrame frame(&libc_.stack(), kModule, "read_object");
  static const CoverageMap::BlockId kBlkGitReadObjectBody = CoverageMap::InternBlock("git.read_object.body");
  coverage_.Hit(kBlkGitReadObjectBody);
  if (id.size() != 40) {
    coverage_.Hit("git.read_object.err_open");
    return std::nullopt;
  }
  frame.set_offset(Site<"git.read_object.open">());
  int fd = libc_.Open(ObjectPath(id), kORdOnly);
  if (fd < 0) {
    coverage_.Hit("git.read_object.err_open");
    return std::nullopt;
  }
  std::string payload;
  char buf[256];
  while (true) {
    frame.set_offset(Site<"git.read_object.read">());
    long n = libc_.Read(fd, buf, sizeof buf);
    if (n < 0) {
      if (libc_.verrno() == kEINTR) {
        continue;  // correctly retried (recovery code)
      }
      coverage_.Hit("git.read_object.err_read");
      libc_.Close(fd);
      return std::nullopt;
    }
    if (n == 0) {
      break;
    }
    payload.append(buf, static_cast<size_t>(n));
  }
  frame.set_offset(Site<"git.read_object.close">());
  libc_.Close(fd);

  size_t nul = payload.find('\0');
  if (nul == std::string::npos) {
    coverage_.Hit("git.read_object.err_read");
    return std::nullopt;
  }
  std::string header = payload.substr(0, nul);
  size_t space = header.find(' ');
  if (type != nullptr && space != std::string::npos) {
    *type = header.substr(0, space);
  }
  return payload.substr(nul + 1);
}

bool MiniGit::Add(const std::string& path, const std::string& content) {
  coverage_.Hit("git.add.body");
  auto id = WriteObject("blob", content);
  if (!id) {
    coverage_.Hit("git.add.err_object");
    return false;
  }
  // Append to the index.
  ScopedFrame frame(&libc_.stack(), kModule, "write_index");
  static const CoverageMap::BlockId kBlkGitIndexBody = CoverageMap::InternBlock("git.index.body");
  coverage_.Hit(kBlkGitIndexBody);
  frame.set_offset(Site<"git.index.open">());
  int fd = libc_.Open(repo_root_ + "/.git/index", kOWrOnly | kOCreate | kOAppend);
  if (fd < 0) {
    coverage_.Hit("git.index.err_open");
    return false;
  }
  std::string line = path + " " + *id + "\n";
  frame.set_offset(Site<"git.index.write">());
  long n = libc_.Write(fd, line.data(), line.size());
  if (n < 0) {
    coverage_.Hit("git.index.err_write");
    libc_.Close(fd);
    return false;
  }
  frame.set_offset(Site<"git.index.close">());
  libc_.Close(fd);
  return true;
}

std::optional<std::string> MiniGit::Commit(const std::string& message) {
  coverage_.Hit("git.commit.body");
  // Tree = current index content.
  ScopedFrame frame(&libc_.stack(), kModule, "read_index");
  frame.set_offset(Site<"git.index.read_open">());
  int fd = libc_.Open(repo_root_ + "/.git/index", kORdOnly);
  std::string index_data;
  if (fd >= 0) {
    char buf[256];
    while (true) {
      frame.set_offset(Site<"git.index.read">());
      long n = libc_.Read(fd, buf, sizeof buf);
      if (n <= 0) {
        break;
      }
      index_data.append(buf, static_cast<size_t>(n));
    }
    libc_.Close(fd);
  }
  auto tree_id = WriteObject("tree", index_data);
  if (!tree_id) {
    coverage_.Hit("git.commit.err_tree");
    return std::nullopt;
  }
  auto parent = HeadCommit();
  std::string body = "tree " + *tree_id + "\n";
  if (parent) {
    body += "parent " + *parent + "\n";
  }
  body += "\n" + message + "\n";
  auto commit_id = WriteObject("commit", body);
  if (!commit_id) {
    coverage_.Hit("git.commit.err_tree");
    return std::nullopt;
  }

  // Update the current branch ref.
  {
    ScopedFrame ref_frame(&libc_.stack(), kModule, "update_ref");
    static const CoverageMap::BlockId kBlkGitRefBody = CoverageMap::InternBlock("git.ref.body");
    coverage_.Hit(kBlkGitRefBody);
    ref_frame.set_offset(Site<"git.ref.open">());
    int ref_fd = libc_.Open(repo_root_ + "/.git/refs/heads/master", kOWrOnly | kOCreate | kOTrunc);
    if (ref_fd < 0) {
      coverage_.Hit("git.ref.err_open");
      coverage_.Hit("git.commit.err_ref");
      return std::nullopt;
    }
    ref_frame.set_offset(Site<"git.ref.write">());
    long n = libc_.Write(ref_fd, commit_id->data(), commit_id->size());
    if (n < 0) {
      coverage_.Hit("git.ref.err_write");
      coverage_.Hit("git.commit.err_ref");
      libc_.Close(ref_fd);
      return std::nullopt;
    }
    ref_frame.set_offset(Site<"git.ref.close">());
    libc_.Close(ref_fd);
  }
  RunHook("post-commit");
  return commit_id;
}

std::optional<std::string> MiniGit::HeadCommit() {
  ScopedFrame frame(&libc_.stack(), kModule, "resolve_ref");
  coverage_.Hit("git.resolve_ref.body");
  char target[128];
  frame.set_offset(Site<"git.resolve_ref.readlink">());
  long n = libc_.ReadLink(repo_root_ + "/.git/HEAD", target, sizeof target);
  if (n < 0) {
    coverage_.Hit("git.resolve_ref.err_link");
    return std::nullopt;
  }
  std::string ref_path = repo_root_ + "/.git/" + std::string(target, static_cast<size_t>(n));
  frame.set_offset(Site<"git.ref.read_open">());
  int fd = libc_.Open(ref_path, kORdOnly);
  if (fd < 0) {
    coverage_.Hit("git.resolve_ref.err_open");
    return std::nullopt;  // unborn branch
  }
  char buf[64];
  frame.set_offset(Site<"git.ref.read">());
  long r = libc_.Read(fd, buf, sizeof buf);
  libc_.Close(fd);
  if (r < 0) {
    coverage_.Hit("git.resolve_ref.err_open");
    return std::nullopt;
  }
  return std::string(buf, static_cast<size_t>(r));
}

std::vector<std::string> MiniGit::ListBranches() {
  ScopedFrame frame(&libc_.stack(), kModule, "list_branches");
  coverage_.Hit("git.branches.body");
  std::vector<std::string> out;
  frame.set_offset(Site<"git.branches.opendir">());
  VDir* dir = libc_.OpenDir(repo_root_ + "/.git/refs/heads");
  // BUG (Table 1): `dir` is not checked; a failed opendir (ENOMEM, EMFILE)
  // hands readdir a NULL pointer and the process segfaults.
  frame.set_offset(Site<"git.branches.readdir">());
  while (const char* entry = libc_.ReadDir(dir)) {
    out.emplace_back(entry);
  }
  libc_.CloseDir(dir);
  return out;
}

bool MiniGit::CreateBranch(const std::string& name) {
  auto head = HeadCommit();
  if (!head) {
    return false;
  }
  ScopedFrame frame(&libc_.stack(), kModule, "update_ref");
  static const CoverageMap::BlockId kBlkGitRefBody = CoverageMap::InternBlock("git.ref.body");
  coverage_.Hit(kBlkGitRefBody);
  frame.set_offset(Site<"git.ref.open">());
  int fd = libc_.Open(repo_root_ + "/.git/refs/heads/" + name, kOWrOnly | kOCreate | kOTrunc);
  if (fd < 0) {
    coverage_.Hit("git.ref.err_open");
    return false;
  }
  frame.set_offset(Site<"git.ref.write">());
  long n = libc_.Write(fd, head->data(), head->size());
  if (n < 0) {
    coverage_.Hit("git.ref.err_write");
    libc_.Close(fd);
    return false;
  }
  frame.set_offset(Site<"git.ref.close">());
  libc_.Close(fd);
  return true;
}

std::optional<std::string> MiniGit::DiffBlobs(const std::string& id_a, const std::string& id_b) {
  static const CoverageMap::BlockId kBlkGitDiffBody = CoverageMap::InternBlock("git.diff.body");
  coverage_.Hit(kBlkGitDiffBody);
  auto a = ReadObject(id_a);
  auto b = ReadObject(id_b);
  if (!a || !b) {
    coverage_.Hit("git.diff.err_read");
    return std::nullopt;
  }
  return RenderDiff(MyersDiff(SplitLines(*a), SplitLines(*b)));
}

std::optional<MergeResult> MiniGit::Merge(const std::string& base_id, const std::string& ours_id,
                                          const std::string& theirs_id) {
  coverage_.Hit("git.merge.body");
  auto base = ReadObject(base_id);
  auto ours = ReadObject(ours_id);
  auto theirs = ReadObject(theirs_id);
  if (!base || !ours || !theirs) {
    coverage_.Hit("git.merge.err_read");
    return std::nullopt;
  }
  ScopedFrame frame(&libc_.stack(), kModule, "xdl_do_merge");
  return XMerge3(&libc_, &frame, Site<"git.xmerge.malloc567">(), Site<"git.xmerge.malloc571">(),
                 SplitLines(*base), SplitLines(*ours), SplitLines(*theirs));
}

std::optional<std::string> MiniGit::PatienceDiffBlobs(const std::string& id_a,
                                                      const std::string& id_b) {
  coverage_.Hit("git.patience.body");
  auto a = ReadObject(id_a);
  auto b = ReadObject(id_b);
  if (!a || !b) {
    coverage_.Hit("git.diff.err_read");
    return std::nullopt;
  }
  ScopedFrame frame(&libc_.stack(), kModule, "patience_diff");
  return RenderDiff(PatienceDiff(&libc_, &frame, Site<"git.xpatience.malloc191">(), SplitLines(*a),
                                 SplitLines(*b)));
}

void MiniGit::RunHook(const std::string& hook_name) {
  ScopedFrame frame(&libc_.stack(), kModule, "run_hook");
  coverage_.Hit("git.hook.body");
  ++hook_runs_;

  // The child command starts from a scrubbed environment...
  frame.set_offset(Site<"git.hook.unsetenv">());
  if (libc_.UnsetEnv("GIT_DIR") == -1) {
    return;
  }
  // ...and BUG (Table 1): the setenv return is not checked. On failure the
  // "external command" below runs with an incomplete environment.
  frame.set_offset(Site<"git.hook.setenv">());
  libc_.SetEnv("GIT_DIR", repo_root_ + "/.git", 1);

  // The external command: appends a line to $GIT_DIR/hooks.log. With GIT_DIR
  // missing it falls back to a relative default that resolves *inside the
  // ref namespace* -- silently clobbering refs/heads/master (data loss).
  const char* dir = libc_.GetEnv("GIT_DIR");
  std::string target = dir != nullptr ? std::string(dir) + "/hooks.log"
                                      : repo_root_ + "/.git/refs/heads/master";
  frame.set_offset(Site<"git.hook.open">());
  int fd = libc_.Open(target, kOWrOnly | kOCreate | kOAppend);
  if (fd < 0) {
    coverage_.Hit("git.hook.err_open");
    return;
  }
  std::string line = StrFormat("hook %s run %d\n", hook_name.c_str(), hook_runs_);
  frame.set_offset(Site<"git.hook.write">());
  libc_.Write(fd, line.data(), line.size());
  frame.set_offset(Site<"git.hook.close">());
  libc_.Close(fd);
}

bool MiniGit::Fsck() {
  coverage_.Hit("git.fsck.body");
  for (const std::string& branch : ListBranches()) {
    ScopedFrame frame(&libc_.stack(), kModule, "resolve_ref");
    frame.set_offset(Site<"git.ref.read_open">());
    int fd = libc_.Open(repo_root_ + "/.git/refs/heads/" + branch, kORdOnly);
    if (fd < 0) {
      coverage_.Hit("git.fsck.err_missing");
      return false;
    }
    char buf[64];
    frame.set_offset(Site<"git.ref.read">());
    long n = libc_.Read(fd, buf, sizeof buf);
    libc_.Close(fd);
    if (n != 40) {
      coverage_.Hit("git.fsck.err_missing");
      return false;
    }
    std::string type;
    auto obj = ReadObject(std::string(buf, 40), &type);
    if (!obj || type != "commit") {
      coverage_.Hit("git.fsck.err_missing");
      return false;
    }
  }
  return true;
}

bool MiniGit::RunDefaultTestSuite() {
  if (!Init()) {
    return false;
  }
  if (!Add("README", "hello\nworld\n") || !Add("src/main.c", "int main() {\n  return 0;\n}\n")) {
    return false;
  }
  auto c1 = Commit("initial import");
  if (!c1) {
    return false;
  }
  if (!Add("README", "hello\nbrave\nworld\n")) {
    return false;
  }
  auto c2 = Commit("update readme");
  if (!c2) {
    return false;
  }
  if (!CreateBranch("topic")) {
    return false;
  }
  auto branches = ListBranches();
  if (branches.size() != 2) {
    return false;
  }

  // Diff / merge exercise.
  auto base = WriteObject("blob", "a\nb\nc\nd\n");
  auto ours = WriteObject("blob", "a\nB\nc\nd\n");
  auto theirs = WriteObject("blob", "a\nb\nc\nD\n");
  auto conflicting = WriteObject("blob", "a\nX\nc\nd\n");
  if (!base || !ours || !theirs || !conflicting) {
    return false;
  }
  auto diff = DiffBlobs(*base, *ours);
  if (!diff || diff->find("+B") == std::string::npos) {
    return false;
  }
  auto merged = Merge(*base, *ours, *theirs);
  if (!merged || merged->conflict) {
    return false;
  }
  if (JoinLines(merged->lines) != "a\nB\nc\nD\n") {
    return false;
  }
  auto conflict = Merge(*base, *ours, *conflicting);
  if (!conflict || !conflict->conflict) {
    return false;
  }
  auto pdiff = PatienceDiffBlobs(*base, *theirs);
  if (!pdiff || pdiff->find("+D") == std::string::npos) {
    return false;
  }
  return Fsck();
}

}  // namespace lfi
