// In-memory filesystem shared by the applications under test.
//
// A plain path -> file map with directories, FIFOs, and failure knobs. The
// *real* behaviour lives here; transient environment failures (EIO on read,
// ENOSPC on write, ...) are what LFI injects at the boundary above this
// layer, so the filesystem itself is reliable unless configured otherwise.

#ifndef LFI_VLIB_VFS_H_
#define LFI_VLIB_VFS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace lfi {

struct VfsFile {
  std::string data;
  bool is_fifo = false;
  std::string symlink_target;  // non-empty: this entry is a symbolic link
};

class VirtualFs {
 public:
  VirtualFs();

  // Directory operations. Paths are absolute, '/'-separated, normalized by
  // the caller (no "." / ".." handling -- applications use clean paths).
  bool MkDir(const std::string& path);
  bool RmDir(const std::string& path);          // fails when non-empty
  bool DirExists(std::string_view path) const;
  // Names of immediate children (files and dirs) of `path`.
  std::vector<std::string> ListDir(const std::string& path) const;

  // File operations.
  bool FileExists(const std::string& path) const;
  // Creates or truncates.
  void WriteFile(const std::string& path, std::string data, bool is_fifo = false);
  const VfsFile* GetFile(const std::string& path) const;
  VfsFile* GetMutableFile(const std::string& path);
  bool Remove(const std::string& path);
  bool Rename(const std::string& from, const std::string& to);

  // Parent directory must exist for creation to succeed.
  bool ParentExists(std::string_view path) const;

  size_t file_count() const { return files_.size(); }

  // Deep copy of the whole filesystem state. Restore() rolls every file,
  // directory, FIFO, and symlink back to the captured state bit-exactly --
  // the warm-instance execution layer (core/warm_pool.h) snapshots after
  // target bring-up and restores between jobs.
  struct Snapshot {
    std::map<std::string, VfsFile> files;
    std::set<std::string, std::less<>> dirs;
  };
  Snapshot TakeSnapshot() const { return {files_, dirs_}; }
  void Restore(const Snapshot& snapshot) {
    files_ = snapshot.files;
    dirs_ = snapshot.dirs;
  }

 private:
  std::map<std::string, VfsFile> files_;
  // Transparent comparison: existence checks look up views, never building
  // a temporary string.
  std::set<std::string, std::less<>> dirs_;
};

}  // namespace lfi

#endif  // LFI_VLIB_VFS_H_
