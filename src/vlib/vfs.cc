#include "vlib/vfs.h"

#include "util/string_util.h"

namespace lfi {
namespace {

std::string_view ParentOf(std::string_view path) {
  size_t pos = path.find_last_of('/');
  if (pos == std::string_view::npos || pos == 0) {
    return "/";
  }
  return path.substr(0, pos);
}

}  // namespace

VirtualFs::VirtualFs() { dirs_.insert("/"); }

bool VirtualFs::MkDir(const std::string& path) {
  if (path.empty() || DirExists(path) || FileExists(path) || !ParentExists(path)) {
    return false;
  }
  dirs_.insert(path);
  return true;
}

bool VirtualFs::RmDir(const std::string& path) {
  if (!DirExists(path) || path == "/") {
    return false;
  }
  if (!ListDir(path).empty()) {
    return false;
  }
  dirs_.erase(path);
  return true;
}

bool VirtualFs::DirExists(std::string_view path) const { return dirs_.contains(path); }

std::vector<std::string> VirtualFs::ListDir(const std::string& path) const {
  std::vector<std::string> out;
  std::string prefix = path == "/" ? "/" : path + "/";
  auto consider = [&](const std::string& p) {
    if (!StartsWith(p, prefix) || p == path) {
      return;
    }
    std::string rest = p.substr(prefix.size());
    if (rest.empty() || rest.find('/') != std::string::npos) {
      return;
    }
    out.push_back(rest);
  };
  for (const auto& [p, f] : files_) {
    consider(p);
  }
  for (const auto& d : dirs_) {
    consider(d);
  }
  return out;
}

bool VirtualFs::FileExists(const std::string& path) const { return files_.count(path) != 0; }

void VirtualFs::WriteFile(const std::string& path, std::string data, bool is_fifo) {
  files_.insert_or_assign(path, VfsFile{std::move(data), is_fifo, {}});
}

const VfsFile* VirtualFs::GetFile(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

VfsFile* VirtualFs::GetMutableFile(const std::string& path) {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

bool VirtualFs::Remove(const std::string& path) { return files_.erase(path) != 0; }

bool VirtualFs::Rename(const std::string& from, const std::string& to) {
  auto it = files_.find(from);
  if (it == files_.end() || !ParentExists(to)) {
    return false;
  }
  files_[to] = std::move(it->second);
  files_.erase(it);
  return true;
}

bool VirtualFs::ParentExists(std::string_view path) const {
  return DirExists(ParentOf(path));
}

}  // namespace lfi
