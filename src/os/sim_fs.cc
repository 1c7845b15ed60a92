#include "src/os/sim_fs.h"

#include "src/support/faultsim.h"
#include "src/support/log.h"
#include "src/support/strings.h"

namespace omos {

SimFs::SimFs() {
  SimFile root;
  root.mode = kModeDir | 0755;
  root.inode = next_inode_++;
  files_.emplace("/", std::move(root));
}

namespace {

// Normal form: absolute, no empty or "." component, no trailing slash. Most
// paths arrive normal already. (".." is an ordinary name here.)
bool IsNormal(std::string_view path) {
  return StartsWith(path, "/") && (path.size() == 1 || path.back() != '/') &&
         path.find("//") == std::string_view::npos &&
         path.find("/./") == std::string_view::npos && !EndsWith(path, "/.");
}

}  // namespace

std::string SimFs::Normalize(std::string_view path) {
  if (IsNormal(path)) {
    return std::string(path);
  }
  std::string out = "/";
  for (const std::string& part : SplitString(path, '/')) {
    if (part.empty() || part == ".") {
      continue;
    }
    if (out.back() != '/') {
      out.push_back('/');
    }
    out += part;
  }
  return out;
}

SimFs::Files::const_iterator SimFs::Find(std::string_view path) const {
  std::string normalized;
  std::string_view key = IsNormal(path) ? path : (normalized = Normalize(path));
  return files_.find(key);
}

void SimFs::Mkdir(std::string_view path) {
  std::string norm = Normalize(path);
  // Create all ancestors.
  std::string cur = "/";
  for (const std::string& part : SplitString(norm, '/')) {
    if (part.empty()) {
      continue;
    }
    if (cur.back() != '/') {
      cur.push_back('/');
    }
    cur += part;
    if (files_.find(cur) == files_.end()) {
      SimFile dir;
      dir.mode = kModeDir | 0755;
      dir.inode = next_inode_++;
      files_.emplace(cur, std::move(dir));
    }
  }
}

Result<void> SimFs::CheckFilePlacement(std::string_view op, std::string_view norm_path) const {
  auto it = files_.find(norm_path);
  if (it != files_.end() && (it->second.mode & kModeDir) != 0) {
    return Err(ErrorCode::kInvalidArgument, StrCat(op, ": is a directory: ", norm_path));
  }
  for (size_t slash = norm_path.find('/', 1); slash != std::string_view::npos;
       slash = norm_path.find('/', slash + 1)) {
    auto parent = files_.find(norm_path.substr(0, slash));
    if (parent != files_.end() && (parent->second.mode & kModeDir) == 0) {
      return Err(ErrorCode::kInvalidArgument,
                 StrCat(op, ": not a directory: ", parent->first, " in ", norm_path));
    }
  }
  return OkResult();
}

Result<void> SimFs::PutBytes(std::string_view norm_path, std::vector<uint8_t> bytes,
                             uint32_t perm, bool durable) {
  OMOS_TRY_VOID(CheckFilePlacement("write", norm_path));
  std::string norm(norm_path);
  auto it = files_.find(norm);
  size_t slash = norm.rfind('/');
  if (slash > 0) {
    Mkdir(std::string_view(norm).substr(0, slash));
  }
  if (it != files_.end()) {
    SimFile& file = it->second;
    if (durable) {
      file.bytes = std::move(bytes);
      file.dirty = false;
      file.exists_durably = true;
      file.synced_bytes.clear();
      file.synced_bytes.shrink_to_fit();
    } else {
      // First unsynced touch of a clean file: remember the durable content
      // the crash would revert to.
      if (!file.dirty && file.exists_durably) {
        file.synced_bytes = file.bytes;
      }
      file.bytes = std::move(bytes);
      file.dirty = true;
    }
    file.mode = kModeFile | (perm & 07777);
    return OkResult();
  }
  SimFile file;
  file.bytes = std::move(bytes);
  file.mode = kModeFile | (perm & 07777);
  file.mtime = static_cast<uint32_t>(700000000 + files_.size());  // deterministic, distinct
  file.inode = next_inode_++;
  file.dirty = !durable;
  file.exists_durably = durable;
  files_.emplace(std::move(norm), std::move(file));
  return OkResult();
}

void SimFs::WriteFile(std::string_view path, std::vector<uint8_t> bytes, uint32_t perm) {
  Result<void> put = PutBytes(Normalize(path), std::move(bytes), perm, /*durable=*/true);
  if (!put.ok()) {
    LogMessage(LogLevel::kError, "simfs", put.error().ToString());
  }
}

void SimFs::WriteFile(std::string_view path, std::string_view text, uint32_t perm) {
  WriteFile(path, std::vector<uint8_t>(text.begin(), text.end()), perm);
}

Result<void> SimFs::TryWriteFile(std::string_view path, std::vector<uint8_t> bytes,
                                 uint32_t perm) {
  if (FaultSim::Trip("fs.write")) {
    return Err(ErrorCode::kIoError, StrCat("simulated write failure: ", path));
  }
  return PutBytes(Normalize(path), std::move(bytes), perm, /*durable=*/true);
}

Result<void> SimFs::TryWriteFile(std::string_view path, std::string_view text, uint32_t perm) {
  return TryWriteFile(path, std::vector<uint8_t>(text.begin(), text.end()), perm);
}

Result<void> SimFs::TryWriteUnsynced(std::string_view path, std::vector<uint8_t> bytes,
                                     uint32_t perm) {
  if (FaultSim::Trip("fs.write")) {
    return Err(ErrorCode::kIoError, StrCat("simulated write failure: ", path));
  }
  return PutBytes(Normalize(path), std::move(bytes), perm, /*durable=*/false);
}

Result<void> SimFs::TryAppendUnsynced(std::string_view path, const std::vector<uint8_t>& bytes) {
  if (FaultSim::Trip("fs.write")) {
    return Err(ErrorCode::kIoError, StrCat("simulated write failure: ", path));
  }
  std::string norm = Normalize(path);
  auto it = files_.find(norm);
  if (it == files_.end()) {
    return PutBytes(norm, bytes, 0644, /*durable=*/false);
  }
  SimFile& file = it->second;
  if ((file.mode & kModeDir) != 0) {
    return Err(ErrorCode::kInvalidArgument, StrCat("cannot append to directory: ", path));
  }
  if (!file.dirty && file.exists_durably) {
    file.synced_bytes = file.bytes;
  }
  file.bytes.insert(file.bytes.end(), bytes.begin(), bytes.end());
  file.dirty = true;
  return OkResult();
}

Result<void> SimFs::Fsync(std::string_view path) {
  if (FaultSim::Trip("fs.fsync")) {
    return Err(ErrorCode::kIoError, StrCat("simulated fsync failure: ", path));
  }
  auto it = files_.find(Normalize(path));
  if (it == files_.end()) {
    return Err(ErrorCode::kNotFound, StrCat("fsync: no such file: ", path));
  }
  SimFile& file = it->second;
  file.dirty = false;
  file.exists_durably = true;
  file.synced_bytes.clear();
  file.synced_bytes.shrink_to_fit();
  return OkResult();
}

Result<void> SimFs::Rename(std::string_view from, std::string_view to) {
  if (FaultSim::Trip("fs.rename")) {
    return Err(ErrorCode::kIoError, StrCat("simulated rename failure: ", from, " -> ", to));
  }
  std::string norm_from = Normalize(from);
  std::string norm_to = Normalize(to);
  auto it = files_.find(norm_from);
  if (it == files_.end()) {
    return Err(ErrorCode::kNotFound, StrCat("rename: no such file: ", from));
  }
  if ((it->second.mode & kModeDir) != 0) {
    return Err(ErrorCode::kInvalidArgument, StrCat("rename: is a directory: ", from));
  }
  if (norm_from == norm_to) {
    return OkResult();
  }
  OMOS_TRY_VOID(CheckFilePlacement("rename", norm_to));
  SimFile file = std::move(it->second);
  files_.erase(it);
  size_t slash = norm_to.rfind('/');
  if (slash > 0) {
    Mkdir(std::string_view(norm_to).substr(0, slash));
  }
  files_.insert_or_assign(std::move(norm_to), std::move(file));
  return OkResult();
}

Result<void> SimFs::Remove(std::string_view path) {
  auto it = files_.find(Normalize(path));
  if (it == files_.end()) {
    return Err(ErrorCode::kNotFound, StrCat("remove: no such file: ", path));
  }
  if ((it->second.mode & kModeDir) != 0) {
    return Err(ErrorCode::kInvalidArgument, StrCat("remove: is a directory: ", path));
  }
  files_.erase(it);
  return OkResult();
}

void SimFs::DropUnsynced() {
  for (auto it = files_.begin(); it != files_.end();) {
    SimFile& file = it->second;
    if (!file.dirty) {
      ++it;
      continue;
    }
    if (!file.exists_durably) {
      it = files_.erase(it);
      continue;
    }
    file.bytes = std::move(file.synced_bytes);
    file.synced_bytes.clear();
    file.dirty = false;
    ++it;
  }
}

bool SimFs::Exists(std::string_view path) const { return Find(path) != files_.end(); }

Result<const SimFile*> SimFs::Lookup(std::string_view path) const {
  if (FaultSim::Trip("fs.read")) {
    return Err(ErrorCode::kIoError, StrCat("simulated read failure: ", path));
  }
  auto it = Find(path);
  if (it == files_.end()) {
    return Err(ErrorCode::kNotFound, StrCat("no such file: ", path));
  }
  return &it->second;
}

Result<SimFs::Files::const_iterator> SimFs::FindDir(std::string_view path) const {
  auto it = Find(path);
  if (it == files_.end()) {
    return Err(ErrorCode::kNotFound, StrCat("no such directory: ", path));
  }
  if ((it->second.mode & kModeDir) == 0) {
    return Err(ErrorCode::kInvalidArgument, StrCat("not a directory: ", path));
  }
  return it;
}

Result<std::vector<std::string>> SimFs::ListDir(std::string_view path) const {
  std::vector<std::string> names;
  OMOS_TRY_VOID(ForEachChild(path, 0, [&](std::string_view name, const SimFile&) {
    names.emplace_back(name);
    return true;
  }));
  return names;
}

}  // namespace omos
