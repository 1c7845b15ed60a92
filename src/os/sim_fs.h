// SimFs: the in-memory filesystem the mini-OS serves syscalls from.
//
// Workload programs (`ls` variants) list and stat these files; loaders read
// executables and libraries out of them.
//
// Durability model (PR 6). Each file tracks which content is *durable* —
// guaranteed to survive a simulated power loss. The legacy WriteFile/
// TryWriteFile paths are immediately durable (the historical behavior, and
// what workload installation wants). The unsynced write paths model a page
// cache: new bytes are visible to readers at once but revert to the last
// fsynced content on crash — a file never fsynced since creation vanishes
// entirely. `Fsync` makes the current bytes durable; `Rename` is an atomic,
// journaled metadata operation (the classic publish step: write tmp, fsync,
// rename). `DropUnsynced` is the crash itself: tests call it to model the
// kernel's dirty pages dying with the machine. The persistent image store
// (src/store/) is built on exactly these primitives.
#ifndef OMOS_SRC_OS_SIM_FS_H_
#define OMOS_SRC_OS_SIM_FS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/result.h"

namespace omos {

// POSIX-flavoured mode bits (octal): 0040000 directory, 0100000 regular.
inline constexpr uint32_t kModeDir = 0040000;
inline constexpr uint32_t kModeFile = 0100000;

struct SimFile {
  std::vector<uint8_t> bytes;
  uint32_t mode = kModeFile | 0644;
  uint32_t mtime = 0;
  uint32_t inode = 0;
  // Durability state. `dirty` means `bytes` differ from the durable content;
  // `exists_durably` false means no fsync ever covered this file (it
  // vanishes on crash). `synced_bytes` holds the durable content only while
  // dirty && exists_durably.
  bool dirty = false;
  bool exists_durably = true;
  std::vector<uint8_t> synced_bytes;
};

class SimFs {
 public:
  SimFs();

  // Create or replace a regular file; parent directories are created.
  // Immediately durable (legacy semantics — installation-time writes). A
  // path that is a directory, or lies below a regular file, is left as it
  // is and the refusal logged; the Try* writes return it as
  // kInvalidArgument instead.
  void WriteFile(std::string_view path, std::vector<uint8_t> bytes, uint32_t perm = 0644);
  void WriteFile(std::string_view path, std::string_view text, uint32_t perm = 0644);

  // Fault-aware write: like WriteFile, but the "fs.write" fault site can
  // fail it with kIoError (in which case nothing is written). Callers that
  // must survive storage faults use this and handle the error.
  Result<void> TryWriteFile(std::string_view path, std::vector<uint8_t> bytes,
                            uint32_t perm = 0644);
  Result<void> TryWriteFile(std::string_view path, std::string_view text, uint32_t perm = 0644);

  // Page-cache write: visible immediately, durable only after Fsync. Trips
  // "fs.write". The durability-aware callers (the image store) use these.
  Result<void> TryWriteUnsynced(std::string_view path, std::vector<uint8_t> bytes,
                                uint32_t perm = 0644);
  // Append to a file (created empty first if absent), unsynced. Trips
  // "fs.write".
  Result<void> TryAppendUnsynced(std::string_view path, const std::vector<uint8_t>& bytes);

  // Make `path`'s current bytes durable. Trips "fs.fsync" (an fsync that
  // returns EIO leaves the durable content unchanged — the writeback
  // failed). kNotFound for missing files.
  Result<void> Fsync(std::string_view path);

  // Atomically rename `from` to `to` (replacing `to` if present). The
  // rename itself is journaled metadata — durable immediately — but the
  // file's *content* durability travels with it: renaming a never-synced
  // file publishes a name whose bytes still die on crash (the classic
  // zero-length-file bug; the store fsyncs before renaming). Trips
  // "fs.rename" before any mutation. A `to` that is a directory, or lies
  // below a regular file, is kInvalidArgument.
  Result<void> Rename(std::string_view from, std::string_view to);

  // Delete a regular file (durable immediately). kNotFound if absent.
  Result<void> Remove(std::string_view path);

  // Simulated power loss: every dirty file reverts to its durable content;
  // files that were never fsynced disappear. Directories survive.
  void DropUnsynced();

  void Mkdir(std::string_view path);

  bool Exists(std::string_view path) const;
  Result<const SimFile*> Lookup(std::string_view path) const;

  // Names (not paths) of entries directly under `path`, sorted.
  Result<std::vector<std::string>> ListDir(std::string_view path) const;

  // Calls `visit(name, file)` for each entry directly under `path`, in
  // ListDir's order, after skipping the first `skip` of them, until `visit`
  // returns false. Nothing is copied: `name` and `file` point into the
  // filesystem and are valid only during the call. Same errors as ListDir.
  template <typename Visit>
  Result<void> ForEachChild(std::string_view path, size_t skip, Visit&& visit) const;

  size_t file_count() const { return files_.size(); }

  // Absolute, with no empty or "." component and no trailing slash; ".." is
  // kept as an ordinary name. A path already in this form is returned as is.
  static std::string Normalize(std::string_view path);

 private:
  using Files = std::map<std::string, SimFile, std::less<>>;

  Files::const_iterator Find(std::string_view path) const;
  Result<Files::const_iterator> FindDir(std::string_view path) const;
  // The one placement rule of the write and rename paths: a regular file
  // may not replace a directory (its children would stay reachable by path
  // but could no longer be listed), nor sit below a regular file.
  // kInvalidArgument naming the path, prefixed by `op`, otherwise.
  Result<void> CheckFilePlacement(std::string_view op, std::string_view norm_path) const;
  // Shared body of the write paths; refuses (changing nothing) a path that
  // breaks CheckFilePlacement.
  Result<void> PutBytes(std::string_view norm_path, std::vector<uint8_t> bytes, uint32_t perm,
                        bool durable);

  Files files_;
  uint32_t next_inode_ = 2;
};

template <typename Visit>
Result<void> SimFs::ForEachChild(std::string_view path, size_t skip, Visit&& visit) const {
  OMOS_TRY(Files::const_iterator dir, FindDir(path));
  // Keys under the directory share `prefix`, so map order restricted to
  // the immediate children is the children's sorted name order.
  std::string prefix = dir->first;
  if (prefix.back() != '/') {
    prefix.push_back('/');
  }
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    std::string_view key = it->first;
    if (key.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    std::string_view name = key.substr(prefix.size());
    if (name.empty() || name.find('/') != std::string_view::npos) {
      continue;
    }
    if (skip > 0) {
      --skip;
      continue;
    }
    if (!visit(name, it->second)) {
      break;
    }
  }
  return OkResult();
}

}  // namespace omos

#endif  // OMOS_SRC_OS_SIM_FS_H_
