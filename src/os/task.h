// Task: a simulated process — address space, register file, accounting.
#ifndef OMOS_SRC_OS_TASK_H_
#define OMOS_SRC_OS_TASK_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/isa/isa.h"
#include "src/support/result.h"
#include "src/vm/address_space.h"

namespace omos {

using TaskId = uint32_t;

// Every task's brk heap starts here, whatever it maps: above the arenas the
// placement solver hands out (SolverArenas) and below the stack, so a heap
// grown by brk never lies where an image can be placed or loaded later.
inline constexpr uint32_t kHeapBase = 0x80000000;

enum class TaskState { kRunnable, kExited, kFaulted };

// An open file descriptor. `path` is in SimFs's normal form, so reads and
// getdents() look it up without normalizing it again. Directories remember
// how many dirents have been consumed by getdents().
struct FdEntry {
  std::string path;
  uint32_t offset = 0;
  bool is_dir = false;
  uint32_t dir_index = 0;
};

// Executor state a task carries: the execution engine's per-task
// translation caches. Opaque here, as FrameAttachment is to src/vm, so
// task.h includes nothing from src/engine. The task owns its attachment
// and deletes it when destroyed; only the thread driving the task reads or
// installs it.
class TaskAttachment {
 public:
  virtual ~TaskAttachment() = default;
};

class Task {
 public:
  Task(TaskId id, std::string name, PhysMemory& phys)
      : id_(id), name_(std::move(name)), space_(std::make_unique<AddressSpace>(phys)) {
    regs_.fill(0);
  }

  TaskId id() const { return id_; }
  const std::string& name() const { return name_; }

  AddressSpace& space() { return *space_; }
  const AddressSpace& space() const { return *space_; }

  uint32_t reg(int i) const { return regs_[static_cast<size_t>(i)]; }
  void set_reg(int i, uint32_t v) { regs_[static_cast<size_t>(i)] = v; }
  uint32_t pc() const { return pc_; }
  void set_pc(uint32_t pc) { pc_ = pc; }

  TaskState state() const { return state_; }
  int exit_code() const { return exit_code_; }
  const std::optional<Error>& fault() const { return fault_; }

  void Exit(int code) {
    state_ = TaskState::kExited;
    exit_code_ = code;
  }
  void Fault(Error error) {
    state_ = TaskState::kFaulted;
    fault_ = std::move(error);
  }

  // Accounting (simulated cycles).
  uint64_t user_cycles() const { return user_cycles_; }
  uint64_t sys_cycles() const { return sys_cycles_; }
  uint64_t elapsed_cycles() const { return user_cycles_ + sys_cycles_; }
  void BillUser(uint64_t cycles) { user_cycles_ += cycles; }
  void BillSys(uint64_t cycles) { sys_cycles_ += cycles; }

  // Captured console output (fds 1 and 2).
  const std::string& output() const { return output_; }
  void AppendOutput(std::string_view text) { output_ += text; }
  // Drops output past `size` (undoes appends of a syscall that then failed).
  void TruncateOutput(size_t size) { output_.resize(std::min(size, output_.size())); }

  // File descriptors. 0/1/2 are reserved for console.
  int AllocFd(FdEntry entry) {
    int fd = next_fd_++;
    fds_[fd] = std::move(entry);
    return fd;
  }
  FdEntry* FindFd(int fd) {
    auto it = fds_.find(fd);
    return it == fds_.end() ? nullptr : &it->second;
  }
  void CloseFd(int fd) { fds_.erase(fd); }

  uint32_t brk() const { return brk_; }
  void set_brk(uint32_t brk) { brk_ = brk; }

  uint64_t instructions_retired() const { return instructions_retired_; }
  void CountInstruction() { CountInstructions(1); }
  void CountInstructions(uint64_t n) {
    instructions_retired_ += n;
    user_cycles_ += n;
  }

  // Demand-paging accounting for instruction fetch: returns true the first
  // time `page` (pc >> 12) is executed from.
  bool TouchTextPage(uint32_t page) {
    if (page == last_fetch_page_) {
      return false;
    }
    last_fetch_page_ = page;
    return InsertTextPage(page);
  }
  size_t touched_text_pages() const { return touched_text_pages_.size(); }

  // Live-upgrade safepoint request (src/upgrade/): another thread sets the
  // flag when this task should pause at the next instruction boundary so
  // the kernel's safepoint hook can migrate it. The flag is the only Task
  // state touched cross-thread; everything the hook reads beyond it is
  // published under the upgrade engine's lock, so a relaxed poll suffices.
  bool safepoint_pending() const {
    return safepoint_pending_.load(std::memory_order_relaxed);
  }
  void RequestSafepoint() { safepoint_pending_.store(true, std::memory_order_release); }
  void ClearSafepoint() { safepoint_pending_.store(false, std::memory_order_relaxed); }

  // The executor's attachment (nullptr until the first Attach), and its
  // installation, which replaces any earlier one.
  TaskAttachment* attachment() const { return attachment_.get(); }
  TaskAttachment& Attach(std::unique_ptr<TaskAttachment> attachment) {
    attachment_ = std::move(attachment);
    return *attachment_;
  }

 private:
  // TouchTextPage's page-change path, kept out of it so the same-page check
  // stays small enough to inline into the execution loops.
  bool InsertTextPage(uint32_t page) {
    auto it = std::lower_bound(touched_text_pages_.begin(), touched_text_pages_.end(), page);
    if (it != touched_text_pages_.end() && *it == page) {
      return false;
    }
    touched_text_pages_.insert(it, page);
    return true;
  }

  TaskId id_;
  std::string name_;
  std::unique_ptr<AddressSpace> space_;
  std::array<uint32_t, kNumRegisters> regs_;
  uint32_t pc_ = 0;
  TaskState state_ = TaskState::kRunnable;
  int exit_code_ = 0;
  std::optional<Error> fault_;
  uint64_t user_cycles_ = 0;
  uint64_t sys_cycles_ = 0;
  uint64_t instructions_retired_ = 0;
  std::string output_;
  std::map<int, FdEntry> fds_;
  int next_fd_ = 3;
  uint32_t brk_ = kHeapBase;
  uint32_t last_fetch_page_ = 0xFFFFFFFF;
  std::vector<uint32_t> touched_text_pages_;  // sorted; a few dozen pages
  std::atomic<bool> safepoint_pending_{false};
  std::unique_ptr<TaskAttachment> attachment_;
};

}  // namespace omos

#endif  // OMOS_SRC_OS_TASK_H_
