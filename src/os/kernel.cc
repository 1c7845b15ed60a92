#include "src/os/kernel.h"

#include <algorithm>
#include <cstring>

#include "src/os/cpu.h"
#include "src/support/faultsim.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

namespace omos {

Kernel::Kernel(CostModel costs)
    : costs_(costs),
      cow_faults_(MetricsRegistry::Global().GetCounter("vm.cow_faults")),
      demand_zero_fills_(MetricsRegistry::Global().GetCounter("vm.demand_zero_fills")),
      cow_broken_pages_(MetricsRegistry::Global().GetCounter("vm.cow_broken_pages")),
      frames_saved_(MetricsRegistry::Global().GetCounter("vm.frames_saved")) {
  // Eager, not lazy: engine() is called from admin/upgrade/driver threads
  // and must not race on first use.
  engine_ = std::make_unique<ExecEngine>(*this);
}

Task& Kernel::CreateTask(std::string name) {
  TaskId id;
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    id = next_task_id_++;
  }
  auto task = std::make_unique<Task>(id, std::move(name), phys_);
  Task& ref = *task;
  ref.BillSys(costs_.exec_base);
  // Route page faults from any access path (interpreter, syscalls, server
  // patching) through the billing/metrics handler.
  ref.space().SetFaultHandler(
      [this, task_ptr = &ref](const PageFaultInfo& info) { return HandleFault(*task_ptr, info); });
  // Published only once set up, so FindTask never returns a half-made task.
  std::lock_guard<std::mutex> lock(tasks_mu_);
  tasks_.emplace(id, std::move(task));
  return ref;
}

void Kernel::DestroyTask(TaskId id) {
  decltype(tasks_)::node_type released;  // the task is destroyed after the lock
  std::lock_guard<std::mutex> lock(tasks_mu_);
  released = tasks_.extract(id);
}

ExecEngine& Kernel::engine() { return *engine_; }

Task* Kernel::FindTask(TaskId id) {
  std::lock_guard<std::mutex> lock(tasks_mu_);
  auto it = tasks_.find(id);
  return it == tasks_.end() ? nullptr : it->second.get();
}

Result<void> Kernel::SetupStack(Task& task, std::span<const std::string> args) {
  uint32_t base = kStackTop - kStackSize;
  OMOS_TRY_VOID(MapDemandZero(task, base, kStackSize, kProtRead | kProtWrite, "stack"));

  // Write argv strings at the top of the stack, pointers below them.
  uint32_t cursor = kStackTop;
  std::vector<uint32_t> ptrs;
  for (const std::string& arg : args) {
    cursor -= static_cast<uint32_t>(arg.size()) + 1;
    OMOS_TRY_VOID(task.space().WriteBytes(cursor, arg.c_str(), static_cast<uint32_t>(arg.size()) + 1));
    ptrs.push_back(cursor);
  }
  cursor &= ~3u;
  cursor -= static_cast<uint32_t>(ptrs.size()) * 4;
  uint32_t argv = cursor;
  for (size_t i = 0; i < ptrs.size(); ++i) {
    OMOS_TRY_VOID(task.space().Write32(argv + static_cast<uint32_t>(i) * 4, ptrs[i]));
  }
  cursor -= 64;  // red zone below argv
  task.set_reg(0, static_cast<uint32_t>(args.size()));
  task.set_reg(1, argv);
  task.set_reg(kRegSp, cursor);
  return OkResult();
}

Result<void> Kernel::MapShared(Task& task, uint32_t base, const SegmentImage& image, uint8_t prot,
                               std::string name) {
  if (TraceEnabled()) {
    TraceInstant("kernel.map_shared", name, 0, costs_.page_map);
  }
  OMOS_TRY(uint32_t pages, task.space().MapShared(base, image, prot, std::move(name)));
  task.BillSys(costs_.page_map * pages);
  return OkResult();
}

Result<void> Kernel::MapPrivate(Task& task, uint32_t base, uint32_t size,
                                std::span<const uint8_t> init, uint8_t prot, std::string name) {
  if (TraceEnabled()) {
    TraceInstant("kernel.map_private", name, 0, costs_.page_map + costs_.page_copy);
  }
  OMOS_TRY(uint32_t pages, task.space().MapPrivate(base, size, init, prot, std::move(name)));
  task.BillSys((costs_.page_map + costs_.page_copy) * pages);
  return OkResult();
}

Result<void> Kernel::MapCoW(Task& task, uint32_t base, const SegmentImage& image, uint32_t size,
                            uint8_t prot, std::string name) {
  if (TraceEnabled()) {
    TraceInstant("kernel.map_cow", name, 0, costs_.page_map);
  }
  OMOS_TRY(uint32_t pages, task.space().MapCoW(base, image, size, prot, std::move(name)));
  task.BillSys(costs_.page_map * pages);
  // Every page mapped here avoided an eager private-frame copy; the ones
  // that are later written show up in vm.cow_broken_pages / demand_zero_fills.
  frames_saved_->Add(pages);
  return OkResult();
}

Result<void> Kernel::MapDemandZero(Task& task, uint32_t base, uint32_t size, uint8_t prot,
                                   std::string name) {
  OMOS_TRY(uint32_t pages, task.space().MapDemandZero(base, size, prot, std::move(name)));
  task.BillSys(costs_.page_map * pages);
  frames_saved_->Add(pages);
  return OkResult();
}

Result<void> Kernel::HandleFault(Task& task, const PageFaultInfo& info) {
  OMOS_TRY(FaultResolution resolution, task.space().HandleFault(info.addr, info.is_write));
  uint64_t cost = 0;
  const char* kind = nullptr;
  switch (resolution) {
    case FaultResolution::kDemandZeroFill:
      cost = costs_.soft_fault + costs_.zero_fill_page;
      demand_zero_fills_->Add(1);
      kind = "zero_fill";
      break;
    case FaultResolution::kCowCopy:
      cost = costs_.soft_fault + costs_.page_copy;
      cow_faults_->Add(1);
      cow_broken_pages_->Add(1);
      kind = "cow_copy";
      break;
    case FaultResolution::kCowAdopt:
      // Last owner of the frame: no copy, just flip it private.
      cost = costs_.soft_fault;
      cow_faults_->Add(1);
      cow_broken_pages_->Add(1);
      kind = "cow_adopt";
      break;
    case FaultResolution::kAlreadyResolved:
      return OkResult();
  }
  task.BillSys(cost);
  if (TraceEnabled()) {
    TraceInstant("kernel.fault", kind, 0, cost);
  }
  return OkResult();
}

const SegmentImage* Kernel::PageCacheGet(const std::string& key) const {
  auto it = page_cache_.find(key);
  return it == page_cache_.end() ? nullptr : &it->second;
}

Result<const SegmentImage*> Kernel::PageCachePut(std::string key, std::span<const uint8_t> bytes) {
  OMOS_TRY(SegmentImage image, SegmentImage::Create(phys_, bytes));
  auto [it, inserted] = page_cache_.insert_or_assign(std::move(key), std::move(image));
  return &it->second;
}

void Kernel::SetSysHook(uint32_t sysno, SysHook hook) { sys_hooks_[sysno] = std::move(hook); }

void Kernel::SetSafepointHook(SafepointHook hook) { safepoint_hook_ = std::move(hook); }

Result<void> Kernel::RunTask(Task& task, uint64_t max_instructions) {
  // Span annotated with the simulated user/sys cycles this run consumed
  // (delta of the task's accounting across the run).
  TraceSpan trace("kernel.run_task", task.name());
  uint64_t user_before = task.user_cycles();
  uint64_t sys_before = task.sys_cycles();
  struct SimBill {
    TraceSpan& span;
    Task& task;
    uint64_t user_before;
    uint64_t sys_before;
    ~SimBill() {
      span.AddSimCycles(task.user_cycles() - user_before, task.sys_cycles() - sys_before);
    }
  } bill{trace, task, user_before, sys_before};
  uint64_t executed = 0;
  while (task.state() == TaskState::kRunnable) {
    if (executed >= max_instructions) {
      return Err(ErrorCode::kExecFault,
                 StrCat(task.name(), ": exceeded instruction budget ", max_instructions));
    }
    // Safepoint: between instructions the frame is consistent, so a pending
    // live-upgrade may inspect and rewrite it here. One relaxed load when no
    // upgrade is in flight.
    if (task.safepoint_pending() && safepoint_hook_) {
      Result<void> sp = safepoint_hook_(*this, task);
      if (!sp.ok()) {
        task.Fault(sp.error());
        return sp.error();
      }
      if (task.state() != TaskState::kRunnable) {
        break;
      }
    }
    // Block engine, unless a safepoint is still pending (a deferred drain
    // leaves the flag set): then single-step so the hook is re-consulted at
    // every instruction boundary, exactly like the legacy loop.
    if (engine_mode_ == EngineMode::kBlocks && !task.safepoint_pending()) {
      Result<void> run = engine().Run(task, max_instructions, &executed);
      if (!run.ok()) {
        task.Fault(run.error());
        return run.error();
      }
      continue;
    }
    Result<void> step = CpuStep(*this, task);
    if (!step.ok()) {
      task.Fault(step.error());
      return step.error();
    }
    ++executed;
  }
  if (task.state() == TaskState::kFaulted) {
    return task.fault().value();
  }
  return OkResult();
}

Result<void> Kernel::Syscall(Task& task, uint32_t sysno) {
  task.BillSys(costs_.syscall_overhead);
  switch (sysno) {
    case kSysExit:
      task.Exit(static_cast<int>(task.reg(0)));
      return OkResult();
    case kSysWrite:
      return SysWrite(task);
    case kSysRead:
      return SysRead(task);
    case kSysOpen:
      return SysOpen(task);
    case kSysClose:
      task.CloseFd(static_cast<int>(task.reg(0)));
      task.set_reg(0, 0);
      return OkResult();
    case kSysBrk:
      return SysBrk(task);
    case kSysGetdents:
      return SysGetdents(task);
    case kSysStat:
      return SysStat(task);
    case kSysTime:
      task.set_reg(0, static_cast<uint32_t>(task.elapsed_cycles() / 1000));
      return OkResult();
    default: {
      auto it = sys_hooks_.find(sysno);
      if (it != sys_hooks_.end()) {
        return it->second(*this, task);
      }
      return Err(ErrorCode::kExecFault, StrCat(task.name(), ": unknown syscall ", sysno));
    }
  }
}

Result<void> Kernel::SysWrite(Task& task) {
  int fd = static_cast<int>(task.reg(0));
  uint32_t buf = task.reg(1);
  uint32_t len = task.reg(2);
  if (len > 1u << 20) {
    task.set_reg(0, static_cast<uint32_t>(-1));
    return OkResult();
  }
  // Console bytes go straight from guest pages into the output. Other fds
  // still read the buffer (and fault its pages in) before failing.
  bool console = fd == 1 || fd == 2;
  size_t mark = task.output().size();
  for (uint32_t done = 0; done < len;) {
    uint32_t chunk = 0;
    Result<const uint8_t*> span = task.space().ReadSpan(buf + done, len - done, &chunk);
    if (!span.ok()) {
      task.TruncateOutput(mark);
      return span.error();
    }
    if (console) {
      task.AppendOutput(std::string_view(reinterpret_cast<const char*>(*span), chunk));
    }
    done += chunk;
  }
  task.BillSys(costs_.write_byte * len);
  if (console) {
    task.set_reg(0, len);
    return OkResult();
  }
  // Writing to SimFs files is not needed by the workloads; report error.
  task.set_reg(0, static_cast<uint32_t>(-1));
  return OkResult();
}

Result<void> Kernel::SysRead(Task& task) {
  int fd = static_cast<int>(task.reg(0));
  uint32_t buf = task.reg(1);
  uint32_t len = task.reg(2);
  FdEntry* entry = task.FindFd(fd);
  if (entry == nullptr || entry->is_dir) {
    task.set_reg(0, static_cast<uint32_t>(-1));
    return OkResult();
  }
  auto file = fs_.Lookup(entry->path);
  if (!file.ok()) {
    task.set_reg(0, static_cast<uint32_t>(-1));
    return OkResult();
  }
  const std::vector<uint8_t>& bytes = (*file)->bytes;
  uint32_t avail = entry->offset >= bytes.size()
                       ? 0
                       : static_cast<uint32_t>(bytes.size()) - entry->offset;
  uint32_t n = std::min(len, avail);
  if (n > 0) {
    OMOS_TRY_VOID(task.space().WriteBytes(buf, bytes.data() + entry->offset, n));
    entry->offset += n;
  }
  task.BillSys(costs_.file_read_page * ((n + kPageSize - 1) / kPageSize));
  task.set_reg(0, n);
  return OkResult();
}

Result<void> Kernel::SysOpen(Task& task) {
  OMOS_TRY(std::string path, task.space().ReadCString(task.reg(0)));
  task.BillSys(costs_.file_open);
  FdEntry entry;
  entry.path = SimFs::Normalize(path);
  auto file = fs_.Lookup(entry.path);
  if (!file.ok()) {
    task.set_reg(0, static_cast<uint32_t>(-1));
    return OkResult();
  }
  entry.is_dir = ((*file)->mode & kModeDir) != 0;
  task.set_reg(0, static_cast<uint32_t>(task.AllocFd(std::move(entry))));
  return OkResult();
}

Result<void> Kernel::SysGetdents(Task& task) {
  int fd = static_cast<int>(task.reg(0));
  uint32_t buf = task.reg(1);
  uint32_t len = task.reg(2);
  FdEntry* entry = task.FindFd(fd);
  if (entry == nullptr || !entry->is_dir) {
    task.set_reg(0, static_cast<uint32_t>(-1));
    return OkResult();
  }
  uint32_t written = 0;
  Result<void> copied = OkResult();
  OMOS_TRY_VOID(fs_.ForEachChild(
      entry->path, entry->dir_index, [&](std::string_view name, const SimFile& file) {
        if (written + kDirentSize > len) {
          return false;
        }
        // Reading an entry's metadata is a filesystem read: a fault skips
        // the entry.
        if (FaultSim::Trip("fs.read")) {
          ++entry->dir_index;
          return true;
        }
        uint8_t record[kDirentSize] = {0};
        auto put32 = [&](uint32_t off, uint32_t v) {
          record[off] = static_cast<uint8_t>(v);
          record[off + 1] = static_cast<uint8_t>(v >> 8);
          record[off + 2] = static_cast<uint8_t>(v >> 16);
          record[off + 3] = static_cast<uint8_t>(v >> 24);
        };
        put32(0, file.inode);
        put32(4, static_cast<uint32_t>(file.bytes.size()));
        put32(8, file.mode);
        put32(12, file.mtime);
        std::memcpy(record + 16, name.data(), std::min<size_t>(name.size(), kDirentNameLen - 1));
        copied = task.space().WriteBytes(buf + written, record, kDirentSize);
        if (!copied.ok()) {
          return false;
        }
        written += kDirentSize;
        ++entry->dir_index;
        task.BillSys(costs_.dirent_cost);
        return true;
      }));
  OMOS_TRY_VOID(copied);
  task.set_reg(0, written);
  return OkResult();
}

Result<void> Kernel::SysStat(Task& task) {
  OMOS_TRY(std::string path, task.space().ReadCString(task.reg(0)));
  task.BillSys(costs_.stat_cost);
  auto file = fs_.Lookup(path);
  if (!file.ok()) {
    task.set_reg(0, static_cast<uint32_t>(-1));
    return OkResult();
  }
  uint32_t buf = task.reg(1);
  OMOS_TRY_VOID(task.space().Write32(buf, static_cast<uint32_t>((*file)->bytes.size())));
  OMOS_TRY_VOID(task.space().Write32(buf + 4, (*file)->mode));
  OMOS_TRY_VOID(task.space().Write32(buf + 8, (*file)->mtime));
  OMOS_TRY_VOID(task.space().Write32(buf + 12, (*file)->inode));
  task.set_reg(0, 0);
  return OkResult();
}

Result<void> Kernel::SysBrk(Task& task) {
  uint32_t request = task.reg(0);
  if (request == 0 || request <= task.brk()) {
    task.set_reg(0, task.brk());
    return OkResult();
  }
  uint32_t old_end = PageAlignUp(task.brk());
  uint32_t new_end = PageAlignUp(request);
  if (new_end > old_end) {
    OMOS_TRY_VOID(MapDemandZero(task, old_end, new_end - old_end, kProtRead | kProtWrite, "heap"));
  }
  task.set_brk(request);
  task.set_reg(0, request);
  return OkResult();
}

}  // namespace omos
