// Kernel: the mini-OS — task lifecycle, syscalls, page cache, interpreter
// driver. Dynamic-linking syscalls (lazy resolve, OMOS demand-load) are
// pluggable hooks so the baseline rtld and the OMOS runtime can install
// their own policies without the kernel knowing about either.
#ifndef OMOS_SRC_OS_KERNEL_H_
#define OMOS_SRC_OS_KERNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "src/engine/engine.h"
#include "src/os/cost_model.h"
#include "src/os/sim_fs.h"
#include "src/os/task.h"
#include "src/support/result.h"
#include "src/vm/address_space.h"
#include "src/vm/phys_memory.h"

namespace omos {

// Syscall numbers (SYS imm).
enum Sysno : uint32_t {
  kSysExit = 0,      // r0 = code
  kSysWrite = 1,     // r0 = fd, r1 = buf, r2 = len -> bytes written
  kSysRead = 2,      // r0 = fd, r1 = buf, r2 = len -> bytes read
  kSysOpen = 3,      // r0 = path cstring -> fd or -1
  kSysClose = 4,     // r0 = fd
  kSysBrk = 5,       // r0 = new end (0 = query) -> current brk
  kSysGetdents = 6,  // r0 = fd, r1 = buf, r2 = len -> bytes (0 = end)
  kSysStat = 7,      // r0 = path, r1 = 16-byte buf -> 0 or -1
  kSysTime = 8,      // -> elapsed simulated microcycles (low 32 bits)
  // Dynamic linking traps; the kernel delegates to installed hooks.
  kSysResolve = 16,  // r12 = linkage slot index (baseline lazy binding)
  kSysDload = 17,    // r12 = slot index (OMOS partial-image lazy load)
  kSysMonLog = 18,   // r12 = function index (OMOS monitoring wrappers)
  kSysOmosLoad = 19, // r0 = blueprint/meta-path cstring, r1 = symbol cstring
                     //   -> r0 = bound address (0 on failure); dld-style
                     //   dynamic loading driven by the running program (§5)
  kSysOmosUnload = 20,  // r0 = text base of a previously loaded class -> r0 = 0/-1
};

// getdents(2) record layout: 16-byte header + 48-byte NUL-padded name.
inline constexpr uint32_t kDirentSize = 64;
inline constexpr uint32_t kDirentNameLen = 48;

// Stack geometry for new tasks.
inline constexpr uint32_t kStackTop = 0xFFF00000;
inline constexpr uint32_t kStackSize = 64 * 1024;

class Kernel {
 public:
  explicit Kernel(CostModel costs = {});

  PhysMemory& phys() { return phys_; }
  SimFs& fs() { return fs_; }
  const CostModel& costs() const { return costs_; }
  CostModel& mutable_costs() { return costs_; }

  // The task table is safe to use from any thread. A returned Task& or
  // Task* stays valid only until the task's owner destroys it: the table
  // does not pin tasks, and only the thread driving a task may run it. An
  // owner whose task an OmosServer maps calls OmosServer::ReleaseTask
  // before DestroyTask.
  Task& CreateTask(std::string name);
  void DestroyTask(TaskId id);
  Task* FindTask(TaskId id);

  // Map a stack and write argv; r0 = argc, r1 = argv pointer, sp set.
  Result<void> SetupStack(Task& task, std::span<const std::string> args);

  // Segment mapping with cost accounting (billed to the task's sys time).
  Result<void> MapShared(Task& task, uint32_t base, const SegmentImage& image, uint8_t prot,
                         std::string name);
  Result<void> MapPrivate(Task& task, uint32_t base, uint32_t size, std::span<const uint8_t> init,
                          uint8_t prot, std::string name);
  // Map a cached image copy-on-write: its pages stay shared until first
  // write; [image pages, size) is demand-zero bss. Per-exec cost is the
  // mappings, not a byte copy — the paper's vm_map CoW exec path (§5).
  Result<void> MapCoW(Task& task, uint32_t base, const SegmentImage& image, uint32_t size,
                      uint8_t prot, std::string name);
  // Map demand-zero pages (stack, heap, bss): frames materialize on first
  // touch through the fault path.
  Result<void> MapDemandZero(Task& task, uint32_t base, uint32_t size, uint8_t prot,
                             std::string name);

  // Page-fault entry point: resolves the fault in the task's address space,
  // bills simulated cycles, and counts vm.* metrics. Installed as the
  // space's fault handler by CreateTask, so interpreter loads/stores/fetches
  // and kernel accesses all trap here.
  Result<void> HandleFault(Task& task, const PageFaultInfo& info);

  // Page cache: read-only text images shared across invocations, keyed by
  // path+generation. This is how the *baseline* gets text sharing; OMOS's
  // image cache lives in the server.
  const SegmentImage* PageCacheGet(const std::string& key) const;
  Result<const SegmentImage*> PageCachePut(std::string key, std::span<const uint8_t> bytes);

  // Dynamic-linking trap hooks.
  using SysHook = std::function<Result<void>(Kernel&, Task&)>;
  void SetSysHook(uint32_t sysno, SysHook hook);

  // Live-upgrade safepoint hook: when a task's safepoint_pending flag is
  // set, RunTask calls the hook at the next instruction boundary — a point
  // where no instruction is mid-flight, so pc/registers/stack describe a
  // consistent frame the hook may inspect and rewrite (OSR-style frame
  // transfer). The hook runs on the thread driving the task; the check for
  // the common (no-upgrade) case is one relaxed atomic load per
  // instruction.
  using SafepointHook = std::function<Result<void>(Kernel&, Task&)>;
  void SetSafepointHook(SafepointHook hook);

  // Run the task until it exits, faults, or exceeds `max_instructions`.
  // Drives the predecoded block engine by default; SetEngineMode (or the
  // OMOS_ENGINE=interp environment override) selects the legacy
  // per-instruction interpreter, which is kept as a differential oracle.
  // Simulated cycles, retired counts, and profiler samples are identical
  // between the two engines.
  Result<void> RunTask(Task& task, uint64_t max_instructions = 200'000'000);

  // Execution-engine selection and access. The engine is per-kernel: it
  // attaches decoded blocks to the frames of this kernel's PhysMemory, and
  // each task carries its own translation caches as its TaskAttachment.
  EngineMode engine_mode() const { return engine_mode_; }
  void SetEngineMode(EngineMode mode) { engine_mode_ = mode; }
  ExecEngine& engine();

  // One syscall (called by the CPU; public for tests).
  Result<void> Syscall(Task& task, uint32_t sysno);

 private:
  Result<void> SysWrite(Task& task);
  Result<void> SysRead(Task& task);
  Result<void> SysOpen(Task& task);
  Result<void> SysGetdents(Task& task);
  Result<void> SysStat(Task& task);
  Result<void> SysBrk(Task& task);

  CostModel costs_;
  // vm.* fault metrics (stable registry pointers, looked up once).
  class Counter* cow_faults_;
  class Counter* demand_zero_fills_;
  class Counter* cow_broken_pages_;
  class Counter* frames_saved_;
  PhysMemory phys_;
  SimFs fs_;
  // Guards tasks_ and next_task_id_. A leaf lock: nothing is called while
  // it is held, and a destroyed task is deleted after it is released. It
  // ranks below every lock of the kernel's callers (the server's upgrade
  // repoint and abort call FindTask under runtimes_mu_), never the other way
  // round.
  std::mutex tasks_mu_;
  std::map<TaskId, std::unique_ptr<Task>> tasks_;
  std::map<std::string, SegmentImage> page_cache_;
  std::map<uint32_t, SysHook> sys_hooks_;
  SafepointHook safepoint_hook_;
  EngineMode engine_mode_ = DefaultEngineMode();
  std::unique_ptr<ExecEngine> engine_;
  TaskId next_task_id_ = 1;  // guarded by tasks_mu_
};

}  // namespace omos

#endif  // OMOS_SRC_OS_KERNEL_H_
