// Predecoded direct-threaded execution engine.
//
// CpuStep() re-fetches and re-decodes 8 bytes on every instruction. For the
// paper's workloads — tight benchmark loops executing the same cached text
// in many tasks — that decode work is pure overhead: text pages are
// immutable once mapped (read|exec, never writable), so each page's
// instructions can be decoded once and reused by every task that maps the
// same frames.
//
// The engine keeps two cache levels:
//
//   - Shared blocks (L2): predecoded superblocks hang off the *physical*
//     text frame they were decoded from (a PhysMemory frame attachment),
//     keyed by page offset. Frame identity is the natural analog of
//     "(image fingerprint, page)" — two tasks that MapShared the same
//     SegmentImage map the same frames and therefore share decoded blocks.
//     A block lives and dies with its frame: PhysMemory deletes the blocks
//     when it frees the frame, so a recycled frame starts with none, a
//     rebuilt image (new frames) can never hit a stale block, and an image
//     that survives a library redefinition keeps its blocks. Nothing is
//     flushed and nothing is capped: decoded memory is bounded by live text.
//
//   - A per-task direct-mapped block lookaside (L1) keyed by virtual pc,
//     plus a small software TLB in front of data loads/stores. Both are
//     tagged with AddressSpace::map_epoch() and self-flush on mismatch —
//     map changes and CoW breaks cost one compare per block entry, not a
//     callback web. The L1 has 1024 entries, enough for a compiler-sized
//     hot set, and stores raw block pointers stamped with a per-cache tag,
//     so a flush bumps the tag in O(1). A raw pointer needs no pin: an L1
//     entry points only into frames its own task maps, and unmapping one
//     bumps that task's map epoch before the task's next lookup. A block
//     that unmaps its own text (`sys omos_unload` on itself) ends at the
//     syscall and is not touched after it. Caches of destroyed tasks are
//     parked on a short free list and reset when a new task takes one, so
//     an exec pays neither the allocation nor a full clear.
//
// A block is a run of instructions within one text page ending at the first
// control-flow instruction (branch, jump, call, ret, sys, halt), the page
// edge, or an undecodable instruction. Executing a block replicates
// CpuStep's per-instruction order exactly — CountInstruction, profiler
// sample at the pre-execution pc, first-touch text-page billing, pc_next
// update — so retired counts, simulated cycles and profile sample streams
// are byte-identical between engines. The budget and profiler checks run
// once per block: with the profiler off and the whole block inside the
// remaining budget no boundary in it can stop or sample, so the block runs
// unchecked and retires its instructions at exit (before a syscall, and up
// to the faulting instruction on a mid-block fault). Pages mapped
// writable+executable are never cached; they fall back to CpuStep.
#ifndef OMOS_SRC_ENGINE_ENGINE_H_
#define OMOS_SRC_ENGINE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/support/result.h"
#include "src/vm/phys_memory.h"

namespace omos {

class Kernel;
class Task;

// Which execution loop Kernel::RunTask drives.
enum class EngineMode : uint8_t {
  kBlocks,  // predecoded block engine (default)
  kInterp,  // legacy per-instruction CpuStep — the differential oracle
};

// Session default: OMOS_ENGINE=interp selects the legacy interpreter
// (CI runs the full test suite once this way); anything else — including
// unset — selects the block engine.
EngineMode DefaultEngineMode();

// engine.* counters (stable registry pointers, looked up once).
struct EngineMetrics {
  class Counter* blocks_decoded;  // engine.blocks_decoded
  class Counter* block_hits;      // engine.block_hits (L1 + shared-cache hits)
  class Counter* l1_misses;       // engine.l1_misses (L1 misses that probed the shared cache)
  class Counter* tlb_hits;        // engine.tlb_hits
  class Counter* tlb_misses;      // engine.tlb_misses (slow-path accesses)
};
EngineMetrics& GetEngineMetrics();

// One engine per Kernel: it attaches blocks to the frames of that kernel's
// PhysMemory, and is that memory's only attachment user.
class ExecEngine {
 public:
  explicit ExecEngine(Kernel& kernel);
  ~ExecEngine();
  ExecEngine(const ExecEngine&) = delete;
  ExecEngine& operator=(const ExecEngine&) = delete;

  // Run `task` until it exits/faults, `*executed` reaches `budget`, or a
  // safepoint is requested. Increments `*executed` once per retired
  // instruction and stops exactly at the budget, mid-block if necessary, so
  // RunTask's budget semantics match the legacy loop. Errors are returned
  // un-Faulted, like CpuStep: the caller owns task.Fault().
  Result<void> Run(Task& task, uint64_t budget, uint64_t* executed);

  // Forget a destroyed task: its TLB/L1 state is parked for reuse by a
  // later task (and reset then) or freed.
  void DropTask(uint32_t task_id);

  // Introspection (tests): blocks alive on this kernel's frames.
  size_t CachedBlocks() const;

 private:
  struct DecodedInsn;
  struct Block;
  struct FrameBlocks;
  // Named TaskCache, not TaskState: the os layer already uses TaskState for
  // the run-state enum and these methods see both scopes.
  struct TaskCache;
  struct L1Entry;

  TaskCache& StateFor(const Task& task);
  // Find or decode the block starting at `pc`. Returns nullptr (ok) when the
  // pc is not cacheable (page-crossing fetch, writable text) and the caller
  // should single-step; returns the error FetchBytes/DecodeInsn would raise
  // so the fault surfaces exactly once, with the legacy message.
  Result<const Block*> LookupBlock(Task& task, TaskCache& st, uint32_t pc);
  // LookupBlock's L1-miss path: probe the frame's blocks (decoding on a
  // miss), then fill `slot`.
  Result<const Block*> FillL1(Task& task, TaskCache& st, uint32_t pc, L1Entry& slot);
  Result<void> ExecuteBlock(Task& task, TaskCache& st, const Block& block, uint64_t budget,
                            uint64_t* executed);

  Kernel& kernel_;

  std::mutex mu_;  // guards every FrameBlocks table and attaching one
  std::shared_ptr<std::atomic<size_t>> live_blocks_ = std::make_shared<std::atomic<size_t>>(0);

  std::mutex tasks_mu_;  // guards tasks_ (map shape only; states are per-driver), free_caches_
  std::map<uint32_t, std::unique_ptr<TaskCache>> tasks_;
  std::vector<std::unique_ptr<TaskCache>> free_caches_;  // dropped tasks' caches, not yet reset
};

}  // namespace omos

#endif  // OMOS_SRC_ENGINE_ENGINE_H_
