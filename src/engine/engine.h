// Predecoded direct-threaded execution engine.
//
// CpuStep() re-fetches and re-decodes 8 bytes on every instruction. For the
// paper's workloads — tight benchmark loops executing the same cached text
// in many tasks — that decode work is pure overhead: text pages are
// immutable once mapped (read|exec, never writable), so each page's
// instructions can be decoded once and reused by every task that maps the
// same frames.
//
// One lookup design finds a block:
//
//   - Shared block tables: predecoded superblocks hang off the *physical*
//     text frame they were decoded from (a PhysMemory frame attachment). A
//     frame's table is a dense array of atomic block pointers indexed by
//     page offset / 8, filled by compare-and-swap: a racing decode that
//     loses frees its copy, and a reader needs no lock. Frame identity is
//     the natural analog of "(image fingerprint, page)" — two tasks that
//     MapShared the same SegmentImage map the same frames and therefore
//     share decoded blocks. A block lives and dies with its frame:
//     PhysMemory deletes the table when it frees the frame, so a recycled
//     frame starts with none, a rebuilt image (new frames) can never hit a
//     stale block, and an image that survives a library redefinition keeps
//     its blocks. Nothing is flushed and nothing is capped: decoded memory
//     is bounded by live text (4 KiB of table per text frame with blocks).
//
//   - A per-task page table maps a virtual text page to its frame's block
//     table, plus a small software TLB in front of data loads/stores. Both
//     are tagged with AddressSpace::map_epoch() and flushed on mismatch —
//     map changes and CoW breaks cost one compare per block entry, not a
//     callback web. A page-table entry also carries the page's first-touch
//     bit, so the text page-fault bill is settled once per fill instead of
//     searching the task's touched pages on every page change. Raw
//     pointers need no pin: an entry points only into frames its own task
//     maps, and unmapping one bumps that task's map epoch before the task's
//     next lookup. A block that unmaps its own text (`sys omos_unload` on
//     itself) ends at the syscall and is not touched after it. Both tables
//     are the task's own attachment (a TaskAttachment): Run makes them on
//     the task's first entry, finds them with one pointer load on every
//     later one, and they die with the task, so the engine keeps no task
//     table and takes no lock to reach them.
//
// A block is a run of instructions within one text page ending at the first
// control-flow instruction (branch, jump, call, ret, sys, halt), the page
// edge, or an undecodable instruction, followed by a sentinel that falls
// through to the next pc. Blocks chain: a block-ending branch, jump, call
// or return (or the sentinel) looks up its successor in the page table and
// jumps straight into it. Control returns to the caller only on a syscall,
// halt or fault, at the end of the budget or a pending safepoint, or when
// the successor misses the page table or its block table (the slow path
// fills both). A pc that is not 8-byte aligned single-steps through
// CpuStep, as does writable text (never cached).
//
// Executing a block replicates CpuStep's per-instruction order exactly —
// CountInstruction, profiler sample at the pre-execution pc, first-touch
// text-page billing, pc_next update — so retired counts, simulated cycles
// and profile sample streams are byte-identical between engines. The budget
// and profiler checks run once per block: with the profiler off and the
// whole block inside the remaining budget no boundary in it can stop or
// sample, so the block runs unchecked and its instructions are retired in
// a local count that reaches the task before anything reads it (at exit,
// before a syscall or single step, and before a checked block). Otherwise
// the block dispatches through a second label table whose entries run the
// checked prologue before each instruction.
#ifndef OMOS_SRC_ENGINE_ENGINE_H_
#define OMOS_SRC_ENGINE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>

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
  class Counter* block_hits;      // engine.block_hits (block entries that decoded nothing)
  class Counter* l1_misses;       // engine.l1_misses (slow lookups: page-table fills, decodes)
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

  // Introspection (tests): blocks alive on this kernel's frames.
  size_t CachedBlocks() const;

 private:
  struct DecodedInsn;
  struct Block;
  struct FrameBlocks;
  // Named TaskCache, not TaskState: the os layer already uses TaskState for
  // the run-state enum and these methods see both scopes.
  struct TaskCache;

  // The slow path of a block lookup: fill the page-table entry for `pc`'s
  // page, then find or decode the block at `pc`. Returns nullptr (ok) when
  // the pc is not cacheable (unaligned, writable text) and the caller
  // should single-step; returns the error FetchBytes/DecodeInsn would raise
  // so the fault surfaces exactly once, with the legacy message.
  Result<const Block*> LookupSlow(Task& task, TaskCache& st, uint32_t pc);

  Kernel& kernel_;

  std::shared_ptr<std::atomic<size_t>> live_blocks_ = std::make_shared<std::atomic<size_t>>(0);
};

}  // namespace omos

#endif  // OMOS_SRC_ENGINE_ENGINE_H_
