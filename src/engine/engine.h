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
//   - Decoded pages: a text frame is decoded whole, in one pass, on its
//     first lookup, and the decoded page hangs off the *physical* frame (a
//     PhysMemory frame attachment). An encoded word already has an
//     Instruction's layout, so the pass copies the page, turns each word
//     that does not decode into the Opcode::kCount sentinel, and puts one
//     more sentinel at the page edge. Attaching is a compare-and-swap: a
//     racing decode that loses frees its copy, and a reader needs no lock.
//     Frame identity is the natural analog of "(image fingerprint, page)" —
//     two tasks that MapShared the same SegmentImage map the same frames
//     and therefore share one decode. A decoded page lives and dies with
//     its frame: PhysMemory deletes it when it frees the frame, so a
//     recycled frame starts with none, a rebuilt image (new frames) can
//     never hit a stale decode, and an image that survives a library
//     redefinition keeps its. Nothing is flushed and nothing is capped:
//     decoded memory is bounded by live text (~5 KiB per decoded frame).
//
//   - A per-task page table maps a virtual text page to its frame's
//     decoded page, plus a small software TLB in front of data
//     loads/stores. Both are tagged with AddressSpace::map_epoch() and
//     flushed on mismatch — map changes and CoW breaks cost one compare per
//     lookup, not a callback web. A page-table entry also carries the
//     page's first-touch bit, so the text page-fault bill is settled once
//     per fill instead of searching the task's touched pages on every page
//     change. Raw pointers need no pin: an entry points only into frames
//     its own task maps, and unmapping one bumps that task's map epoch
//     before the task's next lookup. A block that unmaps its own text
//     (`sys omos_unload` on itself) ends at the syscall and is not touched
//     after it. Both tables are the task's own attachment (a
//     TaskAttachment): Run makes them on the task's first entry, finds them
//     with one pointer load on every later one, and they die with the task,
//     so the engine keeps no task table and takes no lock to reach them.
//
// A block is a position in a decoded page: the run of instructions from an
// aligned pc to the first control-flow instruction (branch, jump, call,
// ret, sys, halt), or up to the first sentinel (the page edge or an
// undecodable word), which falls through to the next pc. The pass records
// each position's run length, so a block costs no allocation and no decode
// of its own. Blocks chain: a block-ending branch, jump, call or return (or
// a sentinel) computes the next pc and jumps straight into its block. A
// next pc that is aligned and on the running block's page or on the page it
// came from, with the map epoch unchanged since that page was found, enters
// with no table lookup; any other goes through the page table. Control
// returns to the caller only on a syscall, halt or fault, at the end of the
// budget or a pending safepoint, or when the successor misses the page
// table (the slow path fills it, decoding the frame on its first visit). A
// pc that is not 8-byte aligned, an undecodable word and writable text
// (never cached) single-step through CpuStep, which raises DecodeInsn's
// error for the undecodable word.
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
  class Counter* blocks_decoded;  // engine.blocks_decoded (text pages decoded)
  class Counter* block_hits;      // engine.block_hits (block entries that decoded nothing)
  class Counter* l1_misses;       // engine.l1_misses (slow lookups: page-table fills)
  class Counter* tlb_hits;        // engine.tlb_hits
  class Counter* tlb_misses;      // engine.tlb_misses (slow-path accesses)
};
EngineMetrics& GetEngineMetrics();

// One engine per Kernel: it attaches decoded pages to the frames of that
// kernel's PhysMemory, and is that memory's only attachment user.
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

  // Introspection (tests): decoded pages alive on this kernel's frames.
  size_t DecodedPages() const;

 private:
  struct DecodedPage;
  // Named TaskCache, not TaskState: the os layer already uses TaskState for
  // the run-state enum and these methods see both scopes.
  struct TaskCache;

  // The slow path of a page lookup: fill the page-table entry for the
  // aligned `pc`'s page with its frame's decoded page, decoding the frame
  // on its first visit (`*decoded` is then set). Returns the decoded page,
  // or nullptr (ok) when the text is not cacheable (writable, or still
  // absent) and the caller should single-step; returns the error FetchBytes
  // would raise so the fault surfaces exactly once, with the legacy message.
  Result<const DecodedPage*> LookupSlow(Task& task, TaskCache& st, uint32_t pc, bool* decoded);

  Kernel& kernel_;

  std::shared_ptr<std::atomic<size_t>> live_pages_ = std::make_shared<std::atomic<size_t>>(0);
};

}  // namespace omos

#endif  // OMOS_SRC_ENGINE_ENGINE_H_
