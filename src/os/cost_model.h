// The simulated-time cost model.
//
// Every benchmark in this repository reports *simulated cycles*, split into
// user time (instructions retired by the task, plus lazy-binding work that
// real systems perform in user-mode dynamic-linker code — the paper
// attributes HP-UX's deferred-binding overhead to user time, §8.2) and
// system time (syscall entry, page mapping, image parsing, IPC).
//
// The parameters below are order-of-magnitude estimates for an early-1990s
// workstation measured in CPU cycles; Table 1's *shape* (who wins, and that
// the gap grows with relocation count and syscall count) is insensitive to
// their exact values — see EXPERIMENTS.md for a sensitivity note.
#ifndef OMOS_SRC_OS_COST_MODEL_H_
#define OMOS_SRC_OS_COST_MODEL_H_

#include <cstdint>

namespace omos {

struct CostModel {
  // Kernel entry/exit for any syscall.
  uint64_t syscall_overhead = 300;
  // Install one page mapping (shared or private) into an address space.
  uint64_t page_map = 120;
  // Copy/zero one private page (data segment instantiation).
  uint64_t page_copy = 400;
  // Fork/exec fixed overhead: task creation, stack setup.
  uint64_t exec_base = 4000;
  // Open a file by path.
  uint64_t file_open = 500;
  // Read one 4KB page from "disk" (buffer cache hit would be cheaper; we
  // model the warm case uniformly).
  uint64_t file_read_page = 250;
  // stat() beyond syscall overhead.
  uint64_t stat_cost = 250;
  // Per directory entry returned by getdents.
  uint64_t dirent_cost = 30;
  // Per byte written to the console device.
  uint64_t write_byte = 1;
  // Parse an executable or shared-library header (per file, per exec in the
  // traditional scheme; once per cache fill in OMOS).
  uint64_t header_parse = 800;
  // Per symbol parsed from a symbol table on load.
  uint64_t symbol_parse = 6;
  // Apply one dynamic relocation (rebase or patch a data word / GOT slot).
  uint64_t reloc_apply = 25;
  // One symbol lookup in a loaded module's hash table.
  uint64_t symbol_lookup = 60;
  // Prime one lazy linkage-table slot to its resolver stub.
  uint64_t got_slot_init = 4;
  // First touch of a text page by the instruction fetcher (demand paging /
  // cold i-cache). This is what the §4.1 reordering optimization reduces:
  // clustering hot routines shrinks the set of touched pages.
  uint64_t page_fault = 1500;
  // Kernel entry/exit + page-table update for a minor (soft) data fault —
  // no disk involved. Both demand-zero fills and CoW breaks pay this; the
  // fill/copy work is billed on top (zero_fill_page / page_copy).
  uint64_t soft_fault = 250;
  // Zero one demand page at first touch. Cheaper than page_copy: one-sided
  // store stream, no source read.
  uint64_t zero_fill_page = 120;
  // Write one 4KB page to "disk" (journal appends, image-store data files).
  // Slightly above file_read_page: allocation + writeback setup.
  uint64_t file_write_page = 300;
  // fsync(): flush dirty pages plus a device write barrier. Dominates the
  // durable-publish path, which is why the store batches one fsync per
  // journal step rather than per record field.
  uint64_t fsync = 6000;
  // Atomic rename (journaled metadata update: two directory blocks).
  uint64_t rename = 700;
  // One client<->OMOS IPC round trip (request + mapped reply). The paper's
  // bootstrap scheme pays this per exec; integrated exec does not (§5). The
  // HP-UX timings used System V messages — slow IPC — which is why Table 1
  // shows OMOS's system time far above HP-UX's at similar elapsed time.
  uint64_t ipc_round_trip = 9000;
  // One doors-style shared-memory ring handoff (src/ipc/ring_transport.h):
  // write the request into a mapped slot, ring the doorbell, the server
  // thread picks it up in place — no marshalling copy through the kernel, no
  // scheduler round trip through a message queue. This is the Solaris-doors
  // observation: a cross-process call can cost little more than a protected
  // procedure call. ~20x cheaper than ipc_round_trip.
  uint64_t ring_handoff = 400;
  // Per ring slot occupied beyond the first (large messages span slots; the
  // peer touches one extra cache-line-sized region per slot).
  uint64_t ring_slot = 40;
  // Server-side work for a cache hit: namespace traversal + cache lookup.
  uint64_t omos_cache_lookup = 700;
  // Prelinked-exec fast path: one probe of the set of prelinked paths,
  // then the image served with no link. No namespace traversal, no
  // blueprint normalization, no checksum walk — which is why it undercuts
  // omos_cache_lookup and lets warm prelinked exec beat integrated exec.
  uint64_t prelink_lookup = 150;
};

}  // namespace omos

#endif  // OMOS_SRC_OS_COST_MODEL_H_
