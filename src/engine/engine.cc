#include "src/engine/engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <utility>

#include "src/isa/isa.h"
#include "src/os/cpu.h"
#include "src/os/kernel.h"
#include "src/os/task.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

// Direct-threaded dispatch (computed goto) on GNU-compatible compilers;
// elsewhere the same op bodies are reached through a switch.
#if defined(__GNUC__) || defined(__clang__)
#define OMOS_ENGINE_DIRECT_THREADED 1
#define OMOS_ALWAYS_INLINE inline __attribute__((always_inline))
#define OMOS_NOINLINE __attribute__((noinline))
#else
#define OMOS_ENGINE_DIRECT_THREADED 0
#define OMOS_ALWAYS_INLINE inline
#define OMOS_NOINLINE
#endif

// Every opcode in Opcode order (kCount excluded: DecodeInsn rejects it, and
// the engine uses it as the sentinel that marks an undecodable word and the
// page edge).
#define OMOS_ENGINE_OPS(X)                                                                  \
  X(kHalt) X(kNop) X(kMovI) X(kMov) X(kLea) X(kLeaPc) X(kAdd) X(kSub) X(kMul) X(kDiv)     \
  X(kMod) X(kAnd) X(kOr) X(kXor) X(kShl) X(kShr) X(kAddI) X(kLd) X(kSt) X(kLdB) X(kStB)   \
  X(kLdPc) X(kBeq) X(kBne) X(kBlt) X(kBge) X(kBltu) X(kBgeu) X(kJmp) X(kBr) X(kJmpR)      \
  X(kCall) X(kCallPc) X(kCallR) X(kRet) X(kPush) X(kPop) X(kSys)

namespace omos {

namespace {

constexpr uint32_t kInvalidPage = 0xFFFFFFFFu;

// Instruction words per text page: a block head is an 8-byte-aligned pc.
constexpr uint32_t kSlotsPerPage = kPageSize / kInsnSize;

// A pc masked to its page base and its misalignment: equal to a page base
// exactly when the pc is an aligned pc on that page.
constexpr uint32_t kHeadMask = ~kPageMask | (kInsnSize - 1);
// A page base no masked pc equals (its bits 3-11 are set).
constexpr uint32_t kNoPage = kPageMask;

// Whether `op` ends a block: control flow, or an exit.
constexpr bool EndsBlock(Opcode op) {
  switch (op) {
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBltu:
    case Opcode::kBgeu:
    case Opcode::kJmp:
    case Opcode::kBr:
    case Opcode::kJmpR:
    case Opcode::kCall:
    case Opcode::kCallPc:
    case Opcode::kCallR:
    case Opcode::kRet:
    case Opcode::kSys:
    case Opcode::kHalt:
      return true;
    default:
      return false;
  }
}

inline uint32_t Load32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

inline void Store32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

// Writes Hex32(value) — "0x" and 8 lowercase hex digits — at `out`;
// returns the end.
char* WriteHex32(char* out, uint32_t value) {
  char digits[8];
  char* last = std::to_chars(digits, digits + sizeof digits, value, 16).ptr;
  *out++ = '0';
  *out++ = 'x';
  out = std::fill_n(out, sizeof digits - static_cast<size_t>(last - digits), '0');
  return std::copy(digits, last, out);
}

}  // namespace

EngineMode DefaultEngineMode() {
  const char* env = std::getenv("OMOS_ENGINE");
  if (env != nullptr && std::string_view(env) == "interp") {
    return EngineMode::kInterp;
  }
  return EngineMode::kBlocks;
}

EngineMetrics& GetEngineMetrics() {
  static EngineMetrics metrics{
      MetricsRegistry::Global().GetCounter("engine.blocks_decoded"),
      MetricsRegistry::Global().GetCounter("engine.block_hits"),
      MetricsRegistry::Global().GetCounter("engine.l1_misses"),
      MetricsRegistry::Global().GetCounter("engine.tlb_hits"),
      MetricsRegistry::Global().GetCounter("engine.tlb_misses"),
  };
  return metrics;
}

// A page of valid words decodes by copy: an encoded word is its
// Instruction's bytes on a little-endian host.
static_assert(std::is_trivially_copyable_v<Instruction> && sizeof(Instruction) == kInsnSize &&
                  offsetof(Instruction, op) == 0 && offsetof(Instruction, r1) == 1 &&
                  offsetof(Instruction, r2) == 2 && offsetof(Instruction, r3) == 3 &&
                  offsetof(Instruction, imm) == 4,
              "Instruction has the encoding's layout");
static_assert(std::endian::native == std::endian::little, "the immediate is little-endian");

// One text frame's instructions, decoded whole on the frame's first lookup.
// Immutable once attached. The frame owns it (PhysMemory deletes its
// attachment when it frees the frame), so a decoded page lives exactly as
// long as the bytes it was decoded from.
struct ExecEngine::DecodedPage final : FrameAttachment {
  DecodedPage(const uint8_t* bytes, std::shared_ptr<std::atomic<size_t>> live_pages)
      : live(std::move(live_pages)) {
    std::memcpy(insns.data(), bytes, kPageSize);
    insns[kSlotsPerPage] = Instruction{Opcode::kCount};
    uint16_t next = 0;  // the run of the block headed one word further on
    for (uint32_t i = kSlotsPerPage; i-- > 0;) {
      if (!IsValidInsn(bytes + i * kInsnSize)) {
        insns[i] = Instruction{Opcode::kCount};
        next = 0;
      } else {
        next = EndsBlock(insns[i].op) ? 1 : static_cast<uint16_t>(next + 1);
      }
      run[i] = next;
    }
    live->fetch_add(1, std::memory_order_relaxed);
  }
  ~DecodedPage() override { live->fetch_sub(1, std::memory_order_relaxed); }

  // The page's words, each undecodable one replaced by the Opcode::kCount
  // sentinel, then one more sentinel at the page edge.
  std::array<Instruction, kSlotsPerPage + 1> insns;
  // run[i]: the instructions a block headed at word i retires, through the
  // first control-flow instruction or up to the first sentinel; 0 at an
  // undecodable word.
  std::array<uint16_t, kSlotsPerPage> run;
  // The engine's DecodedPages() count; shared, because frames may outlive
  // the engine.
  std::shared_ptr<std::atomic<size_t>> live;
};

// A task's attachment; the engine is the only code that attaches one. It
// holds raw frame pointers and never follows one on destruction, so it may
// outlive the frames it points into.
struct ExecEngine::TaskCache final : TaskAttachment {
  static constexpr uint32_t kTlbEntries = 32;  // direct-mapped by virtual page
  // Open addressing by virtual page: each page probes linearly from a
  // Fibonacci hash, so text pages sharing a home slot never evict each
  // other. Libraries sit at bases many pages apart, which a direct map by
  // the page's low bits would pile into one slot. Kept at most half full.
  static constexpr uint32_t kPageEntries = 128;
  static constexpr uint32_t kMaxPages = kPageEntries / 2;

  // A data page's translation. Each tag is the page number when that kind
  // of access may hit, else kInvalidPage: the write tag stays invalid for a
  // read-only or CoW page, whose writes must fault.
  struct TlbEntry {
    uint32_t read = kInvalidPage;
    uint32_t write = kInvalidPage;
    uint8_t* data = nullptr;  // frame bytes
  };
  // A text page's decoded frame.
  struct PageEntry {
    uint32_t page = kInvalidPage;
    bool touched = false;  // first-touch billing done since this fill
    const DecodedPage* decoded = nullptr;
  };
  std::array<TlbEntry, kTlbEntries> tlb{};
  std::array<PageEntry, kPageEntries> pages{};
  uint32_t page_count = 0;  // valid entries in `pages`
  // The map epoch both tables were filled under.
  uint64_t epoch = 0;
  // engine.* counts from the slow paths; Run adds its own and flushes both.
  uint64_t slow_lookups = 0;
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;

  void Flush() {
    tlb.fill(TlbEntry{});
    pages.fill(PageEntry{});
    page_count = 0;
  }
  // Flush both tables if a map, unmap or fault resolution changed any
  // translation since they were filled.
  OMOS_ALWAYS_INLINE void Sync(const AddressSpace& space) {
    if (epoch != space.map_epoch()) {
      Flush();
      epoch = space.map_epoch();
    }
  }

  static uint32_t HomeSlot(uint32_t page) { return (page * 0x9E3779B1u) >> 25; }
  static_assert(kPageEntries == 1u << 7, "HomeSlot keeps the hash's top 7 bits");
  // The entry for text page `page`, or nullptr. Terminates: the table
  // always has an empty entry.
  OMOS_ALWAYS_INLINE PageEntry* FindPage(uint32_t page) {
    for (uint32_t i = HomeSlot(page);; i = (i + 1) % kPageEntries) {
      PageEntry& e = pages[i];
      if (e.page == page) {
        return &e;
      }
      if (e.page == kInvalidPage) {
        return nullptr;
      }
    }
  }
  // The entry for `page`, claimed if absent (flushing a full table first).
  PageEntry& ClaimPage(uint32_t page) {
    if (page_count == kMaxPages) {
      pages.fill(PageEntry{});
      page_count = 0;
    }
    for (uint32_t i = HomeSlot(page);; i = (i + 1) % kPageEntries) {
      PageEntry& e = pages[i];
      if (e.page == page) {
        return e;
      }
      if (e.page == kInvalidPage) {
        ++page_count;
        e.page = page;
        return e;
      }
    }
  }

  // The frame bytes for a `size`-byte access that hits the TLB, or nullptr.
  OMOS_ALWAYS_INLINE const uint8_t* ReadPtr(uint32_t addr, uint32_t size) const {
    const TlbEntry& e = tlb[(addr / kPageSize) % kTlbEntries];
    if (e.read == addr / kPageSize && (addr & kPageMask) <= kPageSize - size) {
      return e.data + (addr & kPageMask);
    }
    return nullptr;
  }
  OMOS_ALWAYS_INLINE uint8_t* WritePtr(uint32_t addr, uint32_t size) const {
    const TlbEntry& e = tlb[(addr / kPageSize) % kTlbEntries];
    if (e.write == addr / kPageSize && (addr & kPageMask) <= kPageSize - size) {
      return e.data + (addr & kPageMask);
    }
    return nullptr;
  }

  // TLB miss paths, out of line. Refill the entry for a page-contained
  // access and serve it if its translation allows (a hit); otherwise route
  // the access through the billing/faulting AddressSpace path, which
  // resolves the fault exactly like CpuStep's Read32/Write32 (a miss), and
  // re-sync with the epoch the fault may have bumped.
  void Refill(const AddressSpace& space, uint32_t addr, uint32_t size) {
    if ((addr & kPageMask) > kPageSize - size) {
      return;
    }
    AddressSpace::PageLookup pl;
    if (space.LookupPage(addr, &pl) && pl.present) {
      uint32_t page = addr / kPageSize;
      TlbEntry& e = tlb[page % kTlbEntries];
      e.read = (pl.prot & kProtRead) != 0 ? page : kInvalidPage;
      e.write = (pl.prot & kProtWrite) != 0 && !pl.cow ? page : kInvalidPage;
      e.data = pl.data;
    }
  }
  OMOS_NOINLINE Result<uint32_t> LoadSlow(AddressSpace& space, uint32_t addr, uint32_t size) {
    Refill(space, addr, size);
    if (const uint8_t* p = ReadPtr(addr, size)) {
      ++tlb_hits;
      return size == 4 ? Load32(p) : *p;
    }
    ++tlb_misses;
    if (size == 4) {
      Result<uint32_t> word = space.Read32(addr);
      Sync(space);
      return word;
    }
    Result<uint8_t> byte = space.Read8(addr);
    Sync(space);
    if (!byte.ok()) {
      return byte.error();
    }
    return static_cast<uint32_t>(*byte);
  }
  OMOS_NOINLINE Result<void> StoreSlow(AddressSpace& space, uint32_t addr, uint32_t size,
                                       uint32_t value) {
    Refill(space, addr, size);
    if (uint8_t* p = WritePtr(addr, size)) {
      ++tlb_hits;
      if (size == 4) {
        Store32(p, value);
      } else {
        *p = static_cast<uint8_t>(value);
      }
      return OkResult();
    }
    ++tlb_misses;
    Result<void> stored = size == 4 ? space.Write32(addr, value)
                                    : space.Write8(addr, static_cast<uint8_t>(value));
    Sync(space);
    return stored;
  }
};

ExecEngine::ExecEngine(Kernel& kernel) : kernel_(kernel) {}

ExecEngine::~ExecEngine() = default;

size_t ExecEngine::DecodedPages() const { return live_pages_->load(std::memory_order_relaxed); }

Result<const ExecEngine::DecodedPage*> ExecEngine::LookupSlow(Task& task, TaskCache& st,
                                                              uint32_t pc, bool* decoded) {
  AddressSpace& space = task.space();
  AddressSpace::PageLookup pl;
  if (!space.LookupPage(pc, &pl) || !pl.present || (pl.prot & kProtExec) == 0) {
    // Unmapped, non-executable, or demand-zero text: take the exact fetch
    // CpuStep would issue so the fault is billed — and any fault-injection
    // plan evaluated — exactly once, with the legacy error message.
    uint8_t raw[kInsnSize];
    OMOS_TRY_VOID(space.FetchBytes(pc, raw, kInsnSize));
    // The fetch resolved a fault (and bumped the map epoch); re-probe.
    st.Sync(space);
    if (!space.LookupPage(pc, &pl) || !pl.present) {
      return static_cast<const DecodedPage*>(nullptr);
    }
  }
  if ((pl.prot & kProtWrite) != 0) {
    // Writable text can change under a decoded page; never cache it.
    return static_cast<const DecodedPage*>(nullptr);
  }

  // The decoded page is the frame's own: two tasks mapping the same image
  // frames share one decode.
  ++st.slow_lookups;
  PhysMemory& phys = kernel_.phys();
  auto* page = static_cast<const DecodedPage*>(phys.Attachment(pl.frame));
  if (page == nullptr) {
    TraceSpan span("engine.decode");
    if (span.armed()) {
      // Hex32(page base), formatted in place.
      static_assert(kTraceDetailBytes >= 10);
      char* begin = span.detail_buffer().data();
      span.set_detail_size(static_cast<size_t>(WriteHex32(begin, pc & ~kPageMask) - begin));
    }
    GetEngineMetrics().blocks_decoded->Add(1);
    *decoded = true;
    // A racing decode of the same frame may win; both are identical, so the
    // loser's copy is freed and the winner's runs.
    page = static_cast<const DecodedPage*>(
        phys.Attach(pl.frame, std::make_unique<DecodedPage>(pl.data, live_pages_)));
  }
  st.ClaimPage(pc / kPageSize).decoded = page;
  return page;
}

Result<void> ExecEngine::Run(Task& task, uint64_t budget, uint64_t* executed) {
  if (task.state() != TaskState::kRunnable) {
    return OkResult();
  }
  // The task's own cache, made on its first entry.
  TaskAttachment* attached = task.attachment();
  TaskCache& st = *static_cast<TaskCache*>(
      attached != nullptr ? attached : &task.Attach(std::make_unique<TaskCache>()));
  AddressSpace& space = task.space();
  const uint64_t first_touch_cost = kernel_.costs().page_fault;
  Result<void> result = OkResult();

  // Bookkeeping kept in locals. `left` is the budget not yet spent
  // (*executed is budget - left); the billed - left instructions retired
  // since the last commit are not yet counted on the task. Both reach their
  // owners before anything reads them: at exit, before a syscall or single
  // step, and before a checked block.
  uint64_t left = budget - *executed;
  uint64_t billed = left;
  uint64_t block_hits = 0;
  uint64_t tlb_hits = 0;
  uint32_t pc = task.pc();  // the next pc; the task's copy is stored at exits and slow paths

  // The chain: the decoded page the running block lies in (`cur`) and the
  // one it came from (`prev`), each with the virtual page base it runs at.
  // Both were found under map epoch `chain_epoch`; a next pc that is
  // aligned and on either enters with no table lookup while it holds.
  struct ChainPage {
    ChainPage() = default;
    ChainPage(uint32_t page_base, const DecodedPage* page)
        : base(page_base),
          bias(page_base - static_cast<uint32_t>(reinterpret_cast<uintptr_t>(page->insns.data()))),
          decoded(page) {}

    uint32_t base = kNoPage;
    uint32_t bias = 0;  // a record's pc minus its address, for every record on the page
    const DecodedPage* decoded = nullptr;
  };
  ChainPage cur;
  ChainPage prev;
  uint64_t chain_epoch = 0;

  // The executing instruction's record, on the chain's current page. A
  // record is as long as the instruction it was decoded from, so its pc is
  // its address plus the page's `bias`.
  static_assert(sizeof(Instruction) == kInsnSize, "a record's address steps like its pc");
  const Instruction* d = nullptr;

  auto r = [&](uint8_t i) { return task.reg(i); };
  auto w = [&](uint8_t i, uint32_t v) { task.set_reg(i, v); };
  auto insn_pc = [&] { return cur.bias + static_cast<uint32_t>(reinterpret_cast<uintptr_t>(d)); };
  auto next = [&] { return insn_pc() + kInsnSize; };
  auto commit = [&] {
    if (billed != left) {
      task.CountInstructions(billed - left);
      billed = left;
    }
  };

#if OMOS_ENGINE_DIRECT_THREADED
#define OMOS_LABEL(name) &&L_##name,
#define OMOS_CHECKED(name) &&L_checked,
  // Unchecked dispatch runs an op directly; checked dispatch runs the
  // checked prologue first. Both end with the sentinel's entry.
  static const void* const kOps[] = {OMOS_ENGINE_OPS(OMOS_LABEL) &&L_kEnd};
  static const void* const kChecked[] = {OMOS_ENGINE_OPS(OMOS_CHECKED) &&L_kEnd};
#undef OMOS_LABEL
#undef OMOS_CHECKED
  static_assert(sizeof(kOps) / sizeof(kOps[0]) == static_cast<size_t>(Opcode::kCount) + 1,
                "keep OMOS_ENGINE_OPS in sync with Opcode");
  const void* const* table = kOps;
#define OMOS_SET_CHECKED(on) (table = (on) ? kChecked : kOps)
#define OMOS_IS_CHECKED() (table == kChecked)
#define OMOS_DISPATCH() goto* table[static_cast<size_t>(d->op)]
#define OMOS_EXECUTE() goto* kOps[static_cast<size_t>(d->op)]
#else
  bool checked = false;
#define OMOS_SET_CHECKED(on) (checked = (on))
#define OMOS_IS_CHECKED() checked
#define OMOS_DISPATCH() goto L_dispatch
#define OMOS_EXECUTE() goto L_execute
#endif
#define OMOS_NEXT()  \
  do {               \
    ++d;             \
    OMOS_DISPATCH(); \
  } while (0)
// *d faulted: it retired (CpuStep counts an instruction before executing
// it), the rest of its block did not.
#define OMOS_FAIL(error) \
  do {                   \
    result = (error);    \
    goto L_fault;        \
  } while (0)

L_block:
  // Chain point: `pc` is the next pc and the task is runnable.
  if (left == 0 || task.safepoint_pending()) {
    goto L_stop;
  }
  if ((pc & kHeadMask) != cur.base || space.map_epoch() != chain_epoch) {
    if ((pc & kHeadMask) != prev.base || space.map_epoch() != chain_epoch) {
      goto L_lookup;
    }
    std::swap(cur, prev);
  }
L_enter:
  // `pc` is aligned and on the chain's current page.
  {
    const uint32_t slot = (pc & kPageMask) / kInsnSize;
    const uint32_t run = cur.decoded->run[slot];
    if (run == 0) {
      // An undecodable word heads the block: CpuStep raises DecodeInsn's
      // error, before the word retires or bills its page.
      goto L_step;
    }
    ++block_hits;
    d = &cur.decoded->insns[slot];
    // With the profiler off and the whole block inside the remaining budget,
    // no boundary in it can stop or sample: run it unchecked and retire its
    // instructions now (a mid-block fault takes back the rest).
    if (CycleProfiler::enabled() || left < run) {
      commit();
      OMOS_SET_CHECKED(true);
    } else {
      left -= run;
      OMOS_SET_CHECKED(false);
    }
    OMOS_DISPATCH();
  }

L_lookup:
  // `pc` is on neither chained page, or the map changed: find its page
  // through the page table, and chain it.
  {
    if (pc % kInsnSize != 0) {
      // No block starts at an unaligned pc (its fetch may also cross the
      // page): single-step it.
      goto L_step;
    }
    st.Sync(space);
    TaskCache::PageEntry* pe = st.FindPage(pc / kPageSize);
    bool decoded = false;
    if (pe == nullptr) {
      task.set_pc(pc);
      Result<const DecodedPage*> found = LookupSlow(task, st, pc, &decoded);
      if (!found.ok()) {
        result = found.error();
        goto L_exit;
      }
      if (*found == nullptr) {
        goto L_step;
      }
      pe = st.FindPage(pc / kPageSize);
    }
    if (pe->decoded->run[(pc & kPageMask) / kInsnSize] == 0) {
      goto L_step;  // before the first-touch bill, as CpuStep faults before it
    }
    // First-touch accounting for the block's text page. CpuStep checks this
    // per instruction, but a block never crosses a page and the budget check
    // above guarantees its first instruction runs, so one check per
    // page-table fill bills identically; a chained page was billed when it
    // was found here.
    if (!pe->touched) {
      pe->touched = true;
      if (task.TouchTextPage(pc / kPageSize)) {
        task.BillSys(first_touch_cost);
      }
    }
    // The page it displaces stays chained only if no map change has
    // happened since it was found.
    prev = chain_epoch == space.map_epoch() ? cur : ChainPage{};
    cur = ChainPage{pc & ~kPageMask, pe->decoded};
    chain_epoch = space.map_epoch();
    if (decoded) {
      --block_hits;  // L_enter counts a hit; this entry decoded its page
    }
    goto L_enter;
  }

L_step:
  // An uncacheable pc (unaligned, writable or still-absent text) or an
  // undecodable word: single-step the legacy way.
  task.set_pc(pc);
  commit();
  result = CpuStep(kernel_, task);
  if (!result.ok()) {
    goto L_exit;
  }
  --left;
  --billed;  // CpuStep counted it
  if (task.state() != TaskState::kRunnable) {
    goto L_exit;
  }
  pc = task.pc();
  goto L_block;

L_checked:
  // Per-instruction prologue, replicating CpuStep's exact order: budget stop
  // at the boundary (the task's pc is the unexecuted instruction), retire
  // count, profiler sample at the pre-execution pc.
  if (left == 0) {
    pc = insn_pc();
    goto L_stop;
  }
  --left;
  commit();
  if (CycleProfiler::enabled() && (task.instructions_retired() & CycleProfiler::mask()) == 0) {
    CycleProfiler::RecordSample(task.id(), insn_pc());
  }
  OMOS_EXECUTE();

#if !OMOS_ENGINE_DIRECT_THREADED
L_dispatch:
  if (checked && d->op != Opcode::kCount) {
    goto L_checked;
  }
L_execute:
  switch (d->op) {
#define OMOS_CASE(name) \
  case Opcode::name:    \
    goto L_##name;
    OMOS_ENGINE_OPS(OMOS_CASE)
#undef OMOS_CASE
    case Opcode::kCount:
      goto L_kEnd;
  }
#endif

L_kEnd:
  // The block ran into a sentinel (the page edge or an undecodable word).
  pc = insn_pc();
  goto L_block;
L_kHalt:
  task.Exit(0);
  pc = next();
  goto L_stop;
L_kNop:
  OMOS_NEXT();
L_kMovI:
L_kLea:
  w(d->r1, d->imm);
  OMOS_NEXT();
L_kLeaPc:
  w(d->r1, next() + d->imm);
  OMOS_NEXT();
L_kMov:
  w(d->r1, r(d->r2));
  OMOS_NEXT();
L_kAdd:
  w(d->r1, r(d->r2) + r(d->r3));
  OMOS_NEXT();
L_kSub:
  w(d->r1, r(d->r2) - r(d->r3));
  OMOS_NEXT();
L_kMul:
  w(d->r1, r(d->r2) * r(d->r3));
  OMOS_NEXT();
L_kDiv:
  if (r(d->r3) == 0) {
    OMOS_FAIL(Err(ErrorCode::kExecFault, StrCat("divide by zero at ", Hex32(insn_pc()))));
  }
  w(d->r1,
    static_cast<uint32_t>(static_cast<int32_t>(r(d->r2)) / static_cast<int32_t>(r(d->r3))));
  OMOS_NEXT();
L_kMod:
  if (r(d->r3) == 0) {
    OMOS_FAIL(Err(ErrorCode::kExecFault, StrCat("mod by zero at ", Hex32(insn_pc()))));
  }
  w(d->r1,
    static_cast<uint32_t>(static_cast<int32_t>(r(d->r2)) % static_cast<int32_t>(r(d->r3))));
  OMOS_NEXT();
L_kAnd:
  w(d->r1, r(d->r2) & r(d->r3));
  OMOS_NEXT();
L_kOr:
  w(d->r1, r(d->r2) | r(d->r3));
  OMOS_NEXT();
L_kXor:
  w(d->r1, r(d->r2) ^ r(d->r3));
  OMOS_NEXT();
L_kShl:
  w(d->r1, r(d->r2) << (r(d->r3) & 31));
  OMOS_NEXT();
L_kShr:
  w(d->r1, r(d->r2) >> (r(d->r3) & 31));
  OMOS_NEXT();
L_kAddI:
  w(d->r1, r(d->r2) + d->imm);
  OMOS_NEXT();
L_kLd: {
  uint32_t addr = r(d->r2) + d->imm;
  if (const uint8_t* p = st.ReadPtr(addr, 4)) {
    ++tlb_hits;
    w(d->r1, Load32(p));
  } else {
    task.set_pc(next());
    Result<uint32_t> v = st.LoadSlow(space, addr, 4);
    if (!v.ok()) {
      OMOS_FAIL(v.error());
    }
    w(d->r1, *v);
  }
  OMOS_NEXT();
}
L_kSt: {
  uint32_t addr = r(d->r2) + d->imm;
  if (uint8_t* p = st.WritePtr(addr, 4)) {
    ++tlb_hits;
    Store32(p, r(d->r1));
  } else {
    task.set_pc(next());
    Result<void> stored = st.StoreSlow(space, addr, 4, r(d->r1));
    if (!stored.ok()) {
      OMOS_FAIL(stored.error());
    }
  }
  OMOS_NEXT();
}
L_kLdB: {
  uint32_t addr = r(d->r2) + d->imm;
  if (const uint8_t* p = st.ReadPtr(addr, 1)) {
    ++tlb_hits;
    w(d->r1, *p);
  } else {
    task.set_pc(next());
    Result<uint32_t> v = st.LoadSlow(space, addr, 1);
    if (!v.ok()) {
      OMOS_FAIL(v.error());
    }
    w(d->r1, *v);
  }
  OMOS_NEXT();
}
L_kStB: {
  uint32_t addr = r(d->r2) + d->imm;
  if (uint8_t* p = st.WritePtr(addr, 1)) {
    ++tlb_hits;
    *p = static_cast<uint8_t>(r(d->r1));
  } else {
    task.set_pc(next());
    Result<void> stored = st.StoreSlow(space, addr, 1, r(d->r1));
    if (!stored.ok()) {
      OMOS_FAIL(stored.error());
    }
  }
  OMOS_NEXT();
}
L_kLdPc: {
  uint32_t addr = next() + d->imm;
  if (const uint8_t* p = st.ReadPtr(addr, 4)) {
    ++tlb_hits;
    w(d->r1, Load32(p));
  } else {
    task.set_pc(next());
    Result<uint32_t> v = st.LoadSlow(space, addr, 4);
    if (!v.ok()) {
      OMOS_FAIL(v.error());
    }
    w(d->r1, *v);
  }
  OMOS_NEXT();
}
L_kPush: {
  uint32_t sp = r(kRegSp) - 4;
  w(kRegSp, sp);
  if (uint8_t* p = st.WritePtr(sp, 4)) {
    ++tlb_hits;
    Store32(p, r(d->r1));
  } else {
    task.set_pc(next());
    Result<void> stored = st.StoreSlow(space, sp, 4, r(d->r1));
    if (!stored.ok()) {
      OMOS_FAIL(stored.error());
    }
  }
  OMOS_NEXT();
}
L_kPop: {
  uint32_t sp = r(kRegSp);
  uint32_t v;
  if (const uint8_t* p = st.ReadPtr(sp, 4)) {
    ++tlb_hits;
    v = Load32(p);
  } else {
    task.set_pc(next());
    Result<uint32_t> loaded = st.LoadSlow(space, sp, 4);
    if (!loaded.ok()) {
      OMOS_FAIL(loaded.error());
    }
    v = *loaded;
  }
  w(d->r1, v);
  w(kRegSp, sp + 4);
  OMOS_NEXT();
}
// Block-ending control flow: compute the successor and chain into it.
L_kBeq:
  pc = r(d->r1) == r(d->r2) ? next() + d->imm : next();
  goto L_block;
L_kBne:
  pc = r(d->r1) != r(d->r2) ? next() + d->imm : next();
  goto L_block;
L_kBlt:
  pc = static_cast<int32_t>(r(d->r1)) < static_cast<int32_t>(r(d->r2)) ? next() + d->imm
                                                                         : next();
  goto L_block;
L_kBge:
  pc = static_cast<int32_t>(r(d->r1)) >= static_cast<int32_t>(r(d->r2)) ? next() + d->imm
                                                                          : next();
  goto L_block;
L_kBltu:
  pc = r(d->r1) < r(d->r2) ? next() + d->imm : next();
  goto L_block;
L_kBgeu:
  pc = r(d->r1) >= r(d->r2) ? next() + d->imm : next();
  goto L_block;
L_kJmp:
  pc = d->imm;
  goto L_block;
L_kBr:
  pc = next() + d->imm;
  goto L_block;
L_kJmpR:
  pc = r(d->r1);
  goto L_block;
L_kCall:
  w(kRegLr, next());
  pc = d->imm;
  goto L_block;
L_kCallPc:
  w(kRegLr, next());
  pc = next() + d->imm;
  goto L_block;
L_kCallR:
  w(kRegLr, next());
  pc = r(d->r1);  // after the link write, as CpuStep orders it
  goto L_block;
L_kRet:
  pc = r(kRegLr);
  goto L_block;
L_kSys:
  // The syscall may remap, exit, or request a safepoint; return to the
  // caller after it. It also reads the task's cycle counts and pc, so they
  // must be current.
  task.set_pc(next());
  commit();
  result = kernel_.Syscall(task, d->imm);
  goto L_exit;

L_fault:
  if (!OMOS_IS_CHECKED()) {
    // The block retired whole at entry; take back what it did not run. It
    // lies in the chain's current page, where *d heads the run of itself
    // and the rest.
    left += cur.decoded->run[static_cast<size_t>(d - cur.decoded->insns.data())] - 1u;
  }
  pc = next();
L_stop:
  task.set_pc(pc);
L_exit:
  commit();
  *executed = budget - left;
  {
    EngineMetrics& metrics = GetEngineMetrics();
    auto add = [](Counter* counter, uint64_t n) {
      if (n != 0) {
        counter->Add(n);
      }
    };
    add(metrics.block_hits, block_hits);
    add(metrics.tlb_hits, tlb_hits + st.tlb_hits);
    add(metrics.tlb_misses, st.tlb_misses);
    add(metrics.l1_misses, st.slow_lookups);
    st.slow_lookups = st.tlb_hits = st.tlb_misses = 0;
  }
  return result;

#undef OMOS_SET_CHECKED
#undef OMOS_IS_CHECKED
#undef OMOS_DISPATCH
#undef OMOS_EXECUTE
#undef OMOS_NEXT
#undef OMOS_FAIL
}

}  // namespace omos
