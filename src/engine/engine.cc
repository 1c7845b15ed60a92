#include "src/engine/engine.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdlib>
#include <new>
#include <string_view>

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
// the engine uses it as the block-ending sentinel).
#define OMOS_ENGINE_OPS(X)                                                                  \
  X(kHalt) X(kNop) X(kMovI) X(kMov) X(kLea) X(kLeaPc) X(kAdd) X(kSub) X(kMul) X(kDiv)     \
  X(kMod) X(kAnd) X(kOr) X(kXor) X(kShl) X(kShr) X(kAddI) X(kLd) X(kSt) X(kLdB) X(kStB)   \
  X(kLdPc) X(kBeq) X(kBne) X(kBlt) X(kBge) X(kBltu) X(kBgeu) X(kJmp) X(kBr) X(kJmpR)      \
  X(kCall) X(kCallPc) X(kCallR) X(kRet) X(kPush) X(kPop) X(kSys)

namespace omos {

namespace {

constexpr uint32_t kInvalidPage = 0xFFFFFFFFu;

// Block slots per text page: a block head is an 8-byte-aligned pc.
constexpr uint32_t kSlotsPerPage = kPageSize / kInsnSize;

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

// Predecoded instruction: DecodeInsn's output, flattened so the dispatch
// loop touches one 8-byte record instead of re-parsing raw bytes.
struct ExecEngine::DecodedInsn {
  Opcode op;
  uint8_t r1;
  uint8_t r2;
  uint8_t r3;
  uint32_t imm;
};

// A superblock: `size` consecutive instructions within one text page,
// ending at the first control-flow instruction, the page edge, or the first
// undecodable instruction, then a sentinel (Opcode::kCount) that falls
// through to the next pc. The instructions are stored inline, after the
// header. Immutable once published.
struct alignas(8) ExecEngine::Block {
  uint32_t size;

  const DecodedInsn* insns() const { return reinterpret_cast<const DecodedInsn*>(this + 1); }

  static const Block* Create(const DecodedInsn* run, uint32_t count) {
    void* mem = ::operator new(sizeof(Block) + (count + 1) * sizeof(DecodedInsn));
    auto* block = new (mem) Block{count};
    auto* out = reinterpret_cast<DecodedInsn*>(block + 1);
    for (uint32_t i = 0; i < count; ++i) {
      new (out + i) DecodedInsn(run[i]);
    }
    new (out + count) DecodedInsn{Opcode::kCount, 0, 0, 0, 0};
    return block;
  }
  static void Destroy(const Block* block) { ::operator delete(const_cast<Block*>(block)); }
};

// The blocks decoded from one text frame: a dense table indexed by page
// offset / kInsnSize. A slot is filled once, by compare-and-swap, and never
// cleared; the frame owns the table (PhysMemory deletes its attachment when
// it frees the frame), so a block lives exactly as long as the bytes it was
// decoded from.
struct ExecEngine::FrameBlocks final : FrameAttachment {
  explicit FrameBlocks(std::shared_ptr<std::atomic<size_t>> live) : live(std::move(live)) {}
  ~FrameBlocks() override {
    size_t freed = 0;
    for (std::atomic<const Block*>& slot : slots) {
      if (const Block* block = slot.load(std::memory_order_acquire)) {
        Block::Destroy(block);
        ++freed;
      }
    }
    live->fetch_sub(freed, std::memory_order_relaxed);
  }

  std::array<std::atomic<const Block*>, kSlotsPerPage> slots{};
  // The engine's CachedBlocks() count; shared, because frames may outlive
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
  // A text page's frame block table.
  struct PageEntry {
    uint32_t page = kInvalidPage;
    bool touched = false;  // first-touch billing done since this fill
    FrameBlocks* blocks = nullptr;
  };
  std::array<TlbEntry, kTlbEntries> tlb{};
  std::array<PageEntry, kPageEntries> pages{};
  uint32_t page_count = 0;  // valid entries in `pages`
  // The map epoch both tables were filled under.
  uint64_t epoch = 0;
  // engine.* counts from the slow paths; Run adds its own and flushes both.
  uint64_t block_hits = 0;
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

size_t ExecEngine::CachedBlocks() const { return live_blocks_->load(std::memory_order_relaxed); }

Result<const ExecEngine::Block*> ExecEngine::LookupSlow(Task& task, TaskCache& st, uint32_t pc) {
  if (pc % kInsnSize != 0) {
    // Blocks are indexed by offset / 8; single-step an unaligned pc (its
    // fetch may also cross the page).
    return static_cast<const Block*>(nullptr);
  }
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
      return static_cast<const Block*>(nullptr);
    }
  }
  if ((pl.prot & kProtWrite) != 0) {
    // Writable text can change under a cached block; never cache it.
    return static_cast<const Block*>(nullptr);
  }

  // The shared table is the frame's own: two tasks mapping the same image
  // frames share one decode.
  ++st.slow_lookups;
  PhysMemory& phys = kernel_.phys();
  auto* frame = static_cast<FrameBlocks*>(phys.Attachment(pl.frame));
  if (frame == nullptr) {
    frame = static_cast<FrameBlocks*>(
        phys.Attach(pl.frame, std::make_unique<FrameBlocks>(live_blocks_)));
  }
  TaskCache::PageEntry& entry = st.ClaimPage(pc / kPageSize);
  entry.blocks = frame;
  uint32_t offset = pc & kPageMask;
  std::atomic<const Block*>& slot = frame->slots[offset / kInsnSize];
  if (const Block* block = slot.load(std::memory_order_acquire)) {
    ++st.block_hits;
    return block;
  }

  TraceSpan span("engine.decode");
  // Decoded into a page-sized scratch run first, so the block is allocated
  // once, at its final size.
  DecodedInsn run[kSlotsPerPage];
  uint32_t count = 0;
  for (uint32_t off = offset; off + kInsnSize <= kPageSize; off += kInsnSize) {
    Result<Instruction> insn = DecodeInsn(pl.data + off);
    if (!insn.ok()) {
      if (count == 0) {
        // The faulting instruction is the block head: surface DecodeInsn's
        // error exactly as CpuStep would.
        return insn.error();
      }
      break;  // end the block before the undecodable instruction
    }
    run[count++] = DecodedInsn{insn->op, insn->r1, insn->r2, insn->r3, insn->imm};
    switch (insn->op) {
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
        off = kPageSize;  // control flow (or exit) ends the block
        break;
      default:
        break;
    }
  }
  if (span.armed()) {
    // StrCat(Hex32(pc), " ", count, " insns"), formatted in place: at most
    // 10 + 1 + 3 + 6 bytes, as a block holds at most 512 instructions.
    static_assert(kTraceDetailBytes >= 20 && kSlotsPerPage < 1000);
    char* begin = span.detail_buffer().data();
    char* out = WriteHex32(begin, pc);
    *out++ = ' ';
    out = std::to_chars(out, out + 3, count).ptr;
    constexpr std::string_view kSuffix = " insns";
    out = std::copy(kSuffix.begin(), kSuffix.end(), out);
    span.set_detail_size(static_cast<size_t>(out - begin));
  }
  GetEngineMetrics().blocks_decoded->Add(1);
  const Block* built = Block::Create(run, count);
  // A racing decode of the same block may have won; both are identical, so
  // the loser frees its copy and runs the winner's.
  const Block* winner = nullptr;
  if (slot.compare_exchange_strong(winner, built, std::memory_order_acq_rel)) {
    live_blocks_->fetch_add(1, std::memory_order_relaxed);
    return built;
  }
  Block::Destroy(built);
  return winner;
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

  // The executing instruction's record. A record is as long as the
  // instruction it was decoded from, so its pc is its address plus the
  // running block's `bias` (head pc minus head address, mod 2^32).
  static_assert(sizeof(DecodedInsn) == kInsnSize, "a record's address steps like its pc");
  const DecodedInsn* d = nullptr;
  uint32_t bias = 0;

  auto r = [&](uint8_t i) { return task.reg(i); };
  auto w = [&](uint8_t i, uint32_t v) { task.set_reg(i, v); };
  auto insn_pc = [&] { return bias + static_cast<uint32_t>(reinterpret_cast<uintptr_t>(d)); };
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
  st.Sync(space);
  {
    uint32_t page = pc / kPageSize;
    TaskCache::PageEntry* pe = st.FindPage(page);
    const Block* block = nullptr;
    if (pe != nullptr && pc % kInsnSize == 0) {
      block = pe->blocks->slots[(pc & kPageMask) / kInsnSize].load(std::memory_order_acquire);
    }
    if (block != nullptr) {
      ++block_hits;
    } else {
      task.set_pc(pc);
      Result<const Block*> found = LookupSlow(task, st, pc);
      if (!found.ok()) {
        result = found.error();
        goto L_exit;
      }
      block = *found;
      if (block == nullptr) {
        // Uncacheable pc (unaligned, writable or still-absent text):
        // single-step the legacy way.
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
      }
      pe = st.FindPage(page);
    }
    // First-touch accounting for the block's text page. CpuStep checks this
    // per instruction, but a block never crosses a page and the budget check
    // above guarantees its first instruction runs, so one check per
    // page-table fill bills identically.
    if (!pe->touched) {
      pe->touched = true;
      if (task.TouchTextPage(page)) {
        task.BillSys(first_touch_cost);
      }
    }
    d = block->insns();
    bias = pc - static_cast<uint32_t>(reinterpret_cast<uintptr_t>(d));
    // With the profiler off and the whole block inside the remaining budget,
    // no boundary in it can stop or sample: run it unchecked and retire its
    // instructions now (a mid-block fault takes back the rest).
    if (CycleProfiler::enabled() || left < block->size) {
      commit();
      OMOS_SET_CHECKED(true);
    } else {
      left -= block->size;
      OMOS_SET_CHECKED(false);
    }
    OMOS_DISPATCH();
  }

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
  // The block ran off its end (page edge or an undecodable instruction).
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
    // The block retired whole at entry; take back what it did not run.
    for (const DecodedInsn* rest = d + 1; rest->op != Opcode::kCount; ++rest) {
      ++left;
    }
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
    add(metrics.block_hits, block_hits + st.block_hits);
    add(metrics.tlb_hits, tlb_hits + st.tlb_hits);
    add(metrics.tlb_misses, st.tlb_misses);
    add(metrics.l1_misses, st.slow_lookups);
    st.block_hits = st.slow_lookups = st.tlb_hits = st.tlb_misses = 0;
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
