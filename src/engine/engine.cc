#include "src/engine/engine.h"

#include <array>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "src/isa/isa.h"
#include "src/os/cpu.h"
#include "src/os/kernel.h"
#include "src/os/task.h"
#include "src/support/flat_map.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

// Direct-threaded dispatch (computed goto) on GNU-compatible compilers;
// elsewhere the same op bodies compile as a switch in a loop.
#if defined(__GNUC__) || defined(__clang__)
#define OMOS_ENGINE_DIRECT_THREADED 1
#define OMOS_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define OMOS_ENGINE_DIRECT_THREADED 0
#define OMOS_ALWAYS_INLINE inline
#endif

namespace omos {

namespace {

constexpr uint32_t kInvalidPage = 0xFFFFFFFFu;

// Parked caches of destroyed tasks kept for reuse. Tasks are created and
// destroyed per exec, so a handful covers the concurrent execs of a busy
// server without holding much memory.
constexpr size_t kMaxFreeCaches = 4;

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
// loop touches one 8-byte-ish record instead of re-parsing raw bytes.
struct ExecEngine::DecodedInsn {
  Opcode op;
  uint8_t r1;
  uint8_t r2;
  uint8_t r3;
  uint32_t imm;
};

// A superblock: consecutive instructions within one text page, ending at
// the first control-flow instruction, the page edge, or the first
// undecodable instruction. Immutable once published.
struct ExecEngine::Block {
  std::vector<DecodedInsn> insns;
};

// The blocks decoded from one text frame, keyed by page offset. The frame
// owns them (PhysMemory deletes its attachment when it frees the frame), so
// a block lives exactly as long as the bytes it was decoded from.
struct ExecEngine::FrameBlocks final : FrameAttachment {
  explicit FrameBlocks(std::shared_ptr<std::atomic<size_t>> live) : live(std::move(live)) {}
  ~FrameBlocks() override { live->fetch_sub(blocks.size(), std::memory_order_relaxed); }

  // Sole owners; shared_ptr only because FlatMap copies its values.
  FlatMap<uint32_t, std::shared_ptr<const Block>> blocks;  // guarded by ExecEngine::mu_
  // The engine's CachedBlocks() count; shared, because frames may outlive
  // the engine.
  std::shared_ptr<std::atomic<size_t>> live;
};

struct ExecEngine::L1Entry {
  uint32_t pc = 0;
  uint32_t tag = 0;  // valid iff == TaskCache::l1_tag; 0 never is
  // Owned by its frame, which the task maps while the tag is live: an unmap
  // bumps the map epoch, and that flushes the L1 before its next lookup.
  const Block* block = nullptr;
};

struct ExecEngine::TaskCache {
  static constexpr uint32_t kTlbEntries = 32;  // direct-mapped by virtual page
  // Direct-mapped by pc / kInsnSize. 1024 entries hold codegen's hot set
  // (~85% hits; 64 entries hit ~5%); tags keep the size off the per-exec
  // path, so it costs memory once per parked cache, not time per task.
  static constexpr uint32_t kL1Entries = 1024;

  struct TlbEntry {
    uint32_t page = kInvalidPage;  // virtual page number (addr / kPageSize)
    uint8_t* data = nullptr;       // frame bytes
    uint8_t prot = 0;
    bool cow = false;  // writes must fault even though prot allows them
  };
  std::array<TlbEntry, kTlbEntries> tlb{};
  std::array<L1Entry, kL1Entries> l1{};
  uint32_t l1_tag = 1;
  // TLB and L1 epochs are tracked separately: data accesses re-sync the TLB
  // mid-block, but the L1 is only checked between blocks.
  uint64_t tlb_epoch = 0;
  uint64_t l1_space_epoch = 0;
  // engine.* counts, batched per Run() call (Counter::Add is an atomic).
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;
  uint64_t block_hits = 0;
  uint64_t l1_misses = 0;

  void FlushTlb() {
    for (TlbEntry& e : tlb) {
      e.page = kInvalidPage;
    }
  }
  void FlushL1() {
    if (++l1_tag == 0) {
      // Wrapped: entries stamped 2^32 flushes ago would match again.
      for (L1Entry& e : l1) {
        e.tag = 0;
      }
      l1_tag = 1;
    }
  }
  // Make a parked cache safe for a new task. Epochs alone cannot tell the
  // old task's entries apart: every AddressSpace starts map_epoch at 1, so
  // a new task mapping other code at the same addresses would match them.
  void Reset() {
    FlushL1();
    FlushTlb();
    tlb_epoch = l1_space_epoch = 0;
  }

  // Software TLB probe for a `size`-byte access that must not cross a
  // page. Returns the frame byte pointer on a hit with sufficient
  // permission, or nullptr to route the access through the
  // billing/faulting slow path (absent page, CoW write, protection
  // mismatch, page-crossing). The slow path resolves the fault exactly like
  // CpuStep's Read32/Write32 — and bumps the map epoch, which re-syncs the
  // TLB on the next probe.
  OMOS_ALWAYS_INLINE uint8_t* Probe(const AddressSpace& space, uint32_t addr, uint32_t size,
                                    bool write) {
    uint8_t* hit = nullptr;
    if ((addr & kPageMask) <= kPageSize - size) {
      uint64_t epoch = space.map_epoch();
      if (tlb_epoch != epoch) {
        FlushTlb();
        tlb_epoch = epoch;
      }
      uint32_t page = addr / kPageSize;
      TlbEntry& e = tlb[page & (kTlbEntries - 1)];
      if (e.page != page) {
        AddressSpace::PageLookup pl;
        if (space.LookupPage(addr, &pl) && pl.present) {
          e.page = page;
          e.data = pl.data;
          e.prot = pl.prot;
          e.cow = pl.cow;
        }
      }
      if (e.page == page) {
        bool allowed = write ? ((e.prot & kProtWrite) != 0 && !e.cow)
                             : (e.prot & kProtRead) != 0;
        if (allowed) {
          hit = e.data + (addr & kPageMask);
        }
      }
    }
    if (hit != nullptr) {
      ++tlb_hits;
    } else {
      ++tlb_misses;
    }
    return hit;
  }
};

ExecEngine::ExecEngine(Kernel& kernel) : kernel_(kernel) {}

ExecEngine::~ExecEngine() = default;

ExecEngine::TaskCache& ExecEngine::StateFor(const Task& task) {
  std::lock_guard<std::mutex> lock(tasks_mu_);
  std::unique_ptr<TaskCache>& slot = tasks_[task.id()];
  if (slot == nullptr) {
    if (free_caches_.empty()) {
      slot = std::make_unique<TaskCache>();
    } else {
      slot = std::move(free_caches_.back());
      free_caches_.pop_back();
      slot->Reset();
    }
  }
  return *slot;
}

void ExecEngine::DropTask(uint32_t task_id) {
  std::lock_guard<std::mutex> lock(tasks_mu_);
  auto it = tasks_.find(task_id);
  if (it == tasks_.end()) {
    return;
  }
  if (free_caches_.size() < kMaxFreeCaches) {
    free_caches_.push_back(std::move(it->second));
  }
  tasks_.erase(it);
}

size_t ExecEngine::CachedBlocks() const { return live_blocks_->load(std::memory_order_relaxed); }

inline Result<const ExecEngine::Block*> ExecEngine::LookupBlock(Task& task, TaskCache& st,
                                                                uint32_t pc) {
  AddressSpace& space = task.space();
  uint64_t sepoch = space.map_epoch();
  if (st.l1_space_epoch != sepoch) {
    st.FlushL1();
    st.l1_space_epoch = sepoch;
  }
  uint32_t offset = pc & kPageMask;
  if (offset > kPageSize - kInsnSize) {
    // The 8-byte fetch would cross a page; single-step it.
    return static_cast<const Block*>(nullptr);
  }
  L1Entry& slot = st.l1[(pc / kInsnSize) % TaskCache::kL1Entries];
  if (slot.tag == st.l1_tag && slot.pc == pc) {
    ++st.block_hits;
    return slot.block;
  }
  return FillL1(task, st, pc, slot);
}

Result<const ExecEngine::Block*> ExecEngine::FillL1(Task& task, TaskCache& st, uint32_t pc,
                                                    L1Entry& slot) {
  AddressSpace& space = task.space();
  uint32_t offset = pc & kPageMask;
  AddressSpace::PageLookup pl;
  if (!space.LookupPage(pc, &pl) || !pl.present || (pl.prot & kProtExec) == 0) {
    // Unmapped, non-executable, or demand-zero text: take the exact fetch
    // CpuStep would issue so the fault is billed — and any fault-injection
    // plan evaluated — exactly once, with the legacy error message.
    uint8_t raw[kInsnSize];
    OMOS_TRY_VOID(space.FetchBytes(pc, raw, kInsnSize));
    // The fetch resolved a fault (and bumped the map epoch); re-probe.
    st.FlushL1();
    st.l1_space_epoch = space.map_epoch();
    if (!space.LookupPage(pc, &pl) || !pl.present) {
      return static_cast<const Block*>(nullptr);
    }
  }
  if ((pl.prot & kProtWrite) != 0) {
    // Writable text can change under a cached block; never cache it.
    return static_cast<const Block*>(nullptr);
  }

  // The shared cache is the frame's own block table: two tasks mapping the
  // same image frames share one decode.
  PhysMemory& phys = kernel_.phys();
  const Block* block = nullptr;
  ++st.l1_misses;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto* frame = static_cast<FrameBlocks*>(phys.Attachment(pl.frame))) {
      auto it = frame->blocks.find(offset);
      if (it != frame->blocks.end()) {
        block = it->second.get();
      }
    }
  }
  if (block != nullptr) {
    ++st.block_hits;
  } else {
    TraceSpan span("engine.decode");
    // Decoded into a page-sized scratch run first, so the block's vector is
    // allocated once, at its final size.
    DecodedInsn run[kPageSize / kInsnSize];
    size_t count = 0;
    const uint8_t* page_data = pl.data;
    for (uint32_t off = offset; off + kInsnSize <= kPageSize; off += kInsnSize) {
      Result<Instruction> insn = DecodeInsn(page_data + off);
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
    auto built = std::make_shared<Block>();
    built->insns.assign(run, run + count);
    if (span.armed()) {
      span.SetDetail(StrCat(Hex32(pc), " ", count, " insns"));
    }
    GetEngineMetrics().blocks_decoded->Add(1);
    std::lock_guard<std::mutex> lock(mu_);
    auto* frame = static_cast<FrameBlocks*>(phys.Attachment(pl.frame));
    if (frame == nullptr) {
      frame = static_cast<FrameBlocks*>(
          phys.Attach(pl.frame, std::make_unique<FrameBlocks>(live_blocks_)));
    }
    // A racing decode of the same block may have won; both are identical.
    auto [it, inserted] = frame->blocks.try_emplace(offset, std::move(built));
    if (inserted) {
      live_blocks_->fetch_add(1, std::memory_order_relaxed);
    }
    block = it->second.get();
  }
  slot = L1Entry{pc, st.l1_tag, block};
  return block;
}

Result<void> ExecEngine::ExecuteBlock(Task& task, TaskCache& st, const Block& block,
                                      uint64_t budget, uint64_t* executed) {
  AddressSpace& space = task.space();
  uint32_t pc = task.pc();
  uint32_t next = 0;
  // First-touch accounting for the block's text page. CpuStep checks this
  // per instruction, but a block never crosses a page, so one check at
  // entry bills identically (Run() guarantees at least one instruction of
  // budget, matching CpuStep's bill-on-first-instruction).
  if (task.TouchTextPage(pc / kPageSize)) {
    task.BillSys(kernel_.costs().page_fault);
  }

  const DecodedInsn* d = block.insns.data();
  const DecodedInsn* const dbegin = d;
  const DecodedInsn* const dend = d + block.insns.size();
  auto r = [&](uint8_t i) { return task.reg(i); };
  auto w = [&](uint8_t i, uint32_t v) { task.set_reg(i, v); };

  // One budget and profiler check per block. With the profiler off and the
  // whole block inside the remaining budget, no boundary in it can stop or
  // sample, so it runs unchecked and retires its instructions at exit —
  // through *d, the last one executed (the faulting one on a mid-block
  // fault). Nothing the block calls reads the counts except the syscall,
  // which commits them first. Otherwise each instruction takes the checked
  // prologue below.
  const bool checked =
      CycleProfiler::enabled() || budget - *executed < static_cast<uint64_t>(dend - d);
  struct DeferredRetire {
    Task& task;
    uint64_t* executed;
    const DecodedInsn* begin;
    const DecodedInsn* const& last;
    bool pending;
    void Commit() {
      if (pending) {
        uint64_t n = static_cast<uint64_t>(last - begin) + 1;
        task.CountInstructions(n);
        *executed += n;
        pending = false;
      }
    }
    ~DeferredRetire() { Commit(); }
  } retire{task, executed, dbegin, d, !checked};

// Per-instruction prologue, replicating CpuStep's exact order: budget stop
// at the boundary (pc already points at the unexecuted instruction), retire
// count, profiler sample at the pre-execution pc, then pc := pc_next.
#define OMOS_PROLOGUE()                                                      \
  do {                                                                       \
    if (checked) {                                                           \
      if (*executed >= budget) {                                             \
        return OkResult();                                                   \
      }                                                                      \
      task.CountInstruction();                                               \
      ++*executed;                                                           \
      if (CycleProfiler::enabled() &&                                        \
          (task.instructions_retired() & CycleProfiler::mask()) == 0) {      \
        CycleProfiler::RecordSample(task.id(), pc);                          \
      }                                                                      \
    }                                                                        \
    next = pc + kInsnSize;                                                   \
    task.set_pc(next);                                                       \
  } while (0)

#if OMOS_ENGINE_DIRECT_THREADED
  // Label table indexed by Opcode (kCount excluded: DecodeInsn rejects it).
  static const void* const kOps[] = {
      &&L_kHalt, &&L_kNop,  &&L_kMovI,  &&L_kMov,   &&L_kLea,  &&L_kLeaPc, &&L_kAdd,
      &&L_kSub,  &&L_kMul,  &&L_kDiv,   &&L_kMod,   &&L_kAnd,  &&L_kOr,    &&L_kXor,
      &&L_kShl,  &&L_kShr,  &&L_kAddI,  &&L_kLd,    &&L_kSt,   &&L_kLdB,   &&L_kStB,
      &&L_kLdPc, &&L_kBeq,  &&L_kBne,   &&L_kBlt,   &&L_kBge,  &&L_kBltu,  &&L_kBgeu,
      &&L_kJmp,  &&L_kBr,   &&L_kJmpR,  &&L_kCall,  &&L_kCallPc, &&L_kCallR, &&L_kRet,
      &&L_kPush, &&L_kPop,  &&L_kSys};
  static_assert(static_cast<size_t>(Opcode::kCount) == 38, "keep kOps in sync with Opcode");

#define OMOS_OP(name) L_##name
#define OMOS_NEXT()                                                          \
  do {                                                                       \
    if (d + 1 == dend) {                                                     \
      return OkResult();                                                     \
    }                                                                        \
    ++d;                                                                     \
    pc = next;                                                               \
    OMOS_PROLOGUE();                                                         \
    goto* kOps[static_cast<size_t>(d->op)];                                  \
  } while (0)

  OMOS_PROLOGUE();
  goto* kOps[static_cast<size_t>(d->op)];
#else
#define OMOS_OP(name) case Opcode::name
#define OMOS_NEXT() break

  for (;;) {
    OMOS_PROLOGUE();
    switch (d->op) {
#endif

  OMOS_OP(kHalt):
    task.Exit(0);
    return OkResult();
  OMOS_OP(kNop):
    OMOS_NEXT();
  OMOS_OP(kMovI):
  OMOS_OP(kLea):
    w(d->r1, d->imm);
    OMOS_NEXT();
  OMOS_OP(kLeaPc):
    w(d->r1, next + d->imm);
    OMOS_NEXT();
  OMOS_OP(kMov):
    w(d->r1, r(d->r2));
    OMOS_NEXT();
  OMOS_OP(kAdd):
    w(d->r1, r(d->r2) + r(d->r3));
    OMOS_NEXT();
  OMOS_OP(kSub):
    w(d->r1, r(d->r2) - r(d->r3));
    OMOS_NEXT();
  OMOS_OP(kMul):
    w(d->r1, r(d->r2) * r(d->r3));
    OMOS_NEXT();
  OMOS_OP(kDiv):
    if (r(d->r3) == 0) {
      return Err(ErrorCode::kExecFault, StrCat("divide by zero at ", Hex32(pc)));
    }
    w(d->r1, static_cast<uint32_t>(static_cast<int32_t>(r(d->r2)) /
                                   static_cast<int32_t>(r(d->r3))));
    OMOS_NEXT();
  OMOS_OP(kMod):
    if (r(d->r3) == 0) {
      return Err(ErrorCode::kExecFault, StrCat("mod by zero at ", Hex32(pc)));
    }
    w(d->r1, static_cast<uint32_t>(static_cast<int32_t>(r(d->r2)) %
                                   static_cast<int32_t>(r(d->r3))));
    OMOS_NEXT();
  OMOS_OP(kAnd):
    w(d->r1, r(d->r2) & r(d->r3));
    OMOS_NEXT();
  OMOS_OP(kOr):
    w(d->r1, r(d->r2) | r(d->r3));
    OMOS_NEXT();
  OMOS_OP(kXor):
    w(d->r1, r(d->r2) ^ r(d->r3));
    OMOS_NEXT();
  OMOS_OP(kShl):
    w(d->r1, r(d->r2) << (r(d->r3) & 31));
    OMOS_NEXT();
  OMOS_OP(kShr):
    w(d->r1, r(d->r2) >> (r(d->r3) & 31));
    OMOS_NEXT();
  OMOS_OP(kAddI):
    w(d->r1, r(d->r2) + d->imm);
    OMOS_NEXT();
  OMOS_OP(kLd): {
    uint32_t addr = r(d->r2) + d->imm;
    if (const uint8_t* p = st.Probe(space, addr, 4, /*write=*/false)) {
      w(d->r1, Load32(p));
    } else {
      Result<uint32_t> v = space.Read32(addr);
      if (!v.ok()) {
        return v.error();
      }
      w(d->r1, *v);
    }
    OMOS_NEXT();
  }
  OMOS_OP(kSt): {
    uint32_t addr = r(d->r2) + d->imm;
    if (uint8_t* p = st.Probe(space, addr, 4, /*write=*/true)) {
      Store32(p, r(d->r1));
    } else {
      Result<void> res = space.Write32(addr, r(d->r1));
      if (!res.ok()) {
        return res.error();
      }
    }
    OMOS_NEXT();
  }
  OMOS_OP(kLdB): {
    uint32_t addr = r(d->r2) + d->imm;
    if (const uint8_t* p = st.Probe(space, addr, 1, /*write=*/false)) {
      w(d->r1, *p);
    } else {
      Result<uint8_t> v = space.Read8(addr);
      if (!v.ok()) {
        return v.error();
      }
      w(d->r1, *v);
    }
    OMOS_NEXT();
  }
  OMOS_OP(kStB): {
    uint32_t addr = r(d->r2) + d->imm;
    if (uint8_t* p = st.Probe(space, addr, 1, /*write=*/true)) {
      *p = static_cast<uint8_t>(r(d->r1));
    } else {
      Result<void> res = space.Write8(addr, static_cast<uint8_t>(r(d->r1)));
      if (!res.ok()) {
        return res.error();
      }
    }
    OMOS_NEXT();
  }
  OMOS_OP(kLdPc): {
    uint32_t addr = next + d->imm;
    if (const uint8_t* p = st.Probe(space, addr, 4, /*write=*/false)) {
      w(d->r1, Load32(p));
    } else {
      Result<uint32_t> v = space.Read32(addr);
      if (!v.ok()) {
        return v.error();
      }
      w(d->r1, *v);
    }
    OMOS_NEXT();
  }
  OMOS_OP(kBeq):
    if (r(d->r1) == r(d->r2)) {
      task.set_pc(next + d->imm);
    }
    return OkResult();
  OMOS_OP(kBne):
    if (r(d->r1) != r(d->r2)) {
      task.set_pc(next + d->imm);
    }
    return OkResult();
  OMOS_OP(kBlt):
    if (static_cast<int32_t>(r(d->r1)) < static_cast<int32_t>(r(d->r2))) {
      task.set_pc(next + d->imm);
    }
    return OkResult();
  OMOS_OP(kBge):
    if (static_cast<int32_t>(r(d->r1)) >= static_cast<int32_t>(r(d->r2))) {
      task.set_pc(next + d->imm);
    }
    return OkResult();
  OMOS_OP(kBltu):
    if (r(d->r1) < r(d->r2)) {
      task.set_pc(next + d->imm);
    }
    return OkResult();
  OMOS_OP(kBgeu):
    if (r(d->r1) >= r(d->r2)) {
      task.set_pc(next + d->imm);
    }
    return OkResult();
  OMOS_OP(kJmp):
    task.set_pc(d->imm);
    return OkResult();
  OMOS_OP(kBr):
    task.set_pc(next + d->imm);
    return OkResult();
  OMOS_OP(kJmpR):
    task.set_pc(r(d->r1));
    return OkResult();
  OMOS_OP(kCall):
    w(kRegLr, next);
    task.set_pc(d->imm);
    return OkResult();
  OMOS_OP(kCallPc):
    w(kRegLr, next);
    task.set_pc(next + d->imm);
    return OkResult();
  OMOS_OP(kCallR):
    w(kRegLr, next);
    task.set_pc(r(d->r1));
    return OkResult();
  OMOS_OP(kRet):
    task.set_pc(r(kRegLr));
    return OkResult();
  OMOS_OP(kPush): {
    uint32_t sp = r(kRegSp) - 4;
    w(kRegSp, sp);
    if (uint8_t* p = st.Probe(space, sp, 4, /*write=*/true)) {
      Store32(p, r(d->r1));
    } else {
      Result<void> res = space.Write32(sp, r(d->r1));
      if (!res.ok()) {
        return res.error();
      }
    }
    OMOS_NEXT();
  }
  OMOS_OP(kPop): {
    uint32_t sp = r(kRegSp);
    uint32_t v;
    if (const uint8_t* p = st.Probe(space, sp, 4, /*write=*/false)) {
      v = Load32(p);
    } else {
      Result<uint32_t> res = space.Read32(sp);
      if (!res.ok()) {
        return res.error();
      }
      v = *res;
    }
    w(d->r1, v);
    w(kRegSp, sp + 4);
    OMOS_NEXT();
  }
  OMOS_OP(kSys):
    // The syscall may remap, exit, or request a safepoint; end the block.
    // It also reads the task's cycle counts, so they must be current.
    retire.Commit();
    return kernel_.Syscall(task, d->imm);

#if !OMOS_ENGINE_DIRECT_THREADED
      case Opcode::kCount:
        return Err(ErrorCode::kExecFault, StrCat("illegal opcode at ", Hex32(pc)));
    }
    if (d + 1 == dend) {
      return OkResult();
    }
    ++d;
    pc = next;
  }
#endif

#undef OMOS_OP
#undef OMOS_NEXT
#undef OMOS_PROLOGUE
}

Result<void> ExecEngine::Run(Task& task, uint64_t budget, uint64_t* executed) {
  TaskCache& st = StateFor(task);
  EngineMetrics& metrics = GetEngineMetrics();
  struct FlushCounts {
    TaskCache& st;
    EngineMetrics& metrics;
    ~FlushCounts() {
      if (st.tlb_hits != 0) {
        metrics.tlb_hits->Add(st.tlb_hits);
      }
      if (st.tlb_misses != 0) {
        metrics.tlb_misses->Add(st.tlb_misses);
      }
      if (st.block_hits != 0) {
        metrics.block_hits->Add(st.block_hits);
      }
      if (st.l1_misses != 0) {
        metrics.l1_misses->Add(st.l1_misses);
      }
      st.tlb_hits = st.tlb_misses = st.block_hits = st.l1_misses = 0;
    }
  } flush{st, metrics};

  while (task.state() == TaskState::kRunnable && *executed < budget &&
         !task.safepoint_pending()) {
    uint32_t pc = task.pc();
    Result<const Block*> block = LookupBlock(task, st, pc);
    if (!block.ok()) {
      return block.error();
    }
    if (*block == nullptr) {
      // Uncacheable pc (page-crossing fetch, writable or still-absent
      // text): single-step the legacy way.
      OMOS_TRY_VOID(CpuStep(kernel_, task));
      ++*executed;
      continue;
    }
    OMOS_TRY_VOID(ExecuteBlock(task, st, **block, budget, executed));
  }
  return OkResult();
}

}  // namespace omos
