// Tests for the predecoded block execution engine (src/engine/): the
// differential suite runs the same programs under the legacy CpuStep
// interpreter and the block engine and requires every simulated observable
// — final registers, pc, cycles, retired counts, output, fault identity,
// profiler sample stream — to be byte-identical; the fault sweeps prove
// mid-block CoW/demand-zero faults leave precise state; the chain tests
// check that blocks chained without returning to the run loop still stop
// exactly at the budget and at a safepoint, agree on unaligned and
// cross-page control flow and on undecodable words, and never enter code a
// remap replaced; the wide-hot-set tests check that the per-task page table
// holds a few hundred blocks over many text pages, stays exact when pages
// share a slot or overflow the table, and that a task never runs code
// through another task's caches; the retirement and concurrency tests
// (TSan-covered) prove that decoded pages live and die with their frames:
// freed text takes its decoded pages along, a redefinition or live upgrade
// costs only the re-decode of the text it replaced, racing decodes of one
// frame leave one copy, and neither stale code nor a freed page is ever
// executed.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/server.h"
#include "src/engine/engine.h"
#include "src/support/faultsim.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/support/trace.h"
#include "src/upgrade/upgrade.h"
#include "tests/helpers.h"

namespace omos {
namespace {

// ---- Differential harness ---------------------------------------------------

// Every simulated observable of one run: how it ended, the final machine
// state, the accounting, and the console output. Two engines agree iff all
// fields match.
struct Observed {
  std::string run_status;  // "ok" or RunTask's error string (budget, fault)
  int state = 0;
  int exit_code = 0;
  uint32_t pc = 0;
  std::array<uint32_t, kNumRegisters> regs{};
  uint64_t user_cycles = 0;
  uint64_t sys_cycles = 0;
  uint64_t retired = 0;
  size_t touched_text_pages = 0;
  std::string output;
  std::string fault;
  uint64_t vm_hits = 0;   // FaultSim vm.fault hit count (0 unless a plan is armed)
  uint64_t vm_fires = 0;
};

struct EngineWorld {
  std::unique_ptr<Kernel> kernel;
  Task* task = nullptr;
};

Result<EngineWorld> SetupWorld(EngineMode mode, const std::string& source) {
  EngineWorld w;
  w.kernel = std::make_unique<Kernel>();
  w.kernel->SetEngineMode(mode);
  OMOS_TRY(ObjectFile object, Assemble(source, "engine.o"));
  Module module = Module::FromObject(std::make_shared<const ObjectFile>(std::move(object)));
  LayoutSpec layout;
  layout.entry_symbol = "_start";
  OMOS_TRY(LinkedImage image, LinkImage(module, layout, "engine"));
  w.task = &w.kernel->CreateTask("engine");
  OMOS_TRY_VOID(MapLinkedImage(*w.kernel, *w.task, image, ""));
  std::vector<std::string> args{"engine"};
  OMOS_TRY_VOID(StartTask(*w.kernel, *w.task, image.entry, args));
  return w;
}

Observed Capture(EngineWorld& w, const Result<void>& run) {
  Observed o;
  o.run_status = run.ok() ? "ok" : run.error().ToString();
  o.state = static_cast<int>(w.task->state());
  o.exit_code = w.task->exit_code();
  o.pc = w.task->pc();
  for (int i = 0; i < kNumRegisters; ++i) {
    o.regs[static_cast<size_t>(i)] = w.task->reg(i);
  }
  o.user_cycles = w.task->user_cycles();
  o.sys_cycles = w.task->sys_cycles();
  o.retired = w.task->instructions_retired();
  o.touched_text_pages = w.task->touched_text_pages();
  o.output = w.task->output();
  o.fault = w.task->fault() ? w.task->fault()->ToString() : "";
  return o;
}

Result<Observed> RunUnder(EngineMode mode, const std::string& source,
                          uint64_t budget = 200'000'000) {
  OMOS_TRY(EngineWorld w, SetupWorld(mode, source));
  Result<void> run = w.kernel->RunTask(*w.task, budget);
  return Capture(w, run);
}

// Runs with a vm.fault plan armed only around execution (not setup), so the
// fault schedule is identical for both engines.
Result<Observed> RunWithFaultPlan(EngineMode mode, const std::string& source, FaultSpec spec) {
  OMOS_TRY(EngineWorld w, SetupWorld(mode, source));
  Observed o;
  {
    ScopedFaultPlan plan(FaultPlan().Arm("vm.fault", spec));
    Result<void> run = w.kernel->RunTask(*w.task, 200'000'000);
    o = Capture(w, run);
    o.vm_hits = FaultSim::Hits("vm.fault");
    o.vm_fires = FaultSim::Fires("vm.fault");
  }
  return o;
}

void ExpectSame(const Observed& interp, const Observed& blocks, const std::string& label) {
  EXPECT_EQ(interp.run_status, blocks.run_status) << label;
  EXPECT_EQ(interp.state, blocks.state) << label;
  EXPECT_EQ(interp.exit_code, blocks.exit_code) << label;
  EXPECT_EQ(interp.pc, blocks.pc) << label;
  for (int i = 0; i < kNumRegisters; ++i) {
    EXPECT_EQ(interp.regs[static_cast<size_t>(i)], blocks.regs[static_cast<size_t>(i)])
        << label << " r" << i;
  }
  EXPECT_EQ(interp.user_cycles, blocks.user_cycles) << label;
  EXPECT_EQ(interp.sys_cycles, blocks.sys_cycles) << label;
  EXPECT_EQ(interp.retired, blocks.retired) << label;
  EXPECT_EQ(interp.touched_text_pages, blocks.touched_text_pages) << label;
  EXPECT_EQ(interp.output, blocks.output) << label;
  EXPECT_EQ(interp.fault, blocks.fault) << label;
  EXPECT_EQ(interp.vm_hits, blocks.vm_hits) << label;
  EXPECT_EQ(interp.vm_fires, blocks.vm_fires) << label;
}

void ExpectEnginesAgree(const std::string& source, uint64_t budget = 200'000'000) {
  ASSERT_OK_AND_ASSIGN(Observed interp, RunUnder(EngineMode::kInterp, source, budget));
  ASSERT_OK_AND_ASSIGN(Observed blocks, RunUnder(EngineMode::kBlocks, source, budget));
  ExpectSame(interp, blocks, StrCat("budget ", budget));
}

// ---- Differential suite -----------------------------------------------------

TEST(EngineDifferential, AluMix) {
  ExpectEnginesAgree(R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 37
  movi r6, 0x1234
  movi r7, 7
loop:
  add r1, r1, r6
  sub r2, r1, r4
  mul r3, r2, r6
  div r8, r3, r7
  mod r9, r3, r7
  and r10, r8, r9
  or r11, r8, r9
  xor r12, r11, r10
  shl r1, r12, r7
  shr r2, r12, r7
  addi r4, r4, 1
  blt r4, r5, loop
  mov r0, r12
  sys 0
)");
}

TEST(EngineDifferential, MemoryMix) {
  ExpectEnginesAgree(R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 24
  movi r7, 7
  movi r8, 2
loop:
  lea r1, table
  and r2, r4, r7
  shl r2, r2, r8
  add r1, r1, r2
  ld r3, [r1+0]
  addi r3, r3, 5
  st r3, [r1+0]
  ldb r6, [r1+1]
  stb r6, [r1+2]
  addi r4, r4, 1
  blt r4, r5, loop
  ld r0, [r1+0]
  sys 0
.data
.align 4
table:
  .word 1
  .word 2
  .word 3
  .word 4
  .word 5
  .word 6
  .word 7
  .word 8
)");
}

TEST(EngineDifferential, BranchesAndCalls) {
  ExpectEnginesAgree(R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 12
loop:
  mov r0, r4
  call twist
  add r6, r6, r0
  addi r4, r4, 1
  bne r4, r5, loop
  mov r0, r6
  sys 0
twist:
  push lr
  push r4
  movi r1, 5
  blt r0, r1, small
  movi r2, 9
  bgeu r0, r2, big
  lea r3, add3
  callr r3
  br join
small:
  call add10
  br join
big:
  movi r3, 4
  bltu r0, r3, join
  bge r0, r1, viajmp
viajmp:
  jmp add3_tail
join:
  pop r4
  pop lr
  ret
add3:
add3_tail:
  addi r0, r0, 3
  beq r0, r0, back
back:
  ret
add10:
  addi r0, r0, 10
  ret
)");
}

TEST(EngineDifferential, PcRelativeForms) {
  ExpectEnginesAgree(R"(
.text
.global _start
_start:
  ldpc r1, value
  leapc r2, value
  ld r3, [r2+0]
  add r0, r1, r3
  callpc bump
  lea r4, fin
  jmpr r4
bump:
  addi r0, r0, 1
  ret
fin:
  sys 0
.data
.align 4
value: .word 20
)");
}

TEST(EngineDifferential, SyscallOutput) {
  ExpectEnginesAgree(R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 9
loop:
  movi r0, 1
  lea r1, msg
  movi r2, 3
  sys 1
  addi r4, r4, 1
  blt r4, r5, loop
  movi r0, 7
  sys 0
.data
msg: .asciiz "ab\n"
)");
}

TEST(EngineDifferential, SyscallsSeeCurrentCounts) {
  // The block engine retires an unchecked block's instructions at its exit;
  // a syscall ending the block must still see every one of them.
  const std::string prog = R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 50
loop:
  add r6, r6, r4
  xor r7, r6, r5
  addi r4, r4, 1
  sys 40
  blt r4, r5, loop
  movi r0, 0
  sys 0
)";
  std::vector<uint64_t> seen[2];
  const EngineMode modes[2] = {EngineMode::kInterp, EngineMode::kBlocks};
  for (int i = 0; i < 2; ++i) {
    ASSERT_OK_AND_ASSIGN(EngineWorld w, SetupWorld(modes[i], prog));
    std::vector<uint64_t>& out = seen[i];
    w.kernel->SetSysHook(40, [&out](Kernel&, Task& task) -> Result<void> {
      out.push_back(task.instructions_retired());
      out.push_back(task.user_cycles());
      return OkResult();
    });
    ASSERT_OK(w.kernel->RunTask(*w.task));
  }
  ASSERT_EQ(seen[0].size(), 100u);
  EXPECT_EQ(seen[0], seen[1]);
}

TEST(EngineDifferential, DivideByZeroFaultIsIdentical) {
  // The fault is mid-block: three straight-line instructions precede it.
  ExpectEnginesAgree(R"(
.text
.global _start
_start:
  movi r1, 7
  movi r2, 0
  add r3, r1, r1
  div r0, r3, r2
  sys 0
)");
  ExpectEnginesAgree(R"(
.text
.global _start
_start:
  movi r1, 7
  movi r2, 0
  add r3, r1, r1
  mod r0, r3, r2
  sys 0
)");
}

TEST(EngineDifferential, FetchFromNonExecPageFaultIsIdentical) {
  // Jumping into the data segment makes the instruction fetch itself fail;
  // the engine's block-probe path must surface the same error as CpuStep.
  ExpectEnginesAgree(R"(
.text
.global _start
_start:
  lea r1, blob
  jmpr r1
.data
.align 4
blob: .word 0x11111111
)");
}

// Instruction budgets must stop both engines at exactly the same
// instruction boundary — mid-block for the block engine — with identical
// machine state, including budgets that land inside the loop body.
TEST(EngineDifferential, BudgetStopsAreExact) {
  const std::string spin = R"(
.text
.global _start
_start:
  movi r4, 0
loop:
  addi r4, r4, 1
  xor r5, r4, r6
  add r6, r5, r4
  mul r7, r6, r4
  br loop
)";
  for (uint64_t budget = 1; budget <= 48; ++budget) {
    ASSERT_OK_AND_ASSIGN(Observed interp, RunUnder(EngineMode::kInterp, spin, budget));
    ASSERT_OK_AND_ASSIGN(Observed blocks, RunUnder(EngineMode::kBlocks, spin, budget));
    ASSERT_NE(interp.run_status, "ok") << "budget " << budget;
    EXPECT_NE(interp.run_status.find("exceeded instruction budget"), std::string::npos);
    ExpectSame(interp, blocks, StrCat("budget ", budget));
    EXPECT_EQ(blocks.retired, budget);
  }
}

// ---- Chained blocks ---------------------------------------------------------

// Calls across three text pages, with stack pushes (the first faults in a
// stack page mid-chain) and a data load: block entries chain through calls,
// returns, branches and page changes without returning to the run loop.
constexpr char kCrossPageCalls[] = R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 3
loop:
  call pa
  addi r4, r4, 1
  blt r4, r5, loop
  mov r0, r6
  sys 0
.align 4096
pa:
  push lr
  addi r6, r6, 1
  call pb
  pop lr
  ret
.align 4096
pb:
  push lr
  lea r1, word
  ld r2, [r1+0]
  add r6, r6, r2
  call pc
  pop lr
  ret
.align 4096
pc:
  addi r6, r6, 5
  ret
.data
.align 4
word: .word 7
)";

TEST(EngineChain, BudgetStopsAreExactAcrossCallsAndPages) {
  // Every budget from 1 to past the end: the chain must stop exactly at the
  // budget, mid-block or at a chained block's head, with identical state.
  ASSERT_OK_AND_ASSIGN(Observed full, RunUnder(EngineMode::kInterp, kCrossPageCalls));
  ASSERT_EQ(full.state, static_cast<int>(TaskState::kExited));
  EXPECT_EQ(full.exit_code, 39);
  EXPECT_EQ(full.touched_text_pages, 4u);
  for (uint64_t budget = 1; budget <= full.retired + 1; ++budget) {
    ASSERT_OK_AND_ASSIGN(Observed interp, RunUnder(EngineMode::kInterp, kCrossPageCalls, budget));
    ASSERT_OK_AND_ASSIGN(Observed blocks, RunUnder(EngineMode::kBlocks, kCrossPageCalls, budget));
    ExpectSame(interp, blocks, StrCat("budget ", budget));
    EXPECT_EQ(blocks.retired, std::min(budget, full.retired));
  }
}

TEST(EngineChain, SafepointRequestedDuringAChainStopsAtTheNextBlockBoundary) {
  // The loop never leaves the chain on its own (no syscall, and the budget
  // is far away), so only the per-block safepoint check can hand the task
  // to the hook.
  constexpr char kSpin[] = R"(
.text
.global _start
_start:
  movi r4, 0
spin:
  addi r4, r4, 1
  addi r5, r5, 2
  br spin
)";
  for (EngineMode mode : {EngineMode::kInterp, EngineMode::kBlocks}) {
    ASSERT_OK_AND_ASSIGN(EngineWorld w, SetupWorld(mode, kSpin));
    const uint32_t start = w.task->pc();
    uint32_t stop_pc = 0;
    uint64_t stop_retired = 0;
    int hook_runs = 0;
    w.kernel->SetSafepointHook([&](Kernel&, Task& task) -> Result<void> {
      ++hook_runs;
      stop_pc = task.pc();
      stop_retired = task.instructions_retired();
      task.ClearSafepoint();
      task.Exit(0);
      return OkResult();
    });
    std::thread requester([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      w.task->RequestSafepoint();
    });
    Result<void> run = w.kernel->RunTask(*w.task, 500'000'000);
    requester.join();
    ASSERT_OK(run);
    EXPECT_EQ(hook_runs, 1);
    ASSERT_EQ(w.task->state(), TaskState::kExited);
    // Whatever the engine, the hook sees a consistent boundary: the loop
    // counter matches the instructions retired so far.
    ASSERT_GE(stop_retired, 1u);
    uint64_t in_loop = stop_retired - 1;
    EXPECT_EQ(w.task->reg(4), (in_loop + 2) / 3);
    if (mode == EngineMode::kBlocks) {
      // The block engine honours it between blocks: at `spin` (or at
      // `_start`, had the request come first), never inside the loop body.
      EXPECT_TRUE(stop_pc == start + kInsnSize || stop_pc == start) << Hex32(stop_pc);
      EXPECT_EQ(in_loop % 3, 0u);
      EXPECT_EQ(w.task->reg(5), 2 * (in_loop / 3));
    }
  }
}

TEST(EngineChain, UnalignedAndPageStraddlingJumpsAgree) {
  // `odd` sits 4 bytes past an instruction boundary, and `straddle` ends a
  // page with an instruction whose fetch crosses into the next one: blocks
  // are indexed by 8-byte-aligned offsets, so the block engine single-steps
  // these pcs and must match CpuStep exactly, including the jumps back into
  // aligned (chained) code.
  constexpr char kUnaligned[] = R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 20
  lea r1, odd
  jmpr r1
.space 4
odd:
  addi r4, r4, 1
  addi r6, r6, 3
  blt r4, r5, odd
  call aligned
  lea r1, straddle
  jmpr r1
.space 4
aligned:
  addi r6, r6, 100
  ret
.align 4096
.space 4084
straddle:
  addi r6, r6, 1000
  addi r6, r6, 1
  mov r0, r6
  sys 0
)";
  ASSERT_OK_AND_ASSIGN(Observed interp, RunUnder(EngineMode::kInterp, kUnaligned));
  ASSERT_OK_AND_ASSIGN(Observed blocks, RunUnder(EngineMode::kBlocks, kUnaligned));
  ExpectSame(interp, blocks, "unaligned");
  EXPECT_EQ(interp.state, static_cast<int>(TaskState::kExited));
  EXPECT_EQ(interp.exit_code, 20 * 3 + 100 + 1000 + 1);
}

TEST(EngineChain, FirstTouchBillAcrossFourPagesMatchesTheInterpreter) {
  // Calls across four text pages, while a store walks down fresh stack
  // pages: each demand-zero fill bumps the map epoch mid-chain and flushes
  // the page table, whose refills must not bill a touched page again.
  constexpr char kFourPages[] = R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 6
  mov r9, r13
loop:
  addi r9, r9, -4096
  st r4, [r9+0]
  call q1
  addi r4, r4, 1
  blt r4, r5, loop
  mov r0, r6
  sys 0
.align 4096
q1:
  push lr
  call q2
  pop lr
  ret
.align 4096
q2:
  push lr
  call q3
  pop lr
  ret
.align 4096
q3:
  addi r6, r6, 2
  ret
)";
  ASSERT_OK_AND_ASSIGN(Observed interp, RunUnder(EngineMode::kInterp, kFourPages));
  ASSERT_OK_AND_ASSIGN(Observed blocks, RunUnder(EngineMode::kBlocks, kFourPages));
  ExpectSame(interp, blocks, "four pages");
  EXPECT_EQ(blocks.exit_code, 12);
  EXPECT_EQ(blocks.touched_text_pages, 4u);
  EXPECT_EQ(blocks.sys_cycles, interp.sys_cycles);
}

// ---- The chain's guard ------------------------------------------------------

constexpr uint32_t kPageW = 0x00010000;
constexpr uint32_t kPageX = 0x00020000;
constexpr uint32_t kPageD = 0x00030000;  // demand-zero data

// A task running hand-encoded text pages, each mapped shared from an image
// the world keeps. A frame a remap unmaps therefore stays alive with its
// decoded page, so an engine that missed the remap would run the old code
// (a wrong answer), not freed memory.
struct PageWorld {
  EngineWorld engine;
  std::vector<std::unique_ptr<SegmentImage>> images;

  // A one-page image holding `code` from its first word.
  Result<const SegmentImage*> Image(const std::vector<Instruction>& code) {
    std::vector<uint8_t> bytes(kPageSize, 0);
    for (size_t i = 0; i < code.size(); ++i) {
      EncodeInsn(code[i], bytes.data() + i * kInsnSize);
    }
    OMOS_TRY(SegmentImage image, SegmentImage::Create(engine.kernel->phys(), bytes));
    images.push_back(std::make_unique<SegmentImage>(std::move(image)));
    return images.back().get();
  }
  Result<void> Map(uint32_t base, const SegmentImage& image) {
    return engine.kernel->MapShared(*engine.task, base, image, kProtRead | kProtExec,
                                    Hex32(base));
  }
  // Different code at the same virtual page.
  Result<void> Remap(uint32_t base, const SegmentImage& image) {
    OMOS_TRY_VOID(engine.task->space().Unmap(base));
    return Map(base, image);
  }
  Result<void> Start(uint32_t entry) {
    std::vector<std::string> args{"pages"};
    return StartTask(*engine.kernel, *engine.task, entry, args);
  }
};

PageWorld MakePageWorld(EngineMode mode) {
  PageWorld pw;
  pw.engine.kernel = std::make_unique<Kernel>();
  pw.engine.kernel->SetEngineMode(mode);
  pw.engine.task = &pw.engine.kernel->CreateTask("pages");
  return pw;
}

Instruction Op(Opcode op, uint8_t r1 = 0, uint8_t r2 = 0, uint32_t imm = 0) {
  return Instruction{op, r1, r2, 0, imm};
}

// Branch displacement from the word at `from` to the word at `to` (word
// indices on one page): relative to the next instruction.
uint32_t Disp(int from, int to) {
  return static_cast<uint32_t>((to - from - 1) * static_cast<int>(kInsnSize));
}

TEST(EngineChain, RemapInASyscallHookRunsTheNewCode) {
  // W calls X three times. On the first call X's `sys 41` unmaps X and maps
  // different code at the same virtual page; X then branches within that
  // page and returns to W. Only the new code may run after the syscall:
  // each call adds 1 + 20 (the old code adds 1 + 10).
  const std::vector<Instruction> w = {
      Op(Opcode::kMovI, 4), Op(Opcode::kMovI, 5, 0, 3),
      Op(Opcode::kMovI, 1, 0, kPageX),  // 2: loop
      Op(Opcode::kCallR, 1), Op(Opcode::kAddI, 4, 4, 1),
      Op(Opcode::kBlt, 4, 5, Disp(5, 2)), Op(Opcode::kMov, 0, 6), Op(Opcode::kSys),
  };
  const std::vector<Instruction> x1 = {
      Op(Opcode::kAddI, 6, 6, 1), Op(Opcode::kSys, 0, 0, 41),
      Op(Opcode::kBr, 0, 0, Disp(2, 4)),  Op(Opcode::kAddI, 6, 6, 1000),
      Op(Opcode::kAddI, 6, 6, 10),        Op(Opcode::kRet),
  };
  std::vector<Instruction> x2 = x1;
  x2[4].imm = 20;
  std::vector<Observed> runs;
  for (EngineMode mode : {EngineMode::kInterp, EngineMode::kBlocks}) {
    PageWorld pw = MakePageWorld(mode);
    ASSERT_OK_AND_ASSIGN(const SegmentImage* w_image, pw.Image(w));
    ASSERT_OK_AND_ASSIGN(const SegmentImage* x1_image, pw.Image(x1));
    ASSERT_OK_AND_ASSIGN(const SegmentImage* x2_image, pw.Image(x2));
    ASSERT_OK(pw.Map(kPageW, *w_image));
    ASSERT_OK(pw.Map(kPageX, *x1_image));
    ASSERT_OK(pw.Start(kPageW));
    bool remapped = false;
    pw.engine.kernel->SetSysHook(41, [&](Kernel&, Task&) -> Result<void> {
      if (remapped) {
        return OkResult();
      }
      remapped = true;
      return pw.Remap(kPageX, *x2_image);
    });
    Result<void> run = pw.engine.kernel->RunTask(*pw.engine.task);
    runs.push_back(Capture(pw.engine, run));
    EXPECT_TRUE(remapped);
  }
  ExpectSame(runs[0], runs[1], "remap in a syscall hook");
  EXPECT_EQ(runs[1].state, static_cast<int>(TaskState::kExited));
  EXPECT_EQ(runs[1].exit_code, 3 * 21);
}

TEST(EngineChain, RemapInAFaultMidChainRunsTheNewCode) {
  // The remap happens inside a run of chained blocks, not at a syscall: on
  // the first call, X's store faults in the data page, and the fault
  // handler maps new code at both W and X. X then branches within its page
  // (the chain's current page) and returns to W (the page it came from).
  // Both chain entries predate the remap, so only the map-epoch check keeps
  // them from entering the old code: each call must add 2 + 200 (the old
  // code adds 1 + 100).
  const std::vector<Instruction> w1 = {
      Op(Opcode::kMovI, 4), Op(Opcode::kMovI, 5, 0, 3), Op(Opcode::kMovI, 9, 0, kPageD),
      Op(Opcode::kMovI, 1, 0, kPageX),  // 3: loop
      Op(Opcode::kCallR, 1),
      Op(Opcode::kAddI, 6, 6, 100),  // 5: the return site
      Op(Opcode::kAddI, 4, 4, 1),       Op(Opcode::kBlt, 4, 5, Disp(7, 3)),
      Op(Opcode::kMov, 0, 6),           Op(Opcode::kSys),
  };
  const std::vector<Instruction> x1 = {
      Op(Opcode::kSt, 4, 9),  // faults in the data page on the first call
      Op(Opcode::kBr, 0, 0, Disp(1, 3)), Op(Opcode::kAddI, 6, 6, 1000),
      Op(Opcode::kAddI, 6, 6, 1),        Op(Opcode::kRet),
  };
  std::vector<Instruction> w2 = w1;
  w2[5].imm = 200;
  std::vector<Instruction> x2 = x1;
  x2[3].imm = 2;
  std::vector<Observed> runs;
  for (EngineMode mode : {EngineMode::kInterp, EngineMode::kBlocks}) {
    PageWorld pw = MakePageWorld(mode);
    Kernel& kernel = *pw.engine.kernel;
    Task& task = *pw.engine.task;
    ASSERT_OK_AND_ASSIGN(const SegmentImage* w1_image, pw.Image(w1));
    ASSERT_OK_AND_ASSIGN(const SegmentImage* x1_image, pw.Image(x1));
    ASSERT_OK_AND_ASSIGN(const SegmentImage* w2_image, pw.Image(w2));
    ASSERT_OK_AND_ASSIGN(const SegmentImage* x2_image, pw.Image(x2));
    ASSERT_OK(pw.Map(kPageW, *w1_image));
    ASSERT_OK(pw.Map(kPageX, *x1_image));
    ASSERT_OK(kernel.MapDemandZero(task, kPageD, kPageSize, kProtRead | kProtWrite, "data"));
    ASSERT_OK(pw.Start(kPageW));
    bool remapped = false;
    task.space().SetFaultHandler([&](const PageFaultInfo& info) -> Result<void> {
      if (!remapped && info.addr / kPageSize == kPageD / kPageSize) {
        remapped = true;
        OMOS_TRY_VOID(pw.Remap(kPageW, *w2_image));
        OMOS_TRY_VOID(pw.Remap(kPageX, *x2_image));
      }
      return kernel.HandleFault(task, info);
    });
    Result<void> run = kernel.RunTask(task);
    runs.push_back(Capture(pw.engine, run));
    EXPECT_TRUE(remapped);
  }
  ExpectSame(runs[0], runs[1], "remap in a fault");
  EXPECT_EQ(runs[1].state, static_cast<int>(TaskState::kExited));
  EXPECT_EQ(runs[1].exit_code, 3 * 202);
}

TEST(EngineChain, IllegalWordInAChainedBlockFaultsLikeCpuStep) {
  // The block after the `br` is entered through the chain (its page is the
  // running one) and runs into an undecodable word, which ends it. The word
  // then heads a block of its own and is single-stepped, so the fault is
  // DecodeInsn's, with the word unretired, as under CpuStep. Every budget
  // stop before it agrees too.
  struct Case {
    Instruction word;
    std::string message;
  };
  const Case cases[] = {
      {Instruction{static_cast<Opcode>(0xFF)}, "illegal opcode 255"},
      {Instruction{Opcode::kAdd, 20}, "register index out of range"},
  };
  for (const Case& c : cases) {
    const std::vector<Instruction> code = {
        Op(Opcode::kMovI, 1, 0, 5),
        Op(Opcode::kBr),  // to the next word
        Op(Opcode::kAddI, 1, 1, 1),
        c.word,
    };
    for (uint64_t budget = 1; budget <= code.size(); ++budget) {
      std::vector<Observed> runs;
      for (EngineMode mode : {EngineMode::kInterp, EngineMode::kBlocks}) {
        PageWorld pw = MakePageWorld(mode);
        ASSERT_OK_AND_ASSIGN(const SegmentImage* image, pw.Image(code));
        ASSERT_OK(pw.Map(kPageW, *image));
        ASSERT_OK(pw.Start(kPageW));
        Result<void> run = pw.engine.kernel->RunTask(*pw.engine.task, budget);
        runs.push_back(Capture(pw.engine, run));
      }
      ExpectSame(runs[0], runs[1], StrCat(c.message, ", budget ", budget));
      if (budget == code.size()) {
        EXPECT_EQ(runs[1].state, static_cast<int>(TaskState::kFaulted));
        EXPECT_EQ(runs[1].retired, 3u);
        EXPECT_EQ(runs[1].pc, kPageW + 3 * kInsnSize);
        EXPECT_NE(runs[1].fault.find(c.message), std::string::npos) << runs[1].fault;
        EXPECT_EQ(runs[1].regs[1], 6u);
      }
    }
  }
}

// ---- Seeded vm.fault sweeps -------------------------------------------------

// The loop body mixes demand-zero fills (a walk down the unmapped stack
// pages) with a CoW break (first store to the data page), all mid-block.
constexpr char kFaultyProgram[] = R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 6
  mov r6, r13
loop:
  addi r6, r6, -4096
  st r4, [r6+0]
  lea r1, word
  ld r2, [r1+0]
  add r2, r2, r4
  st r2, [r1+0]
  addi r4, r4, 1
  blt r4, r5, loop
  ld r0, [r1+0]
  sys 0
.data
.align 4
word: .word 3
)";

TEST(EngineFaultSweep, NthFaultLeavesPreciseStateInBothEngines) {
  // k sweeps past the total number of fault resolutions (the last k values
  // fire nothing and the run completes), so both the faulted and clean
  // paths are compared. On a fire the store fails mid-block: the task must
  // be left at exactly the state the legacy interpreter produces.
  bool saw_fault = false;
  bool saw_clean = false;
  for (uint64_t k = 1; k <= 9; ++k) {
    ASSERT_OK_AND_ASSIGN(Observed interp,
                         RunWithFaultPlan(EngineMode::kInterp, kFaultyProgram, FaultSpec::Nth(k)));
    ASSERT_OK_AND_ASSIGN(Observed blocks,
                         RunWithFaultPlan(EngineMode::kBlocks, kFaultyProgram, FaultSpec::Nth(k)));
    ExpectSame(interp, blocks, StrCat("nth ", k));
    if (blocks.vm_fires > 0) {
      saw_fault = true;
      EXPECT_EQ(blocks.state, static_cast<int>(TaskState::kFaulted)) << "nth " << k;
      EXPECT_FALSE(blocks.fault.empty()) << "nth " << k;
    } else {
      saw_clean = true;
      EXPECT_EQ(blocks.state, static_cast<int>(TaskState::kExited)) << "nth " << k;
      EXPECT_EQ(blocks.run_status, "ok") << "nth " << k;
    }
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_clean);
}

TEST(EngineFaultSweep, SeededProbabilisticParity) {
  // Every seed yields one deterministic fault schedule; both engines must
  // hit the sites in the same order and count, so the schedules — and the
  // resulting final states — are identical.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ASSERT_OK_AND_ASSIGN(
        Observed interp,
        RunWithFaultPlan(EngineMode::kInterp, kFaultyProgram, FaultSpec::Prob(0.4, seed)));
    ASSERT_OK_AND_ASSIGN(
        Observed blocks,
        RunWithFaultPlan(EngineMode::kBlocks, kFaultyProgram, FaultSpec::Prob(0.4, seed)));
    ExpectSame(interp, blocks, StrCat("seed ", seed));
  }
}

// ---- Profiler attribution ---------------------------------------------------

// Same convention in both engines (see the note in src/os/cpu.cc): a sample
// records the PRE-execution pc of the retiring instruction. The full sample
// stream must match, not just the histogram.
// Runs `prog` under both engines with the profiler sampling every 16
// retired instructions; the streams must match sample for sample.
void ExpectSameSampleStreams(const std::string& prog, size_t min_samples) {
  std::vector<CycleProfiler::Sample> streams[2];
  const EngineMode modes[2] = {EngineMode::kInterp, EngineMode::kBlocks};
  for (int i = 0; i < 2; ++i) {
    CycleProfiler::Clear();
    CycleProfiler::Start(16);
    ASSERT_OK_AND_ASSIGN(EngineWorld w, SetupWorld(modes[i], prog));
    ASSERT_OK(w.kernel->RunTask(*w.task));
    CycleProfiler::Stop();
    streams[i] = CycleProfiler::Samples();
  }
  ASSERT_GT(streams[0].size(), min_samples);
  ASSERT_EQ(streams[0].size(), streams[1].size());
  for (size_t i = 0; i < streams[0].size(); ++i) {
    EXPECT_EQ(streams[0][i].task_id, streams[1][i].task_id) << "sample " << i;
    EXPECT_EQ(streams[0][i].pc, streams[1][i].pc) << "sample " << i;
  }
}

TEST(EngineProfiler, SampleStreamsAreIdentical) {
  ExpectSameSampleStreams(R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 800
loop:
  add r6, r6, r4
  xor r7, r6, r5
  call leaf
  addi r4, r4, 1
  blt r4, r5, loop
  movi r0, 0
  sys 0
leaf:
  addi r7, r7, 1
  ret
)",
                          10);
}

// ---- Wide hot set -----------------------------------------------------------

constexpr int kWideFunctionsPerPage = 40;

// A loop over ~500 distinct blocks on four text pages, like a compiler's
// hot set: each iteration calls one driver per page, which calls 40 two-block
// functions on its page (pages 2 and 3 start theirs half a page in). Exit
// code: the low byte of the accumulator r6.
std::string WideHotSetProgram(int iterations) {
  std::string src = StrCat(R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, )", iterations, R"(
  movi r6, 0
  br loop  # make the loop head a block head from the first iteration on
loop:
  call g0
  call g1
  call g2
  call g3
  addi r4, r4, 1
  blt r4, r5, loop
  movi r0, 1
  lea r1, msg
  movi r2, 5
  sys 1
  movi r1, 255
  and r0, r6, r1
  sys 0
)");
  for (int page = 0; page < 4; ++page) {
    if (page > 0) {
      src += ".align 4096\n";
    }
    if (page >= 2) {
      src += ".space 2048\n";
    }
    src += StrCat("g", page, ":\n  push lr\n");
    for (int i = 0; i < kWideFunctionsPerPage; ++i) {
      src += StrCat("  call f", page, "_", i, "\n");
    }
    src += "  pop lr\n  ret\n";
    for (int i = 0; i < kWideFunctionsPerPage; ++i) {
      std::string f = StrCat("f", page, "_", i);
      src += StrCat(f, ":\n  addi r6, r6, ", page * kWideFunctionsPerPage + i + 1, "\n  br ", f,
                    "_t\n", f, "_t:\n  add r6, r6, r4\n  ret\n");
    }
  }
  src += ".data\nmsg: .asciiz \"wide\\n\"\n";
  return src;
}

TEST(EngineWideHotSet, EnginesAgreeIncludingProfilerSamples) {
  const std::string prog = WideHotSetProgram(30);
  ASSERT_OK_AND_ASSIGN(Observed interp, RunUnder(EngineMode::kInterp, prog));
  ASSERT_OK_AND_ASSIGN(Observed blocks, RunUnder(EngineMode::kBlocks, prog));
  ExpectSame(interp, blocks, "wide");
  EXPECT_EQ(blocks.state, static_cast<int>(TaskState::kExited));
  EXPECT_EQ(blocks.output, "wide\n");
  EXPECT_EQ(blocks.touched_text_pages, 4u);

  // With the profiler on, every block takes the checked per-instruction
  // path; the sample streams must still match.
  ExpectSameSampleStreams(prog, 100);
}

TEST(EngineWideHotSet, L1MissesStopAfterTheFirstIteration) {
  // Each run starts with a cold kernel (no decoded pages) and a cold page
  // table. Slow-path lookups (engine.l1_misses) are the page-table fills:
  // the first iteration fills one entry for each of the four text pages,
  // decoding each page once, and nothing flushes the table after that, so
  // a one-iteration run and a ten-iteration run miss equally often.
  EngineMetrics& em = GetEngineMetrics();
  uint64_t misses[2] = {0, 0};
  const int iterations[2] = {1, 10};
  for (int i = 0; i < 2; ++i) {
    uint64_t misses0 = em.l1_misses->value();
    uint64_t hits0 = em.block_hits->value();
    uint64_t decoded0 = em.blocks_decoded->value();
    ASSERT_OK_AND_ASSIGN(EngineWorld w,
                         SetupWorld(EngineMode::kBlocks, WideHotSetProgram(iterations[i])));
    ASSERT_OK(w.kernel->RunTask(*w.task));
    ASSERT_EQ(w.task->state(), TaskState::kExited);
    ASSERT_EQ(w.task->touched_text_pages(), 4u);
    misses[i] = em.l1_misses->value() - misses0;
    EXPECT_EQ(em.blocks_decoded->value() - decoded0, 4u);
    if (i == 1) {
      EXPECT_GT(em.block_hits->value() - hits0, 9u * 256u);
    }
  }
  EXPECT_EQ(misses[0], 4u);  // one page-table fill per text page
  EXPECT_EQ(misses[1], misses[0]);
}

// A loop that calls one function on each of `pages` text pages, every one
// at offset 16 of its page. Exit code: the low byte of the accumulator r6.
std::string ManyPagesProgram(int pages, int iterations) {
  std::string src = StrCat(R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, )", iterations, R"(
loop:
)");
  for (int page = 0; page < pages; ++page) {
    src += StrCat("  call p", page, "\n");
  }
  src += "  addi r4, r4, 1\n  blt r4, r5, loop\n  mov r0, r6\n  sys 0\n";
  for (int page = 0; page < pages; ++page) {
    src += StrCat(".align 4096\n.space 16\np", page, ":\n  addi r6, r6, ", page + 1,
                  "\n  ret\n");
  }
  return src;
}

TEST(EngineWideHotSet, ThrashingTaskStaysExact) {
  // 80 text pages in one loop: more than the page table holds (it flushes
  // when half of its 128 entries are full), and enough that many pages
  // share a home slot and probe past each other. Every pass refills the
  // table from the frames' decoded pages; both engines must still agree on
  // every observable, including the first-touch bill of all 81 pages.
  constexpr int kPages = 80;
  ExpectEnginesAgree(ManyPagesProgram(kPages, 40));
  ASSERT_OK_AND_ASSIGN(Observed blocks,
                       RunUnder(EngineMode::kBlocks, ManyPagesProgram(kPages, 40)));
  EXPECT_EQ(blocks.touched_text_pages, static_cast<size_t>(kPages) + 1);

  // The thrash is real: once the table overflows, each further pass pays
  // slow-path lookups again, unlike the four-page hot set above.
  EngineMetrics& em = GetEngineMetrics();
  uint64_t misses[2] = {0, 0};
  const int iterations[2] = {1, 10};
  for (int i = 0; i < 2; ++i) {
    uint64_t misses0 = em.l1_misses->value();
    ASSERT_OK_AND_ASSIGN(Observed run,
                         RunUnder(EngineMode::kBlocks, ManyPagesProgram(kPages, iterations[i])));
    ASSERT_EQ(run.state, static_cast<int>(TaskState::kExited));
    misses[i] = em.l1_misses->value() - misses0;
  }
  EXPECT_GT(misses[1], misses[0] + 9 * kPages / 2);
}

// ---- Cache behavior and metrics ---------------------------------------------

constexpr char kLoopProgram[] = R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 5000
loop:
  add r6, r6, r4
  lea r1, word
  ld r2, [r1+0]
  addi r4, r4, 1
  blt r4, r5, loop
  movi r0, 0
  sys 0
.data
.align 4
word: .word 1
)";

TEST(EngineCache, CountersAdvanceAndFreedTextDropsBlocks) {
  EngineMetrics& em = GetEngineMetrics();
  uint64_t decoded0 = em.blocks_decoded->value();
  uint64_t hits0 = em.block_hits->value();
  uint64_t tlb_hits0 = em.tlb_hits->value();

  Kernel kernel;
  kernel.SetEngineMode(EngineMode::kBlocks);
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(kLoopProgram, "loop.o"));
  Module module = Module::FromObject(std::make_shared<const ObjectFile>(std::move(object)));
  LayoutSpec layout;
  layout.entry_symbol = "_start";
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(module, layout, "loop"));
  // No page-cache key: the text is the task's own private frames.
  Task& task = kernel.CreateTask("loop");
  ASSERT_OK(MapLinkedImage(kernel, task, image, ""));
  std::vector<std::string> args{"loop"};
  ASSERT_OK(StartTask(kernel, task, image.entry, args));
  ASSERT_OK(kernel.RunTask(task));
  EXPECT_EQ(task.exit_code(), 0);

  EXPECT_GT(kernel.engine().DecodedPages(), 0u);
  EXPECT_GT(em.blocks_decoded->value(), decoded0);
  EXPECT_GT(em.block_hits->value(), hits0);       // the loop re-enters its block
  EXPECT_GT(em.tlb_hits->value(), tlb_hits0);     // ld hits the software TLB

  // Destroying the task frees its text frames, and their decoded pages with
  // them.
  kernel.DestroyTask(task.id());
  EXPECT_EQ(kernel.engine().DecodedPages(), 0u);
}

TEST(EngineCache, BlocksAreSharedAcrossTasksMappingTheSameFrames) {
  // Two tasks mapping the same page-cached text share physical frames, so
  // the second run must decode zero new pages — the predecode cache is
  // keyed by physical identity, the paper's "shared text, shared decode".
  Kernel kernel;
  kernel.SetEngineMode(EngineMode::kBlocks);
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(kLoopProgram, "shared.o"));
  Module module = Module::FromObject(std::make_shared<const ObjectFile>(std::move(object)));
  LayoutSpec layout;
  layout.entry_symbol = "_start";
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(module, layout, "shared"));

  EngineMetrics& em = GetEngineMetrics();
  uint64_t decoded_before_first = em.blocks_decoded->value();
  for (int i = 0; i < 2; ++i) {
    Task& task = kernel.CreateTask(StrCat("shared", i));
    ASSERT_OK(MapLinkedImage(kernel, task, image, "pagecache:shared"));
    std::vector<std::string> args{"shared"};
    ASSERT_OK(StartTask(kernel, task, image.entry, args));
    ASSERT_OK(kernel.RunTask(task));
    EXPECT_EQ(task.state(), TaskState::kExited);
    if (i == 0) {
      uint64_t first_run = em.blocks_decoded->value() - decoded_before_first;
      EXPECT_GT(first_run, 0u);
      decoded_before_first = em.blocks_decoded->value();
    } else {
      EXPECT_EQ(em.blocks_decoded->value(), decoded_before_first)
          << "second task re-decoded pages it should share";
    }
  }
}

TEST(EngineCache, RecycledTaskCacheDoesNotServeThePreviousTasksCode) {
  // Task B follows task A, which is destroyed first. X and Y have the same
  // layout and map sequence, so B's address space reaches the map epoch
  // A's page table was filled under, at the same pc: B must still run Y,
  // never X. Its translation caches are its own, not A's.
  Kernel kernel;
  kernel.SetEngineMode(EngineMode::kBlocks);
  auto link = [](int exit_code) -> Result<LinkedImage> {
    OMOS_TRY(ObjectFile object,
             Assemble(StrCat(".text\n.global _start\n_start:\n  movi r0, ", exit_code,
                             "\n  sys 0\n"),
                      "exit.o"));
    Module module = Module::FromObject(std::make_shared<const ObjectFile>(std::move(object)));
    LayoutSpec layout;
    layout.entry_symbol = "_start";
    return LinkImage(module, layout, "exit");
  };
  ASSERT_OK_AND_ASSIGN(LinkedImage x, link(11));
  ASSERT_OK_AND_ASSIGN(LinkedImage y, link(22));
  ASSERT_EQ(x.entry, y.entry);
  std::vector<std::string> args{"exit"};

  Task& a = kernel.CreateTask("a");
  ASSERT_OK(MapLinkedImage(kernel, a, x, ""));
  ASSERT_OK(StartTask(kernel, a, x.entry, args));
  ASSERT_OK(kernel.RunTask(a));
  EXPECT_EQ(a.exit_code(), 11);
  kernel.DestroyTask(a.id());

  Task& b = kernel.CreateTask("b");
  ASSERT_OK(MapLinkedImage(kernel, b, y, ""));
  ASSERT_OK(StartTask(kernel, b, y.entry, args));
  ASSERT_OK(kernel.RunTask(b));
  EXPECT_EQ(b.exit_code(), 22);
}

// Writes `c` `n` times through a helper call, then exits with `n`. Every
// (n, c) links to the same layout: different code and data at the same
// addresses.
std::string CountdownProgram(int n, char c) {
  return StrCat(R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, )", n, R"(
loop:
  call put
  addi r4, r4, 1
  blt r4, r5, loop
  mov r0, r5
  sys 0
put:
  movi r0, 1
  lea r1, msg
  movi r2, 1
  sys 1
  ret
.data
msg: .asciiz ")", std::string(1, c), R"("
)");
}

TEST(EngineCache, InterleavedTasksKeepTheirOwnState) {
  // One thread runs two tasks in turn, a few instructions at a time, until
  // both exit. They map different code at the same addresses and reach the
  // same map epochs, so each Run must find the caches of the task it runs:
  // each ends as it does alone under the interpreter.
  const std::string sources[] = {CountdownProgram(13, 'x'), CountdownProgram(29, 'y')};
  Kernel kernel;
  kernel.SetEngineMode(EngineMode::kBlocks);
  std::vector<Task*> tasks;
  for (const std::string& source : sources) {
    ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(source, "countdown.o"));
    Module module = Module::FromObject(std::make_shared<const ObjectFile>(std::move(object)));
    LayoutSpec layout;
    layout.entry_symbol = "_start";
    ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(module, layout, "countdown"));
    Task& task = kernel.CreateTask("countdown");
    ASSERT_OK(MapLinkedImage(kernel, task, image, ""));
    std::vector<std::string> args{"countdown"};
    ASSERT_OK(StartTask(kernel, task, image.entry, args));
    tasks.push_back(&task);
  }
  for (bool running = true; running;) {
    running = false;
    for (Task* task : tasks) {
      if (task->state() == TaskState::kRunnable) {
        (void)kernel.RunTask(*task, 5);  // stops at the budget, still runnable
        running = running || task->state() == TaskState::kRunnable;
      }
    }
  }
  for (size_t i = 0; i < tasks.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(Observed alone, RunUnder(EngineMode::kInterp, sources[i]));
    EXPECT_EQ(tasks[i]->state(), TaskState::kExited) << i;
    EXPECT_EQ(tasks[i]->exit_code(), alone.exit_code) << i;
    EXPECT_EQ(tasks[i]->output(), alone.output) << i;
    EXPECT_EQ(tasks[i]->instructions_retired(), alone.retired) << i;
  }
  EXPECT_EQ(tasks[0]->exit_code(), 13);
  EXPECT_EQ(tasks[1]->output(), std::string(29, 'y'));
}

// ---- Block retirement on redefinition and upgrade ---------------------------

constexpr char kCrt0[] = R"(
.text
.global _start
_start:
  call main
  sys 0
)";

// v1: (5 + 2) * 3 = 21; v2: (5 + 12) * 3 = 51.
constexpr char kAddLibV1[] = R"(
.text
.global add2
add2:
  addi r0, r0, 2
  ret
.global mul3
mul3:
  movi r1, 3
  mul r0, r0, r1
  ret
)";

constexpr char kAddLibV2[] = R"(
.text
.global add2
add2:
  addi r0, r0, 12
  ret
.global mul3
mul3:
  movi r1, 3
  mul r0, r0, r1
  ret
)";

// A second library and client, for a program that does not map /lib/addlib:
// 4 * 2 = 8 under both versions of the library.
constexpr char kDblLibV1[] = R"(
.text
.global dbl
dbl:
  add r0, r0, r0
  ret
)";

constexpr char kDblLibV2[] = R"(
.text
.global dbl
dbl:
  movi r1, 2
  mul r0, r0, r1
  ret
)";

constexpr char kDblClient[] = R"(
.text
.global main
main:
  push lr
  movi r4, 0
  movi r5, 200
dloop:
  movi r0, 4
  call dbl
  addi r4, r4, 1
  blt r4, r5, dloop
  pop lr
  ret
)";

// The client loops so redefinitions and repoints land while tasks are
// mid-execution; the exit code is the final iteration's result, so any
// consistent version yields exactly 21 or 51.
constexpr char kLoopingClient[] = R"(
.text
.global main
main:
  push lr
  movi r4, 0
  movi r5, 20000
mloop:
  movi r0, 5
  call add2
  call mul3
  addi r4, r4, 1
  blt r4, r5, mloop
  pop lr
  ret
)";

class EngineInvalidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // These tests assert on block-cache occupancy, so pin the block engine
    // even when the suite runs under OMOS_ENGINE=interp.
    kernel_.SetEngineMode(EngineMode::kBlocks);
    server_ = std::make_unique<OmosServer>(kernel_);
    ASSERT_OK_AND_ASSIGN(ObjectFile crt0, Assemble(kCrt0, "crt0.o"));
    ASSERT_OK(server_->AddFragment("/lib/crt0.o", std::move(crt0)));
    ASSERT_OK_AND_ASSIGN(ObjectFile v1, Assemble(kAddLibV1, "addlib.o"));
    ASSERT_OK(server_->AddFragment("/obj/addlib.o", std::move(v1)));
    ASSERT_OK_AND_ASSIGN(ObjectFile v2, Assemble(kAddLibV2, "addlib2.o"));
    ASSERT_OK(server_->AddFragment("/obj/addlib2.o", std::move(v2)));
    ASSERT_OK_AND_ASSIGN(ObjectFile client, Assemble(kLoopingClient, "client.o"));
    ASSERT_OK(server_->AddFragment("/obj/client.o", std::move(client)));
    ASSERT_OK(server_->DefineLibrary("/lib/addlib", "(merge /obj/addlib.o)"));
    ASSERT_OK_AND_ASSIGN(ObjectFile dbl1, Assemble(kDblLibV1, "dbllib.o"));
    ASSERT_OK(server_->AddFragment("/obj/dbllib.o", std::move(dbl1)));
    ASSERT_OK_AND_ASSIGN(ObjectFile dbl2, Assemble(kDblLibV2, "dbllib2.o"));
    ASSERT_OK(server_->AddFragment("/obj/dbllib2.o", std::move(dbl2)));
    ASSERT_OK_AND_ASSIGN(ObjectFile dbl_client, Assemble(kDblClient, "dblclient.o"));
    ASSERT_OK(server_->AddFragment("/obj/dblclient.o", std::move(dbl_client)));
    ASSERT_OK(server_->DefineLibrary("/lib/dbllib", "(merge /obj/dbllib.o)"));
  }

  // Execs and runs `path`, leaving the exited task alive (it still maps its
  // images) until Release.
  Result<TaskId> ExecAndKeep(const std::string& path) {
    OMOS_TRY(TaskId id, server_->IntegratedExec(path, {"prog"}));
    OMOS_TRY_VOID(kernel_.RunTask(*kernel_.FindTask(id)));
    return id;
  }

  void Release(TaskId id) {
    server_->ReleaseTask(id);
    kernel_.DestroyTask(id);
  }

  Result<int> ExecAndRun(const std::string& path) {
    OMOS_TRY(TaskId id, ExecAndKeep(path));
    int code = kernel_.FindTask(id)->exit_code();
    Release(id);
    return code;
  }

  // Blocks a warm-or-cold run of `path` decodes; the run must exit `expected`.
  uint64_t DecodedByRun(const std::string& path, int expected) {
    EngineMetrics& em = GetEngineMetrics();
    uint64_t before = em.blocks_decoded->value();
    Result<int> code = ExecAndRun(path);
    EXPECT_TRUE(code.ok()) << path;
    EXPECT_EQ(code.ok() ? *code : -1, expected) << path;
    return em.blocks_decoded->value() - before;
  }

  // The frames behind every executable page `id` maps in regions whose name
  // contains `name`.
  std::vector<FrameId> TextFrames(TaskId id, std::string_view name) {
    std::vector<FrameId> frames;
    AddressSpace& space = kernel_.FindTask(id)->space();
    for (const AddressSpace::RegionInfo& region : space.Regions()) {
      if ((region.prot & kProtExec) == 0 || region.name.find(name) == std::string::npos) {
        continue;
      }
      for (uint32_t addr = region.base; addr < region.base + region.size; addr += kPageSize) {
        AddressSpace::PageLookup page;
        if (space.LookupPage(addr, &page) && page.present) {
          frames.push_back(page.frame);
        }
      }
    }
    return frames;
  }

  OmosServer::UpgradeStatus DrainToTerminal() {
    OmosServer::UpgradeStatus status = server_->DrainUpgrade();
    for (int round = 0; round < 64 && !status.terminal(); ++round) {
      status = server_->DrainUpgrade();
    }
    return status;
  }

  Kernel kernel_;
  std::unique_ptr<OmosServer> server_;
};

TEST_F(EngineInvalidationTest, RedefinitionDropsCachedBlocks) {
  ASSERT_OK(server_->DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/client.o /lib/addlib)"));
  ASSERT_OK(server_->DefineMeta("/bin/other",
                                "(merge /lib/crt0.o /obj/dblclient.o /lib/dbllib)"));
  ASSERT_OK_AND_ASSIGN(int other, ExecAndRun("/bin/other"));
  EXPECT_EQ(other, 8);
  const size_t other_pages = kernel_.engine().DecodedPages();
  EXPECT_GT(other_pages, 0u);

  ASSERT_OK_AND_ASSIGN(TaskId id, ExecAndKeep("/bin/prog"));
  EXPECT_EQ(kernel_.FindTask(id)->exit_code(), 21);
  const size_t both = kernel_.engine().DecodedPages();
  EXPECT_GT(both, other_pages);

  // The redefinition evicts /bin/prog and addlib v1, but the task still maps
  // their frames, so their decoded pages stay; releasing the task frees the
  // frames and exactly their decoded pages.
  ASSERT_OK(server_->DefineLibrary("/lib/addlib", "(merge /obj/addlib2.o)"));
  EXPECT_EQ(kernel_.engine().DecodedPages(), both);
  Release(id);
  EXPECT_EQ(kernel_.engine().DecodedPages(), other_pages);

  // /bin/other was not evicted: its warm run decodes nothing, while the
  // rebuilt /bin/prog decodes its new text.
  EXPECT_EQ(DecodedByRun("/bin/other", 8), 0u);
  EXPECT_GT(DecodedByRun("/bin/prog", 51), 0u);
}

// A warm program decodes nothing after a DefineLibrary of a library it does
// not map, in each direction between two programs on different libraries.
TEST_F(EngineInvalidationTest, RedefiningALibraryKeepsOtherProgramsBlocks) {
  ASSERT_OK(server_->DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/client.o /lib/addlib)"));
  ASSERT_OK(server_->DefineMeta("/bin/other",
                                "(merge /lib/crt0.o /obj/dblclient.o /lib/dbllib)"));
  EXPECT_GT(DecodedByRun("/bin/prog", 21), 0u);
  EXPECT_GT(DecodedByRun("/bin/other", 8), 0u);

  ASSERT_OK(server_->DefineLibrary("/lib/addlib", "(merge /obj/addlib2.o)"));
  EXPECT_EQ(DecodedByRun("/bin/other", 8), 0u);
  EXPECT_GT(DecodedByRun("/bin/prog", 51), 0u);

  ASSERT_OK(server_->DefineLibrary("/lib/dbllib", "(merge /obj/dbllib2.o)"));
  EXPECT_EQ(DecodedByRun("/bin/prog", 51), 0u);
  EXPECT_GT(DecodedByRun("/bin/other", 8), 0u);
}

TEST_F(EngineInvalidationTest, UpgradeRepointInvalidatesCachedBlocks) {
  ASSERT_OK(server_->DefineMeta("/bin/dynprog",
                                "(merge /lib/crt0.o /obj/client.o"
                                " (specialize \"lib-dynamic\" /lib/addlib))"));
  ASSERT_OK_AND_ASSIGN(TaskId id, ExecAndKeep("/bin/dynprog"));
  EXPECT_EQ(kernel_.FindTask(id)->exit_code(), 21);
  // The v1 implementation the client loaded on demand, and the blocks run
  // on its text.
  std::vector<FrameId> v1_text = TextFrames(id, "lib-dynamic-impl");
  ASSERT_FALSE(v1_text.empty());
  bool decoded_on_v1 = false;
  for (FrameId frame : v1_text) {
    decoded_on_v1 = decoded_on_v1 || kernel_.phys().Attachment(frame) != nullptr;
  }
  EXPECT_TRUE(decoded_on_v1);
  Release(id);

  ASSERT_OK(server_->BeginUpgrade("/lib/addlib", "(merge /obj/addlib2.o)"));
  OmosServer::UpgradeStatus status = DrainToTerminal();
  EXPECT_EQ(status.phase, UpgradePhase::kDone) << status.error;
  // Reclaimed: v1's text frames are free, and their decoded pages went with
  // them.
  for (FrameId frame : v1_text) {
    EXPECT_EQ(kernel_.phys().RefCount(frame), 0u) << frame;
    EXPECT_EQ(kernel_.phys().Attachment(frame), nullptr) << frame;
  }

  ASSERT_OK_AND_ASSIGN(int after, ExecAndRun("/bin/dynprog"));
  EXPECT_EQ(after, 51);
}

// ---- A class unloading its own text -----------------------------------------

constexpr char kSelfUnloadClass[] = R"(
.text
.global unload_self
unload_self:
  sys )";

// The host loads the class, has sys 41 evict the class's cached image (so
// the task holds the last references to its frames), then calls in with r0
// = the class's entry, which is its text base.
constexpr char kSelfUnloadHost[] = R"(
.text
.global main
main:
  push lr
  lea r0, blueprint
  lea r1, wanted
  sys )";

// The block that runs `sys omos_unload` on its own class frees its frames,
// and with them its own decoded page, inside the syscall; the engine must
// not touch the page afterwards (ASan-covered, with no pin keeping it
// alive). The task
// then faults fetching the instruction after the syscall from the unmapped
// text, identically in both engines.
TEST(EngineSelfUnload, ClassUnloadingItsOwnTextFaultsInBothEngines) {
  const std::string class_source =
      StrCat(kSelfUnloadClass, kSysOmosUnload, "\n  movi r0, 42\n  ret\n");
  const std::string host_source = StrCat(kSelfUnloadHost, kSysOmosLoad, R"asm(
  mov r7, r0
  sys 41
  mov r0, r7
  callr r0
  pop lr
  ret
.data
blueprint: .asciiz "(merge /obj/selfunload.o)"
wanted: .asciiz "unload_self"
)asm");
  std::vector<Observed> runs;
  for (EngineMode mode : {EngineMode::kInterp, EngineMode::kBlocks}) {
    Kernel kernel;
    kernel.SetEngineMode(mode);
    OmosServer server(kernel);
    ASSERT_OK_AND_ASSIGN(ObjectFile crt0, Assemble(kCrt0, "crt0.o"));
    ASSERT_OK(server.AddFragment("/lib/crt0.o", std::move(crt0)));
    ASSERT_OK_AND_ASSIGN(ObjectFile host, Assemble(host_source, "host.o"));
    ASSERT_OK(server.AddFragment("/obj/host.o", std::move(host)));
    ASSERT_OK_AND_ASSIGN(ObjectFile klass, Assemble(class_source, "selfunload.o"));
    ASSERT_OK(server.AddFragment("/obj/selfunload.o", std::move(klass)));
    ASSERT_OK(server.DefineMeta("/bin/host", "(merge /lib/crt0.o /obj/host.o)"));
    EngineMetrics& em = GetEngineMetrics();
    size_t pages_at_evict = 0;
    uint64_t decoded_at_evict = 0;
    kernel.SetSysHook(41, [&](Kernel&, Task&) -> Result<void> {
      OMOS_TRY(ObjectFile again, Assemble(class_source, "selfunload.o"));
      OMOS_TRY_VOID(server.AddFragment("/obj/selfunload.o", std::move(again)));
      pages_at_evict = kernel.engine().DecodedPages();
      decoded_at_evict = em.blocks_decoded->value();
      return OkResult();
    });

    ASSERT_OK_AND_ASSIGN(TaskId id, server.IntegratedExec("/bin/host", {"host"}));
    EngineWorld w;
    w.task = kernel.FindTask(id);
    Result<void> run = kernel.RunTask(*w.task);
    EXPECT_FALSE(run.ok());
    runs.push_back(Capture(w, run));
    EXPECT_EQ(runs.back().state, static_cast<int>(TaskState::kFaulted));
    if (mode == EngineMode::kBlocks) {
      // Since the eviction: the host's page, whose code runs on after
      // sys 41, was decoded before it; the class's one text page was
      // decoded exactly once (+1) and died with its frame (-1).
      EXPECT_EQ(pages_at_evict, 1u);
      EXPECT_EQ(em.blocks_decoded->value() - decoded_at_evict, 1u);
      EXPECT_EQ(kernel.engine().DecodedPages(), pages_at_evict);
    }
    server.ReleaseTask(id);
    kernel.DestroyTask(id);
  }
  ASSERT_EQ(runs.size(), 2u);
  ExpectSame(runs[0], runs[1], "self-unload");
}

// ---- Concurrency (run under TSan in CI) -------------------------------------

// Redefinition while worker threads execute cached blocks: each task was
// linked against the version current at exec time and its frames stay
// alive (refcounted) through the redefinition, so it must exit with
// exactly that version's value — a stale or torn decode would break the
// arithmetic. The redefinitions race block decode/lookup on the workers.
TEST_F(EngineInvalidationTest, RedefinitionWhileTasksExecute) {
  ASSERT_OK(server_->DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/client.o /lib/addlib)"));
  constexpr int kWorkers = 4;
  constexpr int kRounds = 4;
  std::atomic<int> bad{0};
  for (int round = 0; round < kRounds; ++round) {
    const bool v2 = (round % 2) != 0;
    ASSERT_OK(server_->DefineLibrary(
        "/lib/addlib", v2 ? "(merge /obj/addlib2.o)" : "(merge /obj/addlib.o)"));
    const int expected = v2 ? 51 : 21;

    std::vector<TaskId> ids;
    for (int i = 0; i < kWorkers; ++i) {
      ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/prog", {"prog"}));
      ids.push_back(id);
    }
    std::atomic<int> finished{0};
    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (int i = 0; i < kWorkers; ++i) {
      workers.emplace_back([&, i] {
        Task* task = kernel_.FindTask(ids[static_cast<size_t>(i)]);
        if (task == nullptr || !kernel_.RunTask(*task).ok() || task->exit_code() != expected) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
        finished.fetch_add(1, std::memory_order_release);
      });
    }
    // Redefine back and forth while the workers run: every flip evicts the
    // images whose frames (and blocks) the workers are executing.
    while (finished.load(std::memory_order_acquire) < kWorkers) {
      ASSERT_OK(server_->DefineLibrary("/lib/addlib", "(merge /obj/addlib2.o)"));
      ASSERT_OK(server_->DefineLibrary("/lib/addlib", "(merge /obj/addlib.o)"));
      std::this_thread::yield();
    }
    for (std::thread& t : workers) {
      t.join();
    }
    for (TaskId id : ids) {
      server_->ReleaseTask(id);
      kernel_.DestroyTask(id);
    }
  }
  EXPECT_EQ(bad.load(), 0);
}

// Private text for the storm below: the same layout in every variant, only
// the exit code differs.
std::string StormProgram(int exit_code) {
  return StrCat(R"(
.text
.global _start
_start:
  movi r4, 0
  movi r5, 50
sloop:
  addi r4, r4, 1
  blt r4, r5, sloop
  movi r0, )", exit_code, R"(
  sys 0
)");
}

// Text frames freed and recycled for new code while workers execute shared
// text: each storm round maps private text into a fresh task, runs it
// (decoding blocks onto its frames) and destroys it, so later rounds' text
// lands on freed frames. Three variants rotate, so a frame never carries
// the same code as the round that last used it for text: a block outliving
// its frame would run old code and exit with the wrong code, and a block
// freed under a worker would show under ASan/TSan.
void RunUnderTextRecycleStorm(const std::string& program, int expected_exit) {
  Kernel kernel;
  kernel.SetEngineMode(EngineMode::kBlocks);
  auto link = [](const std::string& source, const std::string& name) -> Result<LinkedImage> {
    OMOS_TRY(ObjectFile object, Assemble(source, name + ".o"));
    Module module = Module::FromObject(std::make_shared<const ObjectFile>(std::move(object)));
    LayoutSpec layout;
    layout.entry_symbol = "_start";
    return LinkImage(module, layout, name);
  };
  ASSERT_OK_AND_ASSIGN(LinkedImage image, link(program, "loop"));
  constexpr int kVariants = 3;
  std::vector<LinkedImage> storm;
  for (int v = 0; v < kVariants; ++v) {
    ASSERT_OK_AND_ASSIGN(LinkedImage variant, link(StormProgram(7 + v), "storm"));
    storm.push_back(std::move(variant));
  }

  constexpr int kWorkers = 4;
  std::vector<Task*> tasks;
  for (int i = 0; i < kWorkers; ++i) {
    Task& task = kernel.CreateTask(StrCat("worker", i));
    ASSERT_OK(MapLinkedImage(kernel, task, image, "pagecache:loop"));
    std::vector<std::string> args{"loop"};
    ASSERT_OK(StartTask(kernel, task, image.entry, args));
    tasks.push_back(&task);
  }

  std::atomic<int> bad{0};
  std::atomic<int> finished{0};
  // Workers start once the storm has begun: a short program can otherwise
  // run to completion before this thread frees its first frame.
  std::atomic<bool> storming{false};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int i = 0; i < kWorkers; ++i) {
    workers.emplace_back([&, i] {
      while (!storming.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      Task* task = tasks[static_cast<size_t>(i)];
      if (!kernel.RunTask(*task).ok() || task->state() != TaskState::kExited ||
          task->exit_code() != expected_exit) {
        bad.fetch_add(1, std::memory_order_relaxed);
      }
      finished.fetch_add(1, std::memory_order_release);
    });
  }
  int rounds = 0;
  int wrong_storm_exits = 0;
  std::set<FrameId> storm_text;
  do {
    storming.store(true, std::memory_order_release);
    const LinkedImage& variant = storm[static_cast<size_t>(rounds % kVariants)];
    Task& task = kernel.CreateTask("storm");
    std::vector<std::string> args{"storm"};
    AddressSpace::PageLookup text;
    // No ASSERT while the workers run: a failed round is counted instead.
    bool started = MapLinkedImage(kernel, task, variant, "").ok() &&
                   task.space().LookupPage(variant.entry, &text) &&
                   StartTask(kernel, task, variant.entry, args).ok();
    if (started) {
      storm_text.insert(text.frame);
    }
    if (!started || !kernel.RunTask(task).ok() || task.exit_code() != 7 + rounds % kVariants) {
      ++wrong_storm_exits;
    }
    kernel.DestroyTask(task.id());
    ++rounds;
  } while (finished.load(std::memory_order_acquire) < kWorkers || rounds < 2 * kVariants);
  for (std::thread& t : workers) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(wrong_storm_exits, 0);
  EXPECT_LT(storm_text.size(), static_cast<size_t>(rounds)) << "no text frame was recycled";
}

TEST(EngineConcurrency, TextRecycleWhileTasksExecute) {
  RunUnderTextRecycleStorm(kLoopProgram, 0);
}

TEST(EngineConcurrency, TextRecycleWhileWideHotSetTasksExecute) {
  // Hundreds of blocks per task over four text pages, so frames are freed
  // between decodes and page-table fills as well as between block entries.
  ASSERT_OK_AND_ASSIGN(Observed reference,
                       RunUnder(EngineMode::kInterp, WideHotSetProgram(200)));
  ASSERT_EQ(reference.state, static_cast<int>(TaskState::kExited));
  RunUnderTextRecycleStorm(WideHotSetProgram(200), reference.exit_code);
}

TEST(EngineConcurrency, RacingColdDecodesLeaveOnePagePerFrame) {
  // Eight tasks map the same text frames before any page is decoded, then
  // start together, so their decodes race to attach to the same frames.
  // Each frame keeps exactly one decoded page: the losers free their
  // copies (under ASan a lost copy that leaked would be reported) and run
  // the winner's.
  const std::string program = WideHotSetProgram(3);
  auto link = [&]() -> Result<LinkedImage> {
    OMOS_TRY(ObjectFile object, Assemble(program, "race.o"));
    Module module = Module::FromObject(std::make_shared<const ObjectFile>(std::move(object)));
    LayoutSpec layout;
    layout.entry_symbol = "_start";
    return LinkImage(module, layout, "race");
  };
  ASSERT_OK_AND_ASSIGN(LinkedImage image, link());
  std::vector<std::string> args{"race"};

  // The pages one task decodes alone: the program's four text pages.
  size_t pages = 0;
  int expected_exit = 0;
  {
    Kernel kernel;
    kernel.SetEngineMode(EngineMode::kBlocks);
    Task& task = kernel.CreateTask("alone");
    ASSERT_OK(MapLinkedImage(kernel, task, image, "pagecache:race"));
    ASSERT_OK(StartTask(kernel, task, image.entry, args));
    ASSERT_OK(kernel.RunTask(task));
    expected_exit = task.exit_code();
    pages = kernel.engine().DecodedPages();
  }
  ASSERT_EQ(pages, 4u);

  Kernel kernel;
  kernel.SetEngineMode(EngineMode::kBlocks);
  constexpr int kThreads = 8;
  std::vector<Task*> tasks;
  for (int i = 0; i < kThreads; ++i) {
    Task& task = kernel.CreateTask(StrCat("racer", i));
    ASSERT_OK(MapLinkedImage(kernel, task, image, "pagecache:race"));
    ASSERT_OK(StartTask(kernel, task, image.entry, args));
    tasks.push_back(&task);
  }
  ASSERT_EQ(kernel.engine().DecodedPages(), 0u);
  std::atomic<int> ready{0};
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < kThreads) {
        std::this_thread::yield();
      }
      Task* task = tasks[static_cast<size_t>(i)];
      if (!kernel.RunTask(*task).ok() || task->state() != TaskState::kExited ||
          task->exit_code() != expected_exit) {
        bad.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(kernel.engine().DecodedPages(), pages);
}

}  // namespace
}  // namespace omos
