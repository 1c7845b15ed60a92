// Interpreter throughput: host-seconds per simulated instruction, legacy
// per-instruction interpreter vs. the predecoded block engine, for the
// three dominant instruction mixes plus a wide hot set.
//
// Steady-state methodology: each mix is an infinite loop, mapped ONCE into
// a warm kernel; measurement slices re-enter RunTask with an instruction
// budget, so the numbers cover pure execution (warm block cache, warm TLB)
// with no per-iteration kernel/map setup. The gates CI enforces:
//
//   PASS: interp alu speedup >= 3x       (engine vs legacy, ALU mix)
//   PASS: interp memory speedup >= 2x    (engine vs legacy, ld/st mix)
//   PASS: interp wide speedup >= 1.7x    (engine vs legacy, wide hot set)
//   PASS: interp cycle identity          (simulated results byte-identical)
//
// The first three mixes each fit in one text page and a handful of blocks.
// `wide` is shaped like a compiler's hot set instead: one loop calls 128
// two-block functions spread over four pages, ~385 distinct blocks per
// iteration, so it measures block lookup and chaining over a hot set
// wider than a few dozen blocks and one page.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/engine/engine.h"
#include "src/os/loader.h"
#include "src/support/metrics.h"
#include "src/vasm/assembler.h"

namespace omos {
namespace {

struct Mix {
  std::string name;
  std::string body;       // loop body; r4/r5 are the induction registers
  std::string functions;  // extra text after `helper`
};

// 128 calls, one per function; each function is two blocks (addi; br | add;
// ret) padded to 96 bytes, so the functions span three more pages.
Mix WideMix() {
  constexpr int kFunctions = 128;
  Mix mix{"wide", "", ".align 96\n"};
  for (int i = 0; i < kFunctions; ++i) {
    mix.body += StrCat("  call w", i, "\n");
    mix.functions += StrCat("w", i, ":\n  addi r1, r1, ", i + 1, "\n  br w", i, "_t\nw", i,
                            "_t:\n  add r2, r2, r1\n  ret\n.align 96\n");
  }
  return mix;
}

const std::vector<Mix>& Mixes() {
  static const std::vector<Mix> mixes = {
      {"alu", "  add r1, r1, r4\n  xor r2, r1, r4\n  mul r3, r2, r4\n", ""},
      {"memory", "  lea r1, word\n  ld r2, [r1+0]\n  st r2, [r1+0]\n", ""},
      {"calls", "  call helper\n  call helper\n", ""},
      WideMix(),
  };
  return mixes;
}

LinkedImage BuildImage(const Mix& mix, int iterations) {
  // iterations == 0 builds the steady-state variant: an unbounded loop the
  // harness slices with RunTask instruction budgets.
  std::string loop_exit = iterations == 0
                              ? std::string("  br loop\n")
                              : StrCat("  addi r4, r4, 1\n  movi r5, ", iterations,
                                       "\n  blt r4, r5, loop\n  movi r0, 0\n  sys 0\n");
  std::string source = StrCat(R"(
.text
.global _start
_start:
  movi r4, 0
loop:
)", mix.body, loop_exit, R"(
helper:
  ret
)", mix.functions, R"(
.data
.align 4
word: .word 7
)");
  ObjectFile obj = BENCH_UNWRAP(Assemble(source, "loop.o"));
  Module m = Module::FromObject(std::make_shared<const ObjectFile>(std::move(obj)));
  LayoutSpec layout;
  layout.entry_symbol = "_start";
  return BENCH_UNWRAP(LinkImage(m, layout, "loop"));
}

struct World {
  std::unique_ptr<Kernel> kernel;
  Task* task = nullptr;
};

World MapOnce(const LinkedImage& image, EngineMode mode) {
  World w;
  w.kernel = std::make_unique<Kernel>();
  w.kernel->SetEngineMode(mode);
  w.task = &w.kernel->CreateTask("bench");
  BENCH_CHECK(MapLinkedImage(*w.kernel, *w.task, image, ""));
  std::vector<std::string> args{"bench"};
  BENCH_CHECK(StartTask(*w.kernel, *w.task, image.entry, args));
  return w;
}

// One budgeted slice of the steady-state loop. The budget error is the
// expected outcome; anything else is a bench bug.
void RunSlice(World& w, uint64_t insns) {
  Result<void> run = w.kernel->RunTask(*w.task, insns);
  if (run.ok() || w.task->state() != TaskState::kRunnable) {
    std::fprintf(stderr, "steady-state loop stopped unexpectedly\n");
    std::abort();
  }
}

// Steady-state throughput in simulated instructions per host second.
double MeasureRate(const LinkedImage& image, EngineMode mode) {
  World w = MapOnce(image, mode);
  constexpr uint64_t kSlice = 2'000'000;
  RunSlice(w, kSlice);  // warm-up: decode blocks, fill TLB, touch pages
  uint64_t before = w.task->instructions_retired();
  auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    RunSlice(w, kSlice);
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  } while (elapsed < 0.25);
  return static_cast<double>(w.task->instructions_retired() - before) / elapsed;
}

struct SimResult {
  int exit_code = 0;
  uint64_t user = 0;
  uint64_t sys = 0;
  uint64_t retired = 0;
  std::string output;

  bool operator==(const SimResult&) const = default;
};

// Run the bounded variant to completion and capture every simulated-side
// observable the paper's tables are built from.
SimResult RunBounded(const LinkedImage& image, EngineMode mode) {
  World w = MapOnce(image, mode);
  BENCH_CHECK(w.kernel->RunTask(*w.task));
  return SimResult{w.task->exit_code(), w.task->user_cycles(), w.task->sys_cycles(),
                   w.task->instructions_retired(), w.task->output()};
}

// About half the Release speedup measured when the mix was added (3.2-4.7x
// on a shared 4-vCPU x86-64 host, with a 1024-entry pc-keyed block
// lookaside; a 64-entry one gave 1.3x). The page table and chained blocks
// that replaced the lookaside measured 4.9-6.8x on the same host.
constexpr double kWideGate = 1.7;

int Main() {
  std::printf("Interpreter throughput: legacy CpuStep vs predecoded block engine\n");
  std::printf("(steady state: map once, budgeted RunTask slices; Minsns/s = simulated\n");
  std::printf(" instructions retired per host second)\n\n");
  std::printf("%-8s %14s %14s %9s\n", "mix", "interp Mi/s", "blocks Mi/s", "speedup");

  EngineMetrics& em = GetEngineMetrics();
  uint64_t tlb_hits0 = em.tlb_hits->value();
  uint64_t tlb_misses0 = em.tlb_misses->value();
  uint64_t decoded0 = em.blocks_decoded->value();
  uint64_t block_hits0 = em.block_hits->value();
  uint64_t l1_misses0 = em.l1_misses->value();

  bool ok = true;
  const std::vector<Mix>& mixes = Mixes();
  std::vector<double> speedup_by_mix;
  for (const Mix& mix : mixes) {
    LinkedImage image = BuildImage(mix, 0);
    double interp = MeasureRate(image, EngineMode::kInterp);
    double blocks = MeasureRate(image, EngineMode::kBlocks);
    speedup_by_mix.push_back(blocks / interp);
    std::printf("%-8s %14.1f %14.1f %8.2fx\n", mix.name.c_str(), interp / 1e6, blocks / 1e6,
                blocks / interp);
  }

  std::printf("\nengine counters over the blocks runs: %llu blocks decoded, "
              "%llu block hits / %llu slow lookups, tlb %llu hits / %llu misses\n",
              static_cast<unsigned long long>(em.blocks_decoded->value() - decoded0),
              static_cast<unsigned long long>(em.block_hits->value() - block_hits0),
              static_cast<unsigned long long>(em.l1_misses->value() - l1_misses0),
              static_cast<unsigned long long>(em.tlb_hits->value() - tlb_hits0),
              static_cast<unsigned long long>(em.tlb_misses->value() - tlb_misses0));

  // Differential check: the simulated-cycle results the other benches
  // report must be byte-identical between engines.
  bool identical = true;
  for (const Mix& mix : mixes) {
    LinkedImage image = BuildImage(mix, 2000);
    SimResult interp = RunBounded(image, EngineMode::kInterp);
    SimResult blocks = RunBounded(image, EngineMode::kBlocks);
    if (!(interp == blocks)) {
      identical = false;
      std::printf("MISMATCH %s: interp{exit=%d user=%llu sys=%llu retired=%llu} "
                  "blocks{exit=%d user=%llu sys=%llu retired=%llu}\n",
                  mix.name.c_str(), interp.exit_code, static_cast<unsigned long long>(interp.user),
                  static_cast<unsigned long long>(interp.sys),
                  static_cast<unsigned long long>(interp.retired), blocks.exit_code,
                  static_cast<unsigned long long>(blocks.user),
                  static_cast<unsigned long long>(blocks.sys),
                  static_cast<unsigned long long>(blocks.retired));
    }
  }

  std::printf("\n");
  auto gate = [&](bool pass, const std::string& what) {
    std::printf("%s: %s\n", pass ? "PASS" : "FAIL", what.c_str());
    ok = ok && pass;
  };
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", speedup_by_mix[0]);
  gate(speedup_by_mix[0] >= 3.0, StrCat("interp alu speedup ", buf, "x >= 3x"));
  std::snprintf(buf, sizeof buf, "%.2f", speedup_by_mix[1]);
  gate(speedup_by_mix[1] >= 2.0, StrCat("interp memory speedup ", buf, "x >= 2x"));
  std::snprintf(buf, sizeof buf, "%.2f", speedup_by_mix[2]);
  std::printf("INFO: interp calls speedup %sx (not gated)\n", buf);
  std::snprintf(buf, sizeof buf, "%.2f", speedup_by_mix[3]);
  gate(speedup_by_mix[3] >= kWideGate,
       StrCat("interp wide speedup ", buf, "x >= ", kWideGate, "x"));
  gate(identical, "interp cycle identity across engines");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace omos

int main() { return omos::Main(); }
