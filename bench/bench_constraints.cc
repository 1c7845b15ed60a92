// §3.5: the prioritized address-constraint system. Measures placement
// throughput, the reuse (strong-constraint) fast path, and conflict
// resolution when weak hints collide.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench/bench_common.h"
#include "src/core/constraints.h"

namespace omos {
namespace {

void BM_PlaceFresh(benchmark::State& state) {
  int64_t i = 0;
  ConstraintSolver solver;
  std::vector<PlacementRef> held;  // every placement stays live
  for (auto _ : state) {
    held.push_back(BENCH_UNWRAP(solver.Place(StrCat("lib", i++), 64 * 1024, 16 * 1024)));
  }
}
BENCHMARK(BM_PlaceFresh);

void BM_PlaceReused(benchmark::State& state) {
  ConstraintSolver solver;
  PlacementRef live = BENCH_UNWRAP(solver.Place("libc", 256 * 1024, 64 * 1024));
  for (auto _ : state) {
    PlacementRef p = BENCH_UNWRAP(solver.Place("libc", 256 * 1024, 64 * 1024));
    if (p != live) {
      state.SkipWithError("expected placement reuse");
    }
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PlaceReused);

void BM_PlaceConflictingHints(benchmark::State& state) {
  int64_t i = 0;
  ConstraintSolver solver;
  PlacementHints hint;
  hint.text_base = 0x01000000;  // everyone asks for the same spot
  std::vector<PlacementRef> held;  // every placement stays live
  for (auto _ : state) {
    held.push_back(BENCH_UNWRAP(solver.Place(StrCat("clash", i++), 64 * 1024, 16 * 1024, hint)));
  }
  state.counters["conflicts_recorded"] = static_cast<double>(solver.conflicts().size());
}
BENCHMARK(BM_PlaceConflictingHints);

}  // namespace
}  // namespace omos
