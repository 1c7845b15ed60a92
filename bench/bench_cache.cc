// §3.1/§3.2 claim: caching bound+relocated images avoids repeating work.
// Measures server-side instantiation: cold (construct, link, place) vs warm
// (cache lookup only), in wall time and simulated work cycles.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/core/cache.h"
#include "src/os/loader.h"
#include "src/os/sim_fs.h"
#include "src/store/image_store.h"

namespace omos {
namespace {

void BM_InstantiateCold(benchmark::State& state) {
  uint64_t work = 0;
  uint64_t builds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    OmosWorld world = MakeOmosWorld();
    state.ResumeTiming();
    uint64_t w = 0;
    benchmark::DoNotOptimize(BENCH_UNWRAP(world.server->Instantiate("/bin/ls", {}, &w)));
    work += w;
    ++builds;
  }
  state.counters["sim_work_cycles"] =
      benchmark::Counter(static_cast<double>(work) / static_cast<double>(builds));
}
BENCHMARK(BM_InstantiateCold)->Unit(benchmark::kMillisecond);

void BM_InstantiateWarm(benchmark::State& state) {
  OmosWorld world = MakeOmosWorld();
  world.Warm();
  uint64_t work = 0;
  for (auto _ : state) {
    uint64_t w = 0;
    benchmark::DoNotOptimize(BENCH_UNWRAP(world.server->Instantiate("/bin/ls", {}, &w)));
    work += w;
  }
  state.counters["sim_work_cycles"] = benchmark::Counter(static_cast<double>(work));
  state.counters["cache_hits"] =
      benchmark::Counter(static_cast<double>(world.server->cache_stats().hits));
}
BENCHMARK(BM_InstantiateWarm)->Unit(benchmark::kMicrosecond);

// Warm-hit cost as a function of image size: Get must be (amortized) O(1),
// not O(bytes). Entries are synthetic images of `range(0)` KiB of text.
void BM_WarmGetBySize(benchmark::State& state) {
  ImageCache cache;
  CachedImage synthetic;
  synthetic.image.name = "synthetic";
  synthetic.image.text_base = 0x00100000;
  synthetic.image.text.assign(static_cast<size_t>(state.range(0)) * 1024, 0xAB);
  synthetic.image.data.assign(4096, 0xCD);
  cache.Put("synthetic", std::move(synthetic));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Get("synthetic"));
  }
  state.SetComplexityN(state.range(0));
  state.counters["image_kib"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_WarmGetBySize)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Complexity()
    ->Unit(benchmark::kNanosecond);

// One page checksum: the unit of work of every warm-hit probe and of the full
// walk after a Put, so its cost scales both.
void BM_PageSum(benchmark::State& state) {
  constexpr size_t kSumPageBytes = 4096;  // the cache's sum granule
  CachedImage image;
  image.image.text.resize(kSumPageBytes);
  for (size_t i = 0; i < image.image.text.size(); ++i) {
    image.image.text[i] = static_cast<uint8_t>(i * 131 + state.iterations());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(image.PageSum(0));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSumPageBytes));
}
BENCHMARK(BM_PageSum)->Unit(benchmark::kNanosecond);

// Warm-exec data mapping cost as a function of data-segment size. Eager
// mapping copies every initialized-data byte per exec (O(bytes)); CoW maps
// the cached master's frames read-only-shared and only pays per-page
// bookkeeping plus the pages the task actually writes, so its per-exec cost
// stays flat as the data segment grows.
void RunWarmExec(benchmark::State& state, bool cow) {
  Kernel kernel;
  LinkedImage image;
  image.name = "warm";
  image.text_base = 0x00100000;
  image.text.assign(kPageSize, 0x90);
  image.data_base = 0x00200000;
  image.data.assign(static_cast<size_t>(state.range(0)) * 1024, 0xCD);
  SegmentImage text = BENCH_UNWRAP(SegmentImage::Create(kernel.phys(), image.text));
  SegmentImage data = BENCH_UNWRAP(SegmentImage::Create(kernel.phys(), image.data));
  int n = 0;
  for (auto _ : state) {
    Task& task = kernel.CreateTask(StrCat("warm", n++));
    BENCH_CHECK(MapImageWithSharedText(kernel, task, image, text, cow ? &data : nullptr));
    // The realistic warm-exec write pattern: a few dirtied data pages, the
    // rest of the segment untouched.
    BENCH_CHECK(task.space().Write8(image.data_base, 1));
    BENCH_CHECK(
        task.space().Write8(image.data_base + static_cast<uint32_t>(image.data.size()) - 1, 2));
    kernel.DestroyTask(task.id());
  }
  state.SetComplexityN(state.range(0));
  state.counters["data_kib"] = static_cast<double>(state.range(0));
}

void BM_ExecWarmCoW(benchmark::State& state) { RunWarmExec(state, true); }
BENCHMARK(BM_ExecWarmCoW)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(4096)
    ->Complexity()
    ->Unit(benchmark::kMicrosecond);

void BM_ExecWarmEager(benchmark::State& state) { RunWarmExec(state, false); }
BENCHMARK(BM_ExecWarmEager)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(4096)
    ->Complexity()
    ->Unit(benchmark::kMicrosecond);

// Specializations are separate cache entries: flipping between two
// specializations of the same meta-object must not thrash.
void BM_InstantiateTwoSpecializations(benchmark::State& state) {
  OmosWorld world = MakeOmosWorld();
  Specialization a;
  Specialization b{"lib-constrained", {}};
  BENCH_UNWRAP(world.server->Instantiate("/bin/ls", a, nullptr));
  BENCH_UNWRAP(world.server->Instantiate("/lib/libc", b, nullptr));
  for (auto _ : state) {
    uint64_t w = 0;
    benchmark::DoNotOptimize(BENCH_UNWRAP(world.server->Instantiate("/bin/ls", a, &w)));
    benchmark::DoNotOptimize(BENCH_UNWRAP(world.server->Instantiate("/lib/libc", b, &w)));
    if (w != 0) {
      state.SkipWithError("unexpected rebuild on warm cache");
    }
  }
}
BENCHMARK(BM_InstantiateTwoSpecializations)->Unit(benchmark::kMicrosecond);

// Store-backed restart (PR 6): time a cold server coming back from the
// persistent image store — replay the journal, restore the meta-snapshot,
// and serve "/bin/ls" by adopting its stored image instead of re-linking.
// Compare against BM_InstantiateCold: recovery should cost a fraction of a
// full construct+link+place.
void BM_RestartRecovery(benchmark::State& state) {
  SimFs disk;  // the disk outlives every server generation
  {
    OmosWorld seed = MakeOmosWorld();
    ImageStore store(disk, "/omos/store", &seed.kernel->costs());
    BENCH_CHECK(store.Open());
    seed.server->AttachStore(&store);
    seed.Warm();
    BENCH_CHECK(seed.server->PersistTo(store));
  }
  uint64_t work = 0;
  uint64_t restarts = 0;
  uint64_t store_hits = 0;
  for (auto _ : state) {
    state.PauseTiming();
    OmosWorld world = MakeOmosWorld();
    state.ResumeTiming();
    ImageStore store(disk, "/omos/store", &world.kernel->costs());
    BENCH_CHECK(store.Open());
    BENCH_CHECK(world.server->RestoreFromStore(store));
    uint64_t w = 0;
    benchmark::DoNotOptimize(BENCH_UNWRAP(world.server->Instantiate("/bin/ls", {}, &w)));
    work += w;
    store_hits += store.stats().hits.load();
    ++restarts;
  }
  state.counters["sim_work_cycles"] =
      benchmark::Counter(static_cast<double>(work) / static_cast<double>(restarts));
  state.counters["store_hits_per_restart"] =
      benchmark::Counter(static_cast<double>(store_hits) / static_cast<double>(restarts));
}
BENCHMARK(BM_RestartRecovery)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace omos
