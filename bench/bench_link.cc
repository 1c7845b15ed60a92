// Link-engine throughput: merge + relocate as a function of input size.
// Backs the §2.1 discussion (static linking of large programs is the slow
// path OMOS's cache amortizes) and gives the cost OMOS pays on a cache miss.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <set>
#include <vector>

#include "bench/bench_common.h"
#include "src/baseline/static_linker.h"
#include "src/core/server.h"
#include "src/support/strings.h"
#include "src/vasm/assembler.h"

namespace omos {
namespace {

// Merge the first `n` libc members into one module.
Module MergePrefix(int64_t n) {
  const Archive& libc = FullWorkloads().libc;
  Module m;
  bool first = true;
  for (int64_t i = 0; i < n && i < static_cast<int64_t>(libc.members().size()); ++i) {
    Module part =
        Module::FromObject(std::make_shared<const ObjectFile>(libc.members()[static_cast<size_t>(i)]));
    if (first) {
      m = std::move(part);
      first = false;
    } else {
      m = BENCH_UNWRAP(Module::Merge(m, part));
    }
  }
  return m;
}

void BM_MergeFragments(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(MergePrefix(state.range(0)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MergeFragments)->Arg(8)->Arg(32)->Arg(128)->Complexity()->Unit(benchmark::kMicrosecond);

// The same members merged by one n-ary Module::MergeAll: one pass over the
// symbol spaces, where the pairwise fold above copies the accumulated
// module at every step.
void BM_MergeAll(benchmark::State& state) {
  const Archive& libc = FullWorkloads().libc;
  size_t n = std::min(static_cast<size_t>(state.range(0)), libc.members().size());
  for (auto _ : state) {
    std::vector<Module> parts;
    parts.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      parts.push_back(Module::FromObject(std::make_shared<const ObjectFile>(libc.members()[i])));
    }
    benchmark::DoNotOptimize(BENCH_UNWRAP(Module::MergeAll(parts)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MergeAll)->Arg(8)->Arg(32)->Arg(128)->Complexity()->Unit(benchmark::kMicrosecond);

void BM_LinkImage(benchmark::State& state) {
  Module m = MergePrefix(state.range(0));
  uint32_t relocs = 0;
  uint32_t exported = 0;
  for (auto _ : state) {
    LayoutSpec layout;
    LinkedImage image = BENCH_UNWRAP(LinkImage(m, layout, "bench"));
    relocs = image.stats.relocations_applied;
    exported = image.stats.symbols_exported;
    benchmark::DoNotOptimize(image);
  }
  state.counters["relocations"] = relocs;
  state.counters["symbols_exported"] = exported;
}
BENCHMARK(BM_LinkImage)->Arg(8)->Arg(32)->Arg(128)->Unit(benchmark::kMicrosecond);

// A library relinked where a fix moved it: one memoized module (the
// evaluation memo hands every rebuild the same bound space) linked at two
// text bases in turn. Only the first link builds the space's plan; every
// later one applies it.
void BM_RelinkAtNewBase(benchmark::State& state) {
  const Archive& libc = FullWorkloads().libc;
  size_t n = std::min(static_cast<size_t>(state.range(0)), libc.members().size());
  std::vector<Module> parts;
  for (size_t i = 0; i < n; ++i) {
    parts.push_back(Module::FromObject(std::make_shared<const ObjectFile>(libc.members()[i])));
  }
  Module memoized = BENCH_UNWRAP(Module::MergeAll(parts));
  const uint32_t kBases[2] = {0x2000000, 0x2100000};
  uint64_t version = 0;
  for (auto _ : state) {
    LayoutSpec layout;
    layout.text_base = kBases[++version & 1];
    benchmark::DoNotOptimize(BENCH_UNWRAP(LinkImage(memoized, layout, "bench")));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RelinkAtNewBase)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Complexity()
    ->Unit(benchmark::kMicrosecond);

// Same link with the members re-annotated default-hidden (only symbols a
// sibling member references stay exported): the symbol space the linker
// indexes, and the export table the image carries, shrink to the real API —
// compare the symbols_exported counter against BM_LinkImage's.
Module MergePrefixHidden(int64_t n) {
  const Archive& libc = FullWorkloads().libc;
  std::set<std::string> wanted;
  for (const ObjectFile& member : libc.members()) {
    for (const Symbol* ref : member.References()) {
      wanted.insert(ref->name);
    }
  }
  Module m;
  bool first = true;
  for (int64_t i = 0; i < n && i < static_cast<int64_t>(libc.members().size()); ++i) {
    ObjectFile copy = libc.members()[static_cast<size_t>(i)];
    copy.set_default_hidden(true);
    for (Symbol& sym : copy.mutable_symbols()) {
      if (sym.defined && sym.binding != SymbolBinding::kLocal && wanted.count(sym.name) != 0) {
        sym.visibility = SymbolVisibility::kExported;
      }
    }
    Module part = Module::FromObject(std::make_shared<const ObjectFile>(std::move(copy)));
    if (first) {
      m = std::move(part);
      first = false;
    } else {
      m = BENCH_UNWRAP(Module::Merge(m, part));
    }
  }
  return m;
}

void BM_LinkImageDefaultHidden(benchmark::State& state) {
  Module m = MergePrefixHidden(state.range(0));
  uint32_t relocs = 0;
  uint32_t exported = 0;
  for (auto _ : state) {
    LayoutSpec layout;
    LinkedImage image = BENCH_UNWRAP(LinkImage(m, layout, "bench-hidden"));
    relocs = image.stats.relocations_applied;
    exported = image.stats.symbols_exported;
    benchmark::DoNotOptimize(image);
  }
  state.counters["relocations"] = relocs;
  state.counters["symbols_exported"] = exported;
}
BENCHMARK(BM_LinkImageDefaultHidden)->Arg(8)->Arg(32)->Arg(128)->Unit(benchmark::kMicrosecond);

// Full static link of the codegen application (client + six libraries):
// the work a traditional development cycle repeats after every edit, and
// which shared libraries (of either flavour) avoid (§2.1).
void BM_StaticLinkCodegen(benchmark::State& state) {
  const Workloads& w = FullWorkloads();
  std::vector<ObjectFile> objs = w.codegen_objs;
  objs.insert(objs.begin(), w.crt0);
  Module prog = BENCH_UNWRAP(ModuleFromObjects(objs));
  for (const Archive* lib : {&w.libc, &w.alpha1, &w.alpha2, &w.libm, &w.libl, &w.libcpp}) {
    prog = BENCH_UNWRAP(Module::Merge(prog, BENCH_UNWRAP(ModuleFromArchive(*lib))));
  }
  CostModel costs;
  uint64_t sim_cost = 0;
  for (auto _ : state) {
    StaticExecutable exe = BENCH_UNWRAP(StaticLink("codegen", prog, costs));
    sim_cost = exe.link_cost;
    benchmark::DoNotOptimize(exe);
  }
  state.counters["sim_link_cycles"] = static_cast<double>(sim_cost);
}
BENCHMARK(BM_StaticLinkCodegen)->Unit(benchmark::kMillisecond);

// A library fix reaching its client (§2.1, e2ebench's lib_update in
// miniature): each iteration redefines a fixed-base library over an N-member
// archive, alternating two bases, then instantiates the one client that
// links against it. The archive is unchanged, so its evaluation is a memo
// hit; what scales with N is only the work the rebuild cannot share: the
// library's link. Members call their successor, so every library reference
// binds inside the library.
void BM_RebuildAfterRedefine(benchmark::State& state) {
  int64_t n = state.range(0);
  Kernel kernel;
  OmosServer server(kernel);
  Archive archive("libn");
  for (int64_t i = 0; i < n; ++i) {
    archive.Add(BENCH_UNWRAP(Assemble(StrCat(".text\n.global fn_", i, "\nfn_", i,
                                             ":\n  call fn_", (i + 1) % n, "\n  ret\n"),
                                      StrCat("m", i, ".o"))));
  }
  BENCH_CHECK(server.AddArchive("/libn", archive));
  BENCH_CHECK(server.AddFragment("/lib/crt0.o", FullWorkloads().crt0));
  BENCH_CHECK(server.AddFragment(
      "/obj/main.o", BENCH_UNWRAP(Assemble(".text\n.global main\nmain:\n  call fn_0\n  ret\n",
                                           "main.o"))));
  BENCH_CHECK(server.DefineMeta("/bin/client", "(merge /lib/crt0.o /obj/main.o /lib/n)"));
  const char* kBases[2] = {"0x2000000", "0x2100000"};
  uint64_t version = 0;
  for (auto _ : state) {
    BENCH_CHECK(server.DefineLibrary(
        "/lib/n", StrCat("(constraint-list \"T\" ", kBases[++version & 1], ")\n(merge /libn)")));
    benchmark::DoNotOptimize(BENCH_UNWRAP(server.Instantiate("/bin/client", {}, nullptr)));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_RebuildAfterRedefine)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Complexity()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace omos
