// Extended server features: program-driven dynamic loading/unlinking
// (kSysOmosLoad/kSysOmosUnload), the initializers operator, override
// blueprints, cache eviction recovery, constraint conflicts between
// libraries, and IPC-driven administration.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <thread>

#include "src/core/server.h"
#include "src/support/faultsim.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/support/trace.h"
#include "src/workloads/workloads.h"
#include "tests/helpers.h"

namespace omos {
namespace {

// /lib/crt0.o: _start calls main and exits with its result.
Result<void> AddCrt0(OmosServer& server) {
  OMOS_TRY(ObjectFile crt0, Assemble(R"(
.text
.global _start
_start:
  call main
  sys 0
)", "crt0.o"));
  return server.AddFragment("/lib/crt0.o", std::move(crt0));
}

class ServerFeatures : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<OmosServer>(kernel_);
    ASSERT_OK(AddCrt0(*server_));
  }

  Result<RunOutcome> Run(TaskId id) {
    Task* task = kernel_.FindTask(id);
    OMOS_TRY_VOID(kernel_.RunTask(*task));
    RunOutcome out;
    out.exit_code = task->exit_code();
    out.output = task->output();
    return out;
  }

  Kernel kernel_;
  std::unique_ptr<OmosServer> server_;
};

TEST_F(ServerFeatures, ProgramDrivenDynamicLoadAndCall) {
  // A plugin class with one entry point.
  ASSERT_OK_AND_ASSIGN(ObjectFile plugin, Assemble(R"(
.text
.global plugin_fn
plugin_fn:
  movi r0, 77
  ret
)", "plugin.o"));
  ASSERT_OK(server_->AddFragment("/obj/plugin.o", std::move(plugin)));

  // The main program asks OMOS to load the class (sys 19) and calls through
  // the returned address — the §5 dld-style interface, from inside the
  // simulated program.
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(StrCat(R"asm(
.text
.global main
main:
  push lr
  lea r0, blueprint
  lea r1, wanted
  sys )asm", kSysOmosLoad, R"asm(
  movi r1, 0
  beq r0, r1, fail
  callr r0
  pop lr
  ret
fail:
  movi r0, 255
  pop lr
  ret
.data
blueprint: .asciiz "(merge /obj/plugin.o)"
wanted: .asciiz "plugin_fn"
)asm"), "main.o"));
  ASSERT_OK(server_->AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/host", "(merge /lib/crt0.o /obj/main.o)"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/host", {"host"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  EXPECT_EQ(out.exit_code, 77);
}

TEST_F(ServerFeatures, DynamicUnloadRemovesMappings) {
  ASSERT_OK_AND_ASSIGN(ObjectFile plugin, Assemble(R"(
.text
.global plugin_fn
plugin_fn:
  movi r0, 5
  ret
.data
pdata: .word 9
)", "plugin.o"));
  ASSERT_OK(server_->AddFragment("/obj/plugin.o", std::move(plugin)));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  movi r0, 0
  ret
)", "main.o"));
  ASSERT_OK(server_->AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/host", "(merge /lib/crt0.o /obj/main.o)"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/host", {"host"}));
  Task* task = kernel_.FindTask(id);

  ASSERT_OK_AND_ASSIGN(auto loaded,
                       server_->DynamicLoad(*task, "(merge /obj/plugin.o)", {"plugin_fn"}));
  size_t with_plugin = task->space().Regions().size();
  ASSERT_OK(server_->DynamicUnload(*task, loaded.text_base));
  EXPECT_LT(task->space().Regions().size(), with_plugin);
  // Unloading twice fails cleanly.
  auto again = server_->DynamicUnload(*task, loaded.text_base);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code(), ErrorCode::kNotFound);
  // The class can be loaded again after unlinking.
  ASSERT_OK(server_->DynamicLoad(*task, "(merge /obj/plugin.o)", {"plugin_fn"}));
}

TEST_F(ServerFeatures, InitializersOperatorRunsStaticConstructors) {
  // Two "C++ static initializers" and a main that checks their effect —
  // the §2.2/§3.3 initializers story.
  ASSERT_OK_AND_ASSIGN(ObjectFile inits, Assemble(R"(
.text
.global __init_alpha
__init_alpha:
  lea r1, state
  ld r2, [r1+0]
  addi r2, r2, 10
  st r2, [r1+0]
  ret
.global __init_beta
__init_beta:
  lea r1, state
  ld r2, [r1+0]
  addi r2, r2, 3
  st r2, [r1+0]
  ret
.data
.align 4
.global state
state: .word 0
)", "inits.o"));
  ASSERT_OK(server_->AddFragment("/obj/inits.o", std::move(inits)));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  push lr
  call __run_initializers
  lea r1, state
  ld r0, [r1+0]
  pop lr
  ret
)", "main.o"));
  ASSERT_OK(server_->AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/ctors",
                                "(initializers (merge /lib/crt0.o /obj/main.o /obj/inits.o))"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/ctors", {"ctors"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  EXPECT_EQ(out.exit_code, 13);
}

TEST_F(ServerFeatures, OverrideBlueprintReplacesImplementation) {
  ASSERT_OK_AND_ASSIGN(ObjectFile v1, Assemble(R"(
.text
.global answer
answer:
  movi r0, 1
  ret
.global main
main:
  push lr
  call answer
  pop lr
  ret
)", "v1.o"));
  ASSERT_OK_AND_ASSIGN(ObjectFile v2, Assemble(R"(
.text
.global answer
answer:
  movi r0, 2
  ret
)", "v2.o"));
  ASSERT_OK(server_->AddFragment("/obj/v1.o", std::move(v1)));
  ASSERT_OK(server_->AddFragment("/obj/v2.o", std::move(v2)));
  // merge would reject the duplicate definition; override takes the second.
  ASSERT_OK(server_->DefineMeta("/bin/merged", "(merge /lib/crt0.o /obj/v1.o /obj/v2.o)"));
  auto merged = server_->Instantiate("/bin/merged", {}, nullptr);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.error().code(), ErrorCode::kDuplicateSymbol);

  ASSERT_OK(server_->DefineMeta("/bin/over",
                                "(override (merge /lib/crt0.o /obj/v1.o) /obj/v2.o)"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/over", {"over"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  EXPECT_EQ(out.exit_code, 2);  // internal caller rebound to the override
}

TEST_F(ServerFeatures, EvictedLibraryIsRebuiltByInstantiate) {
  ASSERT_OK_AND_ASSIGN(ObjectFile lib, Assemble(R"(
.text
.global f
f:
  movi r0, 4
  ret
)", "lib.o"));
  ASSERT_OK(server_->AddFragment("/obj/lib.o", std::move(lib)));
  ASSERT_OK(server_->DefineLibrary("/lib/l", "(merge /obj/lib.o)"));
  Specialization spec{"lib-constrained", {}};
  ASSERT_OK_AND_ASSIGN(const CachedImage* first, server_->Instantiate("/lib/l", spec, nullptr));
  uint32_t base = first->image.text_base;
  server_->cache().Evict(first->key);
  uint64_t work = 0;
  ASSERT_OK_AND_ASSIGN(const CachedImage* rebuilt, server_->Instantiate("/lib/l", spec, &work));
  EXPECT_GT(work, 0u);  // rebuilt, not a hit
  // Strong constraint: the rebuilt image reuses the same placement, so
  // stale clients remain correct.
  EXPECT_EQ(rebuilt->image.text_base, base);
}

TEST_F(ServerFeatures, ConflictingLibraryHintsSpill) {
  ASSERT_OK_AND_ASSIGN(ObjectFile a, Assemble(".text\n.global fa\nfa: ret\n", "a.o"));
  ASSERT_OK_AND_ASSIGN(ObjectFile b, Assemble(".text\n.global fb\nfb: ret\n", "b.o"));
  ASSERT_OK(server_->AddFragment("/obj/a.o", std::move(a)));
  ASSERT_OK(server_->AddFragment("/obj/b.o", std::move(b)));
  // Both libraries want the same text base.
  ASSERT_OK(server_->DefineLibrary("/lib/a",
                                   "(constraint-list \"T\" 0x3000000)\n(merge /obj/a.o)"));
  ASSERT_OK(server_->DefineLibrary("/lib/b",
                                   "(constraint-list \"T\" 0x3000000)\n(merge /obj/b.o)"));
  Specialization spec{"lib-constrained", {}};
  ASSERT_OK_AND_ASSIGN(const CachedImage* la, server_->Instantiate("/lib/a", spec, nullptr));
  ASSERT_OK_AND_ASSIGN(const CachedImage* lb, server_->Instantiate("/lib/b", spec, nullptr));
  EXPECT_EQ(la->image.text_base, 0x3000000u);
  EXPECT_NE(lb->image.text_base, 0x3000000u);
  ASSERT_EQ(server_->conflicts().size(), 1u);
  EXPECT_EQ(server_->conflicts()[0].wanted, 0x3000000u);
}

TEST_F(ServerFeatures, DefineMetaOverIpc) {
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  movi r0, 11
  ret
)", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  Channel channel = server_->MakeChannel();
  OmosRequest request;
  request.op = OmosOp::kDefineMeta;
  request.path = "/bin/remote";
  request.specialization = "(merge /lib/crt0.o /obj/m.o)";  // blueprint field
  ASSERT_OK_AND_ASSIGN(OmosReply reply, channel.Call(request, nullptr));
  ASSERT_TRUE(reply.ok) << reply.error;
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/remote", {"remote"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  EXPECT_EQ(out.exit_code, 11);
}

TEST_F(ServerFeatures, DynamicLoadOverIpcReturnsSymbolValues) {
  ASSERT_OK_AND_ASSIGN(ObjectFile plugin, Assemble(R"(
.text
.global pf
pf:
  movi r0, 3
  ret
)", "p.o"));
  ASSERT_OK(server_->AddFragment("/obj/p.o", std::move(plugin)));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 0\n  ret\n", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/host", "(merge /lib/crt0.o /obj/m.o)"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/host", {"host"}));

  Channel channel = server_->MakeChannel();
  OmosRequest request;
  request.op = OmosOp::kDynamicLoad;
  request.path = "(merge /obj/p.o)";
  request.task_handle = id;
  request.symbols = {"pf", "missing"};
  ASSERT_OK_AND_ASSIGN(OmosReply reply, channel.Call(request, nullptr));
  ASSERT_TRUE(reply.ok) << reply.error;
  ASSERT_EQ(reply.symbol_values.size(), 2u);
  EXPECT_NE(reply.symbol_values[0], 0u);
  EXPECT_EQ(reply.symbol_values[1], 0u);
}

TEST_F(ServerFeatures, ReleaseTaskDropsRuntimeState) {
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 0\n  ret\n", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/p", "(merge /lib/crt0.o /obj/m.o)"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/p", {"p"}));
  Task* task = kernel_.FindTask(id);
  server_->ReleaseTask(id);
  auto unload = server_->DynamicUnload(*task, 0x101000);
  ASSERT_FALSE(unload.ok());  // no runtime state left
}

TEST_F(ServerFeatures, ShowRestrictsLibraryInterface) {
  // project/show in a blueprint: only the exported api survives.
  ASSERT_OK_AND_ASSIGN(ObjectFile lib, Assemble(R"(
.text
.global api_entry
api_entry:
  push lr
  call impl_detail
  pop lr
  ret
impl_detail_pad: nop
.global impl_detail
impl_detail:
  movi r0, 21
  ret
)", "lib.o"));
  ASSERT_OK(server_->AddFragment("/obj/lib.o", std::move(lib)));
  ASSERT_OK_AND_ASSIGN(Module shown,
                       server_->EvaluateBlueprint("(show \"^api_\" (merge /obj/lib.o))"));
  ASSERT_OK_AND_ASSIGN(auto names, shown.ExportNames());
  EXPECT_EQ(names, (std::vector<std::string>{"api_entry"}));
  // The hidden detail is frozen: linking still works and runs.
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  push lr
  call api_entry
  pop lr
  ret
)", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta(
      "/bin/clean", "(merge /lib/crt0.o /obj/m.o (show \"^api_\" /obj/lib.o))"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/clean", {"clean"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  EXPECT_EQ(out.exit_code, 21);
}


TEST_F(ServerFeatures, RedefiningLibraryInvalidatesDependentImages) {
  ASSERT_OK_AND_ASSIGN(ObjectFile v1, Assemble(R"(
.text
.global answer
answer:
  movi r0, 1
  ret
)", "v1.o"));
  ASSERT_OK(server_->AddFragment("/obj/v1.o", std::move(v1)));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  push lr
  call answer
  pop lr
  ret
)", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineLibrary("/lib/ans", "(merge /obj/v1.o)"));
  ASSERT_OK(server_->DefineMeta("/bin/q", "(merge /lib/crt0.o /obj/m.o /lib/ans)"));
  ASSERT_OK_AND_ASSIGN(TaskId id1, server_->IntegratedExec("/bin/q", {"q"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out1, Run(id1));
  EXPECT_EQ(out1.exit_code, 1);

  // "A library fix is instantly incorporated into all clients" (sec. 2.1):
  // redefine the library; the cached client image must be rebuilt.
  ASSERT_OK_AND_ASSIGN(ObjectFile v2, Assemble(R"(
.text
.global answer
answer:
  movi r0, 2
  ret
)", "v2.o"));
  ASSERT_OK(server_->AddFragment("/obj/v2.o", std::move(v2)));
  ASSERT_OK(server_->DefineLibrary("/lib/ans", "(merge /obj/v2.o)"));
  ASSERT_OK_AND_ASSIGN(TaskId id2, server_->IntegratedExec("/bin/q", {"q"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out2, Run(id2));
  EXPECT_EQ(out2.exit_code, 2);
}

TEST_F(ServerFeatures, RedefiningFragmentInvalidatesReferencingMetas) {
  ASSERT_OK_AND_ASSIGN(ObjectFile v1,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 10\n  ret\n", "f.o"));
  ASSERT_OK(server_->AddFragment("/obj/f.o", std::move(v1)));
  ASSERT_OK(server_->DefineMeta("/bin/frag", "(merge /lib/crt0.o /obj/f.o)"));
  ASSERT_OK_AND_ASSIGN(TaskId id1, server_->IntegratedExec("/bin/frag", {"frag"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out1, Run(id1));
  EXPECT_EQ(out1.exit_code, 10);

  ASSERT_OK_AND_ASSIGN(ObjectFile v2,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 20\n  ret\n", "f.o"));
  ASSERT_OK(server_->AddFragment("/obj/f.o", std::move(v2)));
  ASSERT_OK_AND_ASSIGN(TaskId id2, server_->IntegratedExec("/bin/frag", {"frag"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out2, Run(id2));
  EXPECT_EQ(out2.exit_code, 20);
}

TEST_F(ServerFeatures, ExportNamespaceToFsMakesBinExecutable) {
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 9\n  ret\n", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/tool", "(merge /lib/crt0.o /obj/m.o)"));
  ASSERT_OK_AND_ASSIGN(int exported, server_->ExportNamespaceToFs("/bin", "/usr/bin"));
  EXPECT_EQ(exported, 1);
  // Ordinary path-based exec now reaches the server via the interpreter line.
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->ExecFile("/usr/bin/tool", {"tool"}, true));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  EXPECT_EQ(out.exit_code, 9);
}


TEST_F(ServerFeatures, OptimizePlacementsResolvesConflicts) {
  ASSERT_OK_AND_ASSIGN(ObjectFile a, Assemble(".text\n.global fa\nfa: ret\n", "a.o"));
  ASSERT_OK_AND_ASSIGN(ObjectFile b, Assemble(".text\n.global fb\nfb: ret\n", "b.o"));
  ASSERT_OK(server_->AddFragment("/obj/a.o", std::move(a)));
  ASSERT_OK(server_->AddFragment("/obj/b.o", std::move(b)));
  ASSERT_OK(server_->DefineLibrary("/lib/a",
                                   "(constraint-list \"T\" 0x3000000)\n(merge /obj/a.o)"));
  ASSERT_OK(server_->DefineLibrary("/lib/b",
                                   "(constraint-list \"T\" 0x3000000)\n(merge /obj/b.o)"));
  Specialization spec{"lib-constrained", {}};
  ASSERT_OK(server_->Instantiate("/lib/a", spec, nullptr));
  ASSERT_OK(server_->Instantiate("/lib/b", spec, nullptr));
  ASSERT_EQ(server_->conflicts().size(), 1u);

  // The automatic feedback pass (sec. 4.1): conflicts are consumed and every
  // object gets a stable, conflict-free home.
  int evicted = server_->OptimizePlacements();
  EXPECT_GE(evicted, 1);
  EXPECT_TRUE(server_->conflicts().empty());
  // Rebuilt instantiations reuse the optimized placements with no new
  // conflicts, even though the old hints still collide.
  ASSERT_OK_AND_ASSIGN(const CachedImage* la, server_->Instantiate("/lib/a", spec, nullptr));
  ASSERT_OK_AND_ASSIGN(const CachedImage* lb, server_->Instantiate("/lib/b", spec, nullptr));
  EXPECT_NE(la->image.text_base, lb->image.text_base);
  EXPECT_TRUE(server_->conflicts().empty());
}

TEST_F(ServerFeatures, SymbolsForTaskCoversProgramAndLibraries) {
  ASSERT_OK_AND_ASSIGN(ObjectFile lib, Assemble(R"(
.text
.global lib_fn
lib_fn:
  movi r0, 8
  ret
)", "lib.o"));
  ASSERT_OK(server_->AddFragment("/obj/lib.o", std::move(lib)));
  ASSERT_OK(server_->DefineLibrary("/lib/l", "(merge /obj/lib.o)"));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  push lr
  call lib_fn
  pop lr
  ret
)", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/p", "(merge /lib/crt0.o /obj/m.o /lib/l)"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/p", {"p"}));
  ASSERT_OK_AND_ASSIGN(auto symbols, server_->SymbolsForTask(id));
  bool has_main = false;
  bool has_lib_fn = false;
  for (const ImageSymbol& sym : symbols) {
    has_main |= sym.name == "main";
    has_lib_fn |= sym.name == "lib_fn";
  }
  EXPECT_TRUE(has_main);
  EXPECT_TRUE(has_lib_fn);
  EXPECT_FALSE(server_->SymbolsForTask(9999).ok());
}

// ---- Cache integrity ----------------------------------------------------------

TEST_F(ServerFeatures, CorruptedCacheEntryIsRebuiltByteIdentical) {
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  movi r0, 42
  ret
.data
greeting: .asciiz "hello"
)", "main.o"));
  ASSERT_OK(server_->AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/main.o)"));

  uint64_t work = 0;
  ASSERT_OK_AND_ASSIGN(const CachedImage* first, server_->Instantiate("/bin/prog", {}, &work));
  std::vector<uint8_t> original_text = first->image.text;
  std::vector<uint8_t> original_data = first->image.data;
  uint32_t original_entry = first->image.entry;
  uint32_t original_base = first->image.text_base;
  ASSERT_EQ(server_->cache_stats().corruption_rebuilds, 0u);

  // Rot one bit of the cached image. The next Get detects the checksum
  // mismatch, evicts, and Instantiate transparently rebuilds.
  uint64_t rebuild_work = 0;
  const CachedImage* rebuilt = nullptr;
  {
    ScopedFaultPlan plan(FaultPlan().Arm("cache.bitrot", FaultSpec::Nth(1)));
    ASSERT_OK_AND_ASSIGN(rebuilt, server_->Instantiate("/bin/prog", {}, &rebuild_work));
  }
  EXPECT_EQ(server_->cache_stats().corruption_rebuilds, 1u);
  EXPECT_GT(rebuild_work, 0u);  // a real rebuild, not a cache hit
  // The placement survived the eviction, so the rebuild is byte-identical.
  EXPECT_EQ(rebuilt->image.text, original_text);
  EXPECT_EQ(rebuilt->image.data, original_data);
  EXPECT_EQ(rebuilt->image.entry, original_entry);
  EXPECT_EQ(rebuilt->image.text_base, original_base);

  // A clean second pass is an ordinary hit: no further rebuild counted.
  uint64_t hit_work = 0;
  ASSERT_OK(server_->Instantiate("/bin/prog", {}, &hit_work));
  EXPECT_EQ(server_->cache_stats().corruption_rebuilds, 1u);
}

TEST_F(ServerFeatures, CorruptedProgramStillRunsCorrectly) {
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  movi r0, 42
  ret
)", "main.o"));
  ASSERT_OK(server_->AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/main.o)"));
  uint64_t work = 0;
  ASSERT_OK(server_->Instantiate("/bin/prog", {}, &work));
  ScopedFaultPlan plan(FaultPlan().Arm("cache.bitrot", FaultSpec::Nth(1)));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/prog", {"prog"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  EXPECT_EQ(out.exit_code, 42);  // rot never reaches the running program
  EXPECT_EQ(server_->cache_stats().corruption_rebuilds, 1u);
}

// ---- Crash / recovery ---------------------------------------------------------

TEST_F(ServerFeatures, SnapshotRestoreYieldsIdenticalImages) {
  ASSERT_OK_AND_ASSIGN(ObjectFile lib, Assemble(R"(
.text
.global lib_fn
lib_fn:
  movi r0, 40
  ret
)", "lib.o"));
  ASSERT_OK(server_->AddFragment("/obj/lib.o", std::move(lib)));
  ASSERT_OK(server_->DefineLibrary("/lib/l", "(merge /obj/lib.o)"));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  push lr
  call lib_fn
  pop lr
  addi r0, r0, 2
  ret
)", "main.o"));
  ASSERT_OK(server_->AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/main.o /lib/l)"));

  uint64_t work = 0;
  ASSERT_OK_AND_ASSIGN(const CachedImage* before, server_->Instantiate("/bin/prog", {}, &work));
  std::vector<uint8_t> original_text = before->image.text;
  uint32_t original_entry = before->image.entry;
  ASSERT_OK_AND_ASSIGN(TaskId id_a, server_->IntegratedExec("/bin/prog", {"prog"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out_a, Run(id_a));
  ASSERT_EQ(out_a.exit_code, 42);

  std::string snapshot = server_->Snapshot();

  // "Crash": a brand-new kernel and server, fed only the snapshot.
  Kernel kernel2;
  OmosServer restored(kernel2);
  ASSERT_OK(restored.Restore(snapshot));
  // The image cache starts cold but rebuilds at the adopted placements, so
  // the restored server serves byte-identical images with the same entry.
  uint64_t rebuild_work = 0;
  ASSERT_OK_AND_ASSIGN(const CachedImage* after,
                       restored.Instantiate("/bin/prog", {}, &rebuild_work));
  EXPECT_EQ(after->image.text, original_text);
  EXPECT_EQ(after->image.entry, original_entry);
  EXPECT_GT(rebuild_work, 0u);

  ASSERT_OK_AND_ASSIGN(TaskId id_b, restored.IntegratedExec("/bin/prog", {"prog"}));
  Task* task_b = kernel2.FindTask(id_b);
  ASSERT_OK(kernel2.RunTask(*task_b));
  EXPECT_EQ(task_b->exit_code(), 42);
}

// The text layout `server` serves for /bin/prog under `spec`.
TextLayout ServedLayout(OmosServer& server, const Specialization& spec = {}) {
  ImageCache::ReadLease lease(server.cache());
  auto image = server.Instantiate("/bin/prog", spec, nullptr);
  EXPECT_TRUE(image.ok()) << image.error().ToString();
  return image.ok() ? TextLayoutOf((*image)->image.symbols) : TextLayout();
}

// The text layout the exec `id` mapped.
TextLayout ExecLayout(OmosServer& server, TaskId id) {
  auto symbols = server.SymbolsForTask(id);
  EXPECT_TRUE(symbols.ok()) << symbols.error().ToString();
  return symbols.ok() ? TextLayoutOf(*symbols) : TextLayout();
}

// `body` (a snapshot up to its check line) with the check line Snapshot()
// writes: the FNV-1a hash of every byte before it, as 0x + 16 hex digits.
std::string WithCheck(const std::string& body) {
  uint64_t sum = Fnv1a(body);
  return StrCat(body, "check ", Hex32(static_cast<uint32_t>(sum >> 32)),
                Hex32(static_cast<uint32_t>(sum)).substr(2), "\n");
}

// The routine order recorded by the one order row of `snapshot`.
std::vector<std::string> RecordedOrder(const std::string& snapshot) {
  size_t at = snapshot.find("\norder ");
  EXPECT_NE(at, std::string::npos) << "no order row";
  if (at == std::string::npos) {
    return {};
  }
  std::vector<std::string> rows = SplitString(snapshot.substr(at + 1), '\n');
  size_t count = std::stoul(rows[0].substr(6));  // "order <count> <path>"
  return {rows.begin() + 1, rows.begin() + 1 + static_cast<ptrdiff_t>(count)};
}

// `snapshot` with `order` as the routine order of `path`: its one order row
// replaced, or, when it has none, an order row where Snapshot() writes
// them, after the entries and before the placements and prelinked paths.
// The check line is recomputed.
std::string WithOrder(const std::string& snapshot, const std::string& path,
                      const std::vector<std::string>& order) {
  std::string body = snapshot.substr(0, snapshot.rfind("check "));
  std::string rows = StrCat("order ", order.size(), " ", path, "\n");
  for (const std::string& name : order) {
    rows += name + "\n";
  }
  size_t at = body.find("\norder ");
  if (at == std::string::npos) {
    size_t tail = std::min(body.find("\nplace "), body.find("\nprelink "));
    body.insert(tail == std::string::npos ? body.size() : tail + 1, rows);
    return WithCheck(body);
  }
  size_t end = body.find('\n', at + 1);
  EXPECT_TRUE(EndsWith(body.substr(at, end - at), StrCat(" ", path)));
  for (size_t i = 0; i < RecordedOrder(snapshot).size(); ++i) {
    end = body.find('\n', end + 1);
  }
  body.replace(at + 1, end - at, rows);
  return WithCheck(body);
}

TEST_F(ServerFeatures, SnapshotRoundTripsPreferredOrder) {
  ASSERT_OK_AND_ASSIGN(ObjectFile lib, Assemble(R"(
.text
.global f_hot
f_hot:
  ret
.global f_cold
f_cold:
  ret
)", "lib.o"));
  ASSERT_OK(server_->AddFragment("/obj/lib.o", std::move(lib)));
  ASSERT_OK(server_->DefineLibrary("/lib/l", "(merge /obj/lib.o)"));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  push lr
  call f_hot
  call f_hot
  call f_cold
  pop lr
  movi r0, 0
  ret
)", "main.o"));
  ASSERT_OK(server_->AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/main.o /lib/l)"));
  std::string unordered = server_->Snapshot();
  Specialization monitor;
  monitor.name = "monitor";
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/prog", {"prog"}, monitor));
  ASSERT_OK(Run(id));
  ASSERT_OK(server_->DerivePreferredOrder("/bin/prog"));
  ASSERT_TRUE(server_->HasPreferredOrder("/bin/prog"));
  ASSERT_OK(server_->IntegratedExec("/bin/prog", {"prog"}));  // placements too
  std::string snapshot = server_->Snapshot();
  // The order rows follow every entry.
  size_t order_at = snapshot.find("\norder ");
  ASSERT_NE(order_at, std::string::npos);
  EXPECT_GT(order_at, snapshot.rfind("\nmeta "));
  EXPECT_GT(order_at, snapshot.rfind("\nfrag "));
  EXPECT_NE(snapshot.find("\nplace "), std::string::npos);

  Kernel kernel2;
  OmosServer restored(kernel2);
  ASSERT_OK(restored.Restore(snapshot));
  EXPECT_TRUE(restored.HasPreferredOrder("/bin/prog"));
  EXPECT_EQ(restored.Snapshot(), snapshot);

  // An order row written by hand into a snapshot of the unordered
  // namespace lays out the next default exec: the library fragment
  // (f_cold's) first, then main's, then crt0's.
  Kernel kernel3;
  OmosServer from_text(kernel3);
  ASSERT_OK(from_text.Restore(WithOrder(unordered, "/bin/prog", {"f_cold", "main"})));
  ASSERT_OK_AND_ASSIGN(TaskId ordered, from_text.IntegratedExec("/bin/prog", {"prog"}));
  std::vector<std::string> names;
  for (const auto& [offset, name] : ExecLayout(from_text, ordered)) {
    names.push_back(name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"f_hot", "f_cold", "main", "_start"}));
  ASSERT_OK(kernel3.RunTask(*kernel3.FindTask(ordered)));
  EXPECT_EQ(kernel3.FindTask(ordered)->exit_code(), 0);
}

TEST_F(ServerFeatures, OrderForAFragmentIsRefused) {
  // A routine order belongs to a meta-object: one for a fragment or an
  // undefined path is refused, by DerivePreferredOrder and by Restore.
  ASSERT_OK_AND_ASSIGN(ObjectFile solo,
                       Assemble(".text\n.global _start\n_start:\n  movi r0, 0\n  sys 0\n", "s.o"));
  ASSERT_OK(server_->AddFragment("/obj/solo.o", std::move(solo)));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/obj/solo.o", {"solo"},
                                                          Specialization{"monitor", {}}));
  ASSERT_OK(Run(id));
  auto derived = server_->DerivePreferredOrder("/obj/solo.o");
  ASSERT_FALSE(derived.ok());
  EXPECT_EQ(derived.error().code(), ErrorCode::kNotFound);
  EXPECT_FALSE(server_->HasPreferredOrder("/obj/solo.o"));

  for (const char* path : {"/obj/solo.o", "/bin/none"}) {
    Kernel kernel2;
    OmosServer restored(kernel2);
    auto result = restored.Restore(WithOrder(server_->Snapshot(), path, {"_start"}));
    ASSERT_FALSE(result.ok()) << path;
    EXPECT_EQ(result.error().code(), ErrorCode::kNotFound) << path;
  }
}

TEST_F(ServerFeatures, DamagedSnapshotRejectedWithCorrupted) {
  ASSERT_OK(server_->DefineMeta("/bin/thing", "(merge /lib/crt0.o)"));
  std::string snapshot = server_->Snapshot();

  // Flip a byte anywhere in the body: the trailing checksum must catch it.
  std::string damaged = snapshot;
  damaged[snapshot.size() / 3] ^= 0x01;
  Kernel kernel2;
  OmosServer restored(kernel2);
  auto result = restored.Restore(damaged);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kCorrupted);
  // Nothing was applied: the namespace is still empty.
  EXPECT_EQ(restored.name_space().size(), 0u);

  // Truncation (losing the check line entirely) is also rejected.
  auto truncated = restored.Restore(snapshot.substr(0, snapshot.size() / 2));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error().code(), ErrorCode::kCorrupted);
}

// ---- Teardown edges -----------------------------------------------------------

TEST_F(ServerFeatures, TeardownEdgesAreClean) {
  ASSERT_OK_AND_ASSIGN(ObjectFile plugin, Assemble(R"(
.text
.global plugin_fn
plugin_fn:
  movi r0, 5
  ret
)", "plugin.o"));
  ASSERT_OK(server_->AddFragment("/obj/plugin.o", std::move(plugin)));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  movi r0, 0
  ret
)", "main.o"));
  ASSERT_OK(server_->AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/host", "(merge /lib/crt0.o /obj/main.o)"));

  // Releasing a task the server never saw is a harmless no-op.
  server_->ReleaseTask(9999);

  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/host", {"host"}));
  Task* task = kernel_.FindTask(id);
  ASSERT_OK_AND_ASSIGN(auto loaded,
                       server_->DynamicLoad(*task, "(merge /obj/plugin.o)", {"plugin_fn"}));

  // Unload, then unload again: the second is a clean kNotFound, not a crash.
  ASSERT_OK(server_->DynamicUnload(*task, loaded.text_base));
  auto again = server_->DynamicUnload(*task, loaded.text_base);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code(), ErrorCode::kNotFound);

  // Release the task's runtime state; unloading through the dead runtime is
  // a clean error too, and releasing twice stays a no-op.
  server_->ReleaseTask(id);
  auto after_release = server_->DynamicUnload(*task, loaded.text_base);
  ASSERT_FALSE(after_release.ok());
  EXPECT_EQ(after_release.error().code(), ErrorCode::kNotFound);
  server_->ReleaseTask(id);

  // The server's runtime table is not corrupted: a fresh exec of the same
  // program maps and runs normally.
  ASSERT_OK_AND_ASSIGN(TaskId id2, server_->IntegratedExec("/bin/host", {"host"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id2));
  EXPECT_EQ(out.exit_code, 0);
}

TEST_F(ServerFeatures, RestoreIgnoresAnOldSnapshotsLayoutGeneration) {
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 1\n  ret\n", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/m.o)"));
  ASSERT_OK(server_->Instantiate("/bin/prog", {}, nullptr));
  std::string snapshot = server_->Snapshot();
  // Older snapshots carry a layout generation row ahead of the placements.
  std::string body = snapshot.substr(0, snapshot.rfind("check "));
  size_t place = body.find("\nplace ");
  ASSERT_NE(place, std::string::npos);
  body.insert(place + 1, "layoutgen 7\n");

  Kernel kernel2;
  OmosServer restored(kernel2);
  ASSERT_OK(restored.Restore(WithCheck(body)));
  EXPECT_EQ(restored.Snapshot(), snapshot);
  ASSERT_OK_AND_ASSIGN(TaskId id, restored.IntegratedExec("/bin/prog", {"prog"}));
  ASSERT_OK(kernel2.RunTask(*kernel2.FindTask(id)));
  EXPECT_EQ(kernel2.FindTask(id)->exit_code(), 1);
}

// ---- Fleet-wide prelink ---------------------------------------------------------

TEST_F(ServerFeatures, PrelinkedExecHitIsCheaperThanIntegrated) {
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 7\n  ret\n", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/tool", "(merge /lib/crt0.o /obj/m.o)"));

  ASSERT_OK_AND_ASSIGN(int prelinked, server_->PrelinkNamespace("/bin"));
  EXPECT_EQ(prelinked, 1);

  // Warm integrated exec: pays the cache-lookup round trip.
  ASSERT_OK_AND_ASSIGN(TaskId warm, server_->IntegratedExec("/bin/tool", {"tool"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome warm_out, Run(warm));
  EXPECT_EQ(warm_out.exit_code, 7);
  uint64_t integrated_sys = kernel_.FindTask(warm)->sys_cycles();

  Counter* hits = MetricsRegistry::Global().GetCounter("prelink.hits");
  uint64_t hits_before = hits->value();
  ASSERT_OK_AND_ASSIGN(TaskId fast, server_->PrelinkedExec("/bin/tool", {"tool"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome fast_out, Run(fast));
  EXPECT_EQ(fast_out.exit_code, 7);
  EXPECT_EQ(hits->value(), hits_before + 1);
  // The hit bills only the prelink-table lookup, strictly less than the
  // integrated path's omos_cache_lookup.
  EXPECT_LT(kernel_.FindTask(fast)->sys_cycles(), integrated_sys);
}

TEST_F(ServerFeatures, PrelinkedExecMissFallsBackAndRecordsEntry) {
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 3\n  ret\n", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/tool", "(merge /lib/crt0.o /obj/m.o)"));

  Counter* misses = MetricsRegistry::Global().GetCounter("prelink.misses");
  Counter* hits = MetricsRegistry::Global().GetCounter("prelink.hits");
  uint64_t misses_before = misses->value();
  // No PrelinkNamespace ran: the first exec misses the table, falls back to
  // a full Instantiate, and records an entry on the way out.
  ASSERT_OK_AND_ASSIGN(TaskId first, server_->PrelinkedExec("/bin/tool", {"tool"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome first_out, Run(first));
  EXPECT_EQ(first_out.exit_code, 3);
  EXPECT_EQ(misses->value(), misses_before + 1);

  uint64_t hits_before = hits->value();
  ASSERT_OK_AND_ASSIGN(TaskId second, server_->PrelinkedExec("/bin/tool", {"tool"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome second_out, Run(second));
  EXPECT_EQ(second_out.exit_code, 3);
  EXPECT_EQ(hits->value(), hits_before + 1);
}

TEST_F(ServerFeatures, PrelinkStaleAfterFragmentRedefineRecovers) {
  ASSERT_OK_AND_ASSIGN(ObjectFile v1,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 10\n  ret\n", "f.o"));
  ASSERT_OK(server_->AddFragment("/obj/f.o", std::move(v1)));
  ASSERT_OK(server_->DefineMeta("/bin/frag", "(merge /lib/crt0.o /obj/f.o)"));
  ASSERT_OK(server_->PrelinkNamespace("/bin"));
  ASSERT_OK_AND_ASSIGN(TaskId warm, server_->PrelinkedExec("/bin/frag", {"frag"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome warm_out, Run(warm));
  EXPECT_EQ(warm_out.exit_code, 10);

  // Redefining the fragment invalidates the cached image behind the prelink
  // entry: the next prelinked exec must NOT serve the stale version.
  ASSERT_OK_AND_ASSIGN(ObjectFile v2,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 20\n  ret\n", "f.o"));
  ASSERT_OK(server_->AddFragment("/obj/f.o", std::move(v2)));
  Counter* stale = MetricsRegistry::Global().GetCounter("prelink.stale");
  uint64_t stale_before = stale->value();
  ASSERT_OK_AND_ASSIGN(TaskId rebuilt, server_->PrelinkedExec("/bin/frag", {"frag"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome rebuilt_out, Run(rebuilt));
  EXPECT_EQ(rebuilt_out.exit_code, 20);
  EXPECT_EQ(stale->value(), stale_before + 1);

  // The fallback cached the new image and queued a background repair; after
  // the idle lane drains, the path hits again.
  server_->DrainBackgroundWork();
  Counter* hits = MetricsRegistry::Global().GetCounter("prelink.hits");
  uint64_t hits_before = hits->value();
  ASSERT_OK_AND_ASSIGN(TaskId again, server_->PrelinkedExec("/bin/frag", {"frag"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome again_out, Run(again));
  EXPECT_EQ(again_out.exit_code, 20);
  EXPECT_EQ(hits->value(), hits_before + 1);
}

TEST_F(ServerFeatures, PlacementCollisionSweepTriggersRepairAndRecovers) {
  // A prelinked program linked against a constrained library, then a seeded
  // sweep of colliding libraries whose hints all contest the same range:
  // every collision schedules the recorded re-solve + re-link repair, and
  // after each idle-lane drain the prelinked exec still hits and still
  // produces the right answer.
  ASSERT_OK_AND_ASSIGN(ObjectFile lib, Assemble(R"(
.text
.global lib_fn
lib_fn:
  movi r0, 42
  ret
)", "lib.o"));
  ASSERT_OK(server_->AddFragment("/obj/lib.o", std::move(lib)));
  ASSERT_OK(server_->DefineLibrary("/lib/base",
                                   "(constraint-list \"T\" 0x3000000)\n(merge /obj/lib.o)"));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  push lr
  call lib_fn
  pop lr
  ret
)", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/tool", "(merge /lib/crt0.o /obj/m.o /lib/base)"));
  ASSERT_OK(server_->PrelinkNamespace("/bin"));

  Counter* repairs = MetricsRegistry::Global().GetCounter("prelink.repairs");
  Counter* hits = MetricsRegistry::Global().GetCounter("prelink.hits");
  uint64_t repairs_before = repairs->value();
  for (int round = 0; round < 3; ++round) {
    // Each rival hints the exact text base the prelinked program's library
    // occupies — a guaranteed placement collision.
    ASSERT_OK_AND_ASSIGN(ObjectFile rival,
                         Assemble(StrCat(".text\n.global rival", round, "\nrival", round,
                                         ": ret\n"),
                                  StrCat("rival", round, ".o")));
    std::string obj_path = StrCat("/obj/rival", round, ".o");
    std::string lib_path = StrCat("/lib/rival", round);
    ASSERT_OK(server_->AddFragment(obj_path, std::move(rival)));
    ASSERT_OK(server_->DefineLibrary(
        lib_path, StrCat("(constraint-list \"T\" 0x3000000)\n(merge ", obj_path, ")")));
    Specialization spec{"collide", {}};
    ASSERT_OK(server_->Instantiate(lib_path, spec, nullptr));

    server_->DrainBackgroundWork();
    uint64_t hits_before = hits->value();
    ASSERT_OK_AND_ASSIGN(TaskId id, server_->PrelinkedExec("/bin/tool", {"tool"}));
    ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
    EXPECT_EQ(out.exit_code, 42) << "round " << round;
    EXPECT_EQ(hits->value(), hits_before + 1) << "round " << round;
  }
  EXPECT_GE(repairs->value(), repairs_before + 1);

  // The administrative re-pack moves live placements wholesale and then
  // immediately re-links the prelinked paths against the new layout — the
  // next exec hits and the warm path stays relocation-free.
  (void)server_->OptimizePlacements();
  Counter* at_map = MetricsRegistry::Global().GetCounter("link.relocations_at_map");
  uint64_t at_map_before = at_map->value();
  uint64_t hits_before = hits->value();
  ASSERT_OK_AND_ASSIGN(TaskId final_id, server_->PrelinkedExec("/bin/tool", {"tool"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome final_out, Run(final_id));
  EXPECT_EQ(final_out.exit_code, 42);
  EXPECT_EQ(hits->value(), hits_before + 1);
  EXPECT_EQ(at_map->value(), at_map_before);  // zero relocations at map time
}


// ---- Exact invalidation from recorded inputs ---------------------------------

// answer() returning `value`, as a fragment named v.o.
Result<ObjectFile> AnswerObject(int value) {
  return Assemble(StrCat(".text\n.global answer\nanswer:\n  movi r0, ", value, "\n  ret\n"),
                  "v.o");
}

// main: exit(answer()).
constexpr char kCallAnswer[] = R"(
.text
.global main
main:
  push lr
  call answer
  pop lr
  ret
)";

// main: load the class (merge /obj/p.o) through sys OmosLoad and exit with
// what its entry `pf` returns. `extra` is spliced in after main's code.
std::string LoadAndCallMain(std::string_view extra) {
  return StrCat(R"asm(
.text
.global main
main:
  push lr
  lea r0, blueprint
  lea r1, wanted
  sys )asm", kSysOmosLoad, R"asm(
  movi r1, 0
  beq r0, r1, fail
  callr r0
  pop lr
  ret
fail:
  movi r0, 255
  pop lr
  ret
)asm", extra, R"asm(
.data
blueprint: .asciiz "(merge /obj/p.o)"
wanted: .asciiz "pf"
)asm");
}

TEST_F(ServerFeatures, RedefiningArchiveMemberBehindLibraryReachesClient) {
  // /bin/q links /lib/ans, which merges the archive meta /libx, which merges
  // /libx/v.o: the member is two blueprint hops away from the client.
  ASSERT_OK_AND_ASSIGN(ObjectFile v1, AnswerObject(1));
  ASSERT_OK(server_->AddFragment("/libx/v.o", std::move(v1)));
  ASSERT_OK(server_->DefineMeta("/libx", "(merge /libx/v.o)"));
  ASSERT_OK(server_->DefineLibrary("/lib/ans", "(merge /libx)"));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(kCallAnswer, "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/q", "(merge /lib/crt0.o /obj/m.o /lib/ans)"));
  ASSERT_OK_AND_ASSIGN(TaskId id1, server_->IntegratedExec("/bin/q", {"q"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out1, Run(id1));
  EXPECT_EQ(out1.exit_code, 1);

  ASSERT_OK_AND_ASSIGN(ObjectFile v2, AnswerObject(2));
  ASSERT_OK(server_->AddFragment("/libx/v.o", std::move(v2)));
  ASSERT_OK_AND_ASSIGN(TaskId id2, server_->IntegratedExec("/bin/q", {"q"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out2, Run(id2));
  EXPECT_EQ(out2.exit_code, 2);
}

TEST_F(ServerFeatures, ReplacingArchiveInvalidatesClients) {
  Archive v1("libx");
  ASSERT_OK_AND_ASSIGN(ObjectFile answer1, AnswerObject(1));
  v1.Add(std::move(answer1));
  ASSERT_OK(server_->AddArchive("/libx", v1));
  ASSERT_OK(server_->DefineLibrary("/lib/ans", "(merge /libx)"));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(kCallAnswer, "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/q", "(merge /lib/crt0.o /obj/m.o /lib/ans)"));
  ASSERT_OK_AND_ASSIGN(TaskId id1, server_->IntegratedExec("/bin/q", {"q"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out1, Run(id1));
  EXPECT_EQ(out1.exit_code, 1);

  Archive v2("libx");
  ASSERT_OK_AND_ASSIGN(ObjectFile answer2, AnswerObject(2));
  v2.Add(std::move(answer2));
  ASSERT_OK(server_->AddArchive("/libx", v2));
  ASSERT_OK_AND_ASSIGN(TaskId id2, server_->IntegratedExec("/bin/q", {"q"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out2, Run(id2));
  EXPECT_EQ(out2.exit_code, 2);
}

TEST_F(ServerFeatures, RedefiningPathLeavesProgramsThatNeverReadItCached) {
  // "/lib/c" is a prefix of "/lib/crt0.o", which /bin/p reads; /bin/p never
  // reads /lib/c itself, so redefining /lib/c must not rebuild it.
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj,
                       Assemble(".text\n.global main\nmain:\n  movi r0, 4\n  ret\n", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/p", "(merge /lib/crt0.o /obj/m.o)"));
  ASSERT_OK_AND_ASSIGN(ObjectFile c_obj, AnswerObject(3));
  ASSERT_OK(server_->AddFragment("/obj/c.o", std::move(c_obj)));
  ASSERT_OK(server_->Instantiate("/bin/p", {}, nullptr));
  uint64_t misses = server_->cache_stats().misses;

  ASSERT_OK(server_->DefineLibrary("/lib/c", "(merge /obj/c.o)"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/p", {"p"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  EXPECT_EQ(out.exit_code, 4);
  EXPECT_EQ(server_->cache_stats().misses, misses);
}

TEST_F(ServerFeatures, DynamicLoadServesRedefinedFragment) {
  ASSERT_OK_AND_ASSIGN(ObjectFile p1,
                       Assemble(".text\n.global pf\npf:\n  movi r0, 7\n  ret\n", "p.o"));
  ASSERT_OK(server_->AddFragment("/obj/p.o", std::move(p1)));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(LoadAndCallMain(""), "main.o"));
  ASSERT_OK(server_->AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/host", "(merge /lib/crt0.o /obj/main.o)"));
  ASSERT_OK_AND_ASSIGN(TaskId id1, server_->IntegratedExec("/bin/host", {"host"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out1, Run(id1));
  EXPECT_EQ(out1.exit_code, 7);

  ASSERT_OK_AND_ASSIGN(ObjectFile p2,
                       Assemble(".text\n.global pf\npf:\n  movi r0, 8\n  ret\n", "p.o"));
  ASSERT_OK(server_->AddFragment("/obj/p.o", std::move(p2)));
  ASSERT_OK_AND_ASSIGN(TaskId id2, server_->IntegratedExec("/bin/host", {"host"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out2, Run(id2));
  EXPECT_EQ(out2.exit_code, 8);
}

TEST_F(ServerFeatures, DynamicLoadBindsEachProgramsOwnSymbols) {
  // The class calls back into its client's answer(). The two programs are
  // placed at different addresses, so a class still bound to /bin/a's
  // answer() would call into nothing when loaded into /bin/b.
  ASSERT_OK_AND_ASSIGN(ObjectFile plugin, Assemble(R"(
.text
.global pf
pf:
  push lr
  call answer
  pop lr
  ret
)", "p.o"));
  ASSERT_OK(server_->AddFragment("/obj/p.o", std::move(plugin)));
  constexpr char kAnswer[] = ".global answer\nanswer:\n  movi r0, 1\n  ret\n";
  ASSERT_OK_AND_ASSIGN(ObjectFile a_obj, Assemble(LoadAndCallMain(kAnswer), "a.o"));
  ASSERT_OK_AND_ASSIGN(ObjectFile b_obj, Assemble(LoadAndCallMain(kAnswer), "b.o"));
  ASSERT_OK(server_->AddFragment("/obj/a.o", std::move(a_obj)));
  ASSERT_OK(server_->AddFragment("/obj/b.o", std::move(b_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/a", "(merge /lib/crt0.o /obj/a.o)"));
  ASSERT_OK(server_->DefineMeta("/bin/b", "(merge /lib/crt0.o /obj/b.o)"));
  for (const char* program : {"/bin/a", "/bin/b"}) {
    ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec(program, {program}));
    ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
    EXPECT_EQ(out.exit_code, 1) << program;
  }
}

// /bin/h loads the class (merge /obj/p.o), whose pf() calls the host's
// answer(). Version 1 of /obj/h.o answers 1; version 2 answers 2 and puts a
// five-instruction function in front of answer(), so its answer() is at an
// address that holds other code in version 1.
Result<void> DefineCallbackHost(OmosServer& server, int version) {
  constexpr char kPad[] = "pad:\n  movi r0, 0\n  movi r0, 0\n  movi r0, 0\n  movi r0, 0\n  ret\n";
  std::string answer = StrCat(version == 1 ? "" : kPad, ".global answer\nanswer:\n  movi r0, ",
                              version, "\n  ret\n");
  OMOS_TRY(ObjectFile host, Assemble(LoadAndCallMain(answer), "h.o"));
  OMOS_TRY_VOID(server.AddFragment("/obj/h.o", std::move(host)));
  if (version == 1) {
    OMOS_TRY(ObjectFile plugin,
             Assemble(".text\n.global pf\npf:\n  push lr\n  call answer\n  pop lr\n  ret\n",
                      "p.o"));
    OMOS_TRY_VOID(server.AddFragment("/obj/p.o", std::move(plugin)));
    OMOS_TRY_VOID(server.DefineMeta("/bin/h", "(merge /lib/crt0.o /obj/h.o)"));
  }
  return OkResult();
}

TEST_F(ServerFeatures, DynamicLoadBindsTheVersionTheTaskMapsAfterANewerRan) {
  ASSERT_OK(DefineCallbackHost(*server_, 1));
  ASSERT_OK_AND_ASSIGN(TaskId old_id, server_->IntegratedExec("/bin/h", {"h"}));
  ASSERT_OK(DefineCallbackHost(*server_, 2));
  ASSERT_OK_AND_ASSIGN(TaskId new_id, server_->IntegratedExec("/bin/h", {"h"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome fresh, Run(new_id));
  EXPECT_EQ(fresh.exit_code, 2);
  // The class the version-2 task loaded is bound to version 2's answer();
  // the old task gets its own, bound to the version it maps.
  ASSERT_OK_AND_ASSIGN(RunOutcome old, Run(old_id));
  EXPECT_EQ(old.exit_code, 1);
}

TEST_F(ServerFeatures, DynamicLoadBindsTheVersionTheTaskMapsBeforeANewerRuns) {
  ASSERT_OK(DefineCallbackHost(*server_, 1));
  ASSERT_OK_AND_ASSIGN(TaskId old_id, server_->IntegratedExec("/bin/h", {"h"}));
  ASSERT_OK(DefineCallbackHost(*server_, 2));
  // Version 1's placement was released with its image: the class loads and
  // binds anyway, against the image the task maps.
  ASSERT_OK_AND_ASSIGN(RunOutcome old, Run(old_id));
  EXPECT_EQ(old.exit_code, 1);
  ASSERT_OK_AND_ASSIGN(TaskId new_id, server_->IntegratedExec("/bin/h", {"h"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome fresh, Run(new_id));
  EXPECT_EQ(fresh.exit_code, 2);
}

// ---- Duplicate library exports -----------------------------------------------
//
// /lib/one and /lib/two both export answer() (returning 1 and 2): a client
// binds the name to the library its blueprint lists first.

Result<void> DefineTwoAnswerLibraries(OmosServer& server) {
  OMOS_TRY(ObjectFile one, AnswerObject(1));
  OMOS_TRY(ObjectFile two, AnswerObject(2));
  OMOS_TRY_VOID(server.AddFragment("/obj/one.o", std::move(one)));
  OMOS_TRY_VOID(server.AddFragment("/obj/two.o", std::move(two)));
  OMOS_TRY_VOID(
      server.DefineLibrary("/lib/one", "(constraint-list \"T\" 0x2000000)\n(merge /obj/one.o)"));
  return server.DefineLibrary("/lib/two",
                              "(constraint-list \"T\" 0x2100000)\n(merge /obj/two.o)");
}

TEST_F(ServerFeatures, DuplicateLibraryExportBindsToFirstListed) {
  ASSERT_OK(DefineTwoAnswerLibraries(*server_));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(kCallAnswer, "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/one_first", "(merge /lib/crt0.o /obj/m.o /lib/one /lib/two)"));
  ASSERT_OK(server_->DefineMeta("/bin/two_first", "(merge /lib/crt0.o /obj/m.o /lib/two /lib/one)"));
  for (auto [program, want] : {std::pair{"/bin/one_first", 1}, std::pair{"/bin/two_first", 2}}) {
    ASSERT_OK(server_->Instantiate(program, {}, nullptr));
    ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec(program, {program}));
    ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
    EXPECT_EQ(out.exit_code, want) << program;
  }
}

TEST_F(ServerFeatures, DynamicLoadBindsThroughFirstListedLibrary) {
  // The loaded class calls the host's relay(), which calls answer(): the
  // class binds to the host image, and the host to its first library.
  ASSERT_OK(DefineTwoAnswerLibraries(*server_));
  ASSERT_OK_AND_ASSIGN(ObjectFile plugin, Assemble(R"(
.text
.global pf
pf:
  push lr
  call relay
  pop lr
  ret
)", "p.o"));
  ASSERT_OK(server_->AddFragment("/obj/p.o", std::move(plugin)));
  constexpr char kRelay[] = ".global relay\nrelay:\n  push lr\n  call answer\n  pop lr\n  ret\n";
  ASSERT_OK_AND_ASSIGN(ObjectFile host_obj, Assemble(LoadAndCallMain(kRelay), "h.o"));
  ASSERT_OK(server_->AddFragment("/obj/h.o", std::move(host_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/one_first", "(merge /lib/crt0.o /obj/h.o /lib/one /lib/two)"));
  ASSERT_OK(server_->DefineMeta("/bin/two_first", "(merge /lib/crt0.o /obj/h.o /lib/two /lib/one)"));
  for (auto [program, want] : {std::pair{"/bin/one_first", 1}, std::pair{"/bin/two_first", 2}}) {
    // Through the server call, then through the program's own sys OmosLoad.
    ASSERT_OK_AND_ASSIGN(TaskId probe, server_->IntegratedExec(program, {program}));
    Task* task = kernel_.FindTask(probe);
    ASSERT_NE(task, nullptr);
    ASSERT_OK_AND_ASSIGN(auto loaded, server_->DynamicLoad(*task, "(merge /obj/p.o)", {"pf"}));
    ASSERT_EQ(loaded.symbol_values.size(), 1u);
    EXPECT_NE(loaded.symbol_values[0], 0u);
    ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec(program, {program}));
    ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
    EXPECT_EQ(out.exit_code, want) << program;
  }
}


// ---- Routine orders --------------------------------------------------------------

// Defines /bin/prog, which exits with answer() from /obj/v.o, and records
// its routine order from one monitored run. `unordered` receives the layout
// of the default image before the order was recorded.
void DefineProfiledProgram(OmosServer& server, Kernel& kernel, int value,
                           TextLayout* unordered = nullptr) {
  ASSERT_OK_AND_ASSIGN(ObjectFile v, AnswerObject(value));
  ASSERT_OK(server.AddFragment("/obj/v.o", std::move(v)));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(kCallAnswer, "main.o"));
  ASSERT_OK(server.AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server.DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/main.o /obj/v.o)"));
  if (unordered != nullptr) {
    *unordered = ServedLayout(server);
  }
  ASSERT_OK_AND_ASSIGN(TaskId id,
                       server.IntegratedExec("/bin/prog", {"prog"}, Specialization{"monitor", {}}));
  ASSERT_OK(kernel.RunTask(*kernel.FindTask(id)));
  ASSERT_OK(server.DerivePreferredOrder("/bin/prog"));
}

TEST_F(ServerFeatures, RedefinitionReachesReorderTwin) {
  TextLayout unordered;
  DefineProfiledProgram(*server_, kernel_, 5, &unordered);
  // The first default exec after the derive maps the reordered layout: the
  // order is an input of the default build.
  TextLayout reordered = ServedLayout(*server_, Specialization{"reorder", {}});
  ASSERT_NE(reordered, unordered);
  ASSERT_OK_AND_ASSIGN(TaskId cold, server_->IntegratedExec("/bin/prog", {"prog"}));
  EXPECT_EQ(ExecLayout(*server_, cold), reordered);
  ASSERT_OK_AND_ASSIGN(RunOutcome cold_out, Run(cold));
  EXPECT_EQ(cold_out.exit_code, 5);

  // A redefinition evicts the reordered image: the next default exec runs
  // the new code, still laid out by the recorded order.
  ASSERT_OK_AND_ASSIGN(ObjectFile v2, AnswerObject(6));
  ASSERT_OK(server_->AddFragment("/obj/v.o", std::move(v2)));
  ASSERT_OK_AND_ASSIGN(TaskId fresh, server_->IntegratedExec("/bin/prog", {"prog"}));
  EXPECT_EQ(ExecLayout(*server_, fresh), reordered);
  ASSERT_OK_AND_ASSIGN(RunOutcome fresh_out, Run(fresh));
  EXPECT_EQ(fresh_out.exit_code, 6);
  EXPECT_EQ(ServedLayout(*server_, Specialization{"reorder", {}}), reordered);
}

TEST_F(ServerFeatures, RestoredOrderEarnsReorderTwin) {
  TextLayout unordered;
  DefineProfiledProgram(*server_, kernel_, 5, &unordered);
  Kernel kernel2;
  OmosServer restored(kernel2);
  ASSERT_OK(restored.Restore(server_->Snapshot()));

  // The restored order is enough: the first default exec maps the
  // reordered layout.
  ASSERT_OK_AND_ASSIGN(TaskId id, restored.IntegratedExec("/bin/prog", {"prog"}));
  TextLayout mapped = ExecLayout(restored, id);
  EXPECT_EQ(mapped, ServedLayout(restored, Specialization{"reorder", {}}));
  EXPECT_NE(mapped, unordered);
  ASSERT_OK(kernel2.RunTask(*kernel2.FindTask(id)));
  EXPECT_EQ(kernel2.FindTask(id)->exit_code(), 5);
}

TEST_F(ServerFeatures, DerivedOrderRelinksAPrelinkedPathAtIdle) {
  // The derive evicts the prelinked image and queues the idle-lane relink,
  // which rebuilds it under the order: the next prelinked exec is a hit on
  // the reordered layout.
  ASSERT_OK_AND_ASSIGN(ObjectFile v, AnswerObject(5));
  ASSERT_OK(server_->AddFragment("/obj/v.o", std::move(v)));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(kCallAnswer, "main.o"));
  ASSERT_OK(server_->AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/main.o /obj/v.o)"));
  ASSERT_OK_AND_ASSIGN(int recorded, server_->PrelinkNamespace("/bin"));
  ASSERT_EQ(recorded, 1);
  TextLayout unordered = ServedLayout(*server_);
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/prog", {"prog"},
                                                          Specialization{"monitor", {}}));
  ASSERT_OK(Run(id));
  ASSERT_OK(server_->DerivePreferredOrder("/bin/prog"));
  server_->DrainBackgroundWork();

  Counter* hits = MetricsRegistry::Global().GetCounter("prelink.hits");
  uint64_t hits_before = hits->value();
  ASSERT_OK_AND_ASSIGN(TaskId fast, server_->PrelinkedExec("/bin/prog", {"prog"}));
  EXPECT_EQ(hits->value(), hits_before + 1);
  TextLayout mapped = ExecLayout(*server_, fast);
  EXPECT_EQ(mapped, ServedLayout(*server_, Specialization{"reorder", {}}));
  EXPECT_NE(mapped, unordered);
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(fast));
  EXPECT_EQ(out.exit_code, 5);
}

// main: with one argument, call f_a twice and f_b once; with more, the
// other way round. f_a and f_b live in fragments of their own, so which is
// hotter decides the layout.
constexpr char kArgcMain[] = R"(
.text
.global main
main:
  push lr
  movi r1, 1
  bne r0, r1, b_first
  call f_a
  call f_a
  call f_b
  br done
b_first:
  call f_b
  call f_b
  call f_a
done:
  pop lr
  movi r0, 0
  ret
)";

// Defines /bin/prog: crt0, kArgcMain, then f_a's and f_b's fragments.
void DefineArgcProgram(OmosServer& server) {
  ASSERT_OK_AND_ASSIGN(ObjectFile a, Assemble(".text\n.global f_a\nf_a:\n  ret\n", "a.o"));
  ASSERT_OK_AND_ASSIGN(ObjectFile b, Assemble(".text\n.global f_b\nf_b:\n  ret\n", "b.o"));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(kArgcMain, "main.o"));
  ASSERT_OK(server.AddFragment("/obj/a.o", std::move(a)));
  ASSERT_OK(server.AddFragment("/obj/b.o", std::move(b)));
  ASSERT_OK(server.AddFragment("/obj/main.o", std::move(main_obj)));
  ASSERT_OK(server.DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/main.o /obj/a.o /obj/b.o)"));
}

// One monitored run of /bin/prog with `args`, then a derived order.
void ProfileRun(OmosServer& server, Kernel& kernel, std::vector<std::string> args) {
  ASSERT_OK_AND_ASSIGN(TaskId id, server.IntegratedExec("/bin/prog", std::move(args),
                                                        Specialization{"monitor", {}}));
  ASSERT_OK(kernel.RunTask(*kernel.FindTask(id)));
  ASSERT_OK(server.DerivePreferredOrder("/bin/prog"));
}

// The text bytes `server` serves for /bin/prog under `spec`.
std::vector<uint8_t> ServedText(OmosServer& server, const Specialization& spec) {
  ImageCache::ReadLease lease(server.cache());
  auto image = server.Instantiate("/bin/prog", spec, nullptr);
  EXPECT_TRUE(image.ok()) << image.error().ToString();
  return image.ok() ? (*image)->image.text : std::vector<uint8_t>();
}

TEST_F(ServerFeatures, ChangedOrderReachesTheServedImage) {
  DefineArgcProgram(*server_);
  ProfileRun(*server_, kernel_, {"prog"});
  const Specialization kSpecs[] = {Specialization{}, Specialization{"reorder", {}}};
  // Both specs must serve the bytes a fresh server builds from the same
  // namespace and order. It restores a snapshot taken after the serves, so
  // its images land at the same placements and differ only by layout.
  std::vector<uint8_t> last_reordered;
  auto expect_fresh_bytes = [&](const std::string& when) {
    std::vector<std::vector<uint8_t>> served;
    for (const Specialization& spec : kSpecs) {
      served.push_back(ServedText(*server_, spec));
    }
    Kernel kernel2;
    OmosServer fresh(kernel2);
    ASSERT_OK(fresh.Restore(server_->Snapshot()));
    for (size_t i = 0; i < served.size(); ++i) {
      EXPECT_TRUE(served[i] == ServedText(fresh, kSpecs[i]))
          << when << ", spec '" << kSpecs[i].name << "': served != want";
    }
    EXPECT_TRUE(served[1] != last_reordered) << when << ": the order did not change the layout";
    last_reordered = served[1];
  };
  expect_fresh_bytes("derived");

  // A restore whose only change is the reversed order row.
  std::string snapshot = server_->Snapshot();
  std::vector<std::string> order = RecordedOrder(snapshot);
  std::reverse(order.begin(), order.end());
  ASSERT_OK(server_->Restore(WithOrder(snapshot, "/bin/prog", order)));
  expect_fresh_bytes("restored reversed order");

  // A second derive after the counts changed: the restore evicted the
  // monitor image, so its rebuild starts the counts afresh.
  ProfileRun(*server_, kernel_, {"prog", "b"});
  expect_fresh_bytes("derived again");
}

TEST_F(ServerFeatures, OrderRedefinitionsRaceExecs) {
  // A writer alternates /bin/prog between two routine orders by restoring
  // snapshots that differ only in the order row, while three readers exec
  // the default spec. Each exec must map the layout of an order that was
  // current at some point during the exec.
  constexpr int kFlips = 20;
  DefineArgcProgram(*server_);
  // Both snapshots hold the namespace before anything was placed, so a
  // restore adopts no placement a rebuild in the race could collide with.
  std::string unplaced = server_->Snapshot();
  ProfileRun(*server_, kernel_, {"prog"});
  std::vector<std::string> order = RecordedOrder(server_->Snapshot());
  std::string order_a = WithOrder(unplaced, "/bin/prog", order);
  std::reverse(order.begin(), order.end());
  std::string order_b = WithOrder(unplaced, "/bin/prog", order);
  // Each reader releases and destroys its tasks while the others exec.
  auto exec_layout = [&]() -> TextLayout {
    auto id = server_->IntegratedExec("/bin/prog", {"prog"});
    EXPECT_TRUE(id.ok()) << id.error().ToString();
    if (!id.ok()) {
      return {};
    }
    TextLayout layout = ExecLayout(*server_, *id);
    server_->ReleaseTask(*id);
    kernel_.DestroyTask(*id);
    return layout;
  };
  // Each order's layout, as a fresh server given that snapshot builds it.
  auto fresh_layout = [](const std::string& snapshot) {
    Kernel kernel;
    OmosServer fresh(kernel);
    EXPECT_OK(fresh.Restore(snapshot));
    return ServedLayout(fresh);
  };
  TextLayout layout_a = fresh_layout(order_a);
  TextLayout layout_b = fresh_layout(order_b);
  ASSERT_NE(layout_a, layout_b);
  ASSERT_OK(server_->Restore(order_a));

  // Publish j (from 0) installs B when j is even and A when odd; before any,
  // A is current.
  auto layout_of = [&](int j) { return j >= 0 && j % 2 == 0 ? layout_b : layout_a; };
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::atomic<int> exec_count{0};
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::atomic<int> wrong{0};
  std::atomic<int> decisive{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int j = 0; j < kFlips; ++j) {
      // Let each reader exec about twice under the order just published.
      for (int seen = exec_count.load(); exec_count.load() < seen + 6;) {
        std::this_thread::yield();
      }
      started.fetch_add(1);
      if (!server_->Restore(j % 2 == 0 ? order_b : order_a).ok()) {
        errors.fetch_add(1);
      }
      finished.fetch_add(1);
    }
    done.store(true);
  });
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      for (bool last = false; !last;) {
        last = done.load();
        // Publishes before `before` finished before the exec began; none
        // from `after` on had started when it ended.
        int before = finished.load();
        TextLayout layout = exec_layout();
        int after = started.load();
        if (layout.empty()) {
          errors.fetch_add(1);
        } else if (after == before) {
          decisive.fetch_add(1);
          wrong.fetch_add(layout != layout_of(before - 1));
        } else {
          wrong.fetch_add(layout != layout_a && layout != layout_b);
        }
        exec_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(wrong.load(), 0) << "of " << exec_count.load() << " execs";
  EXPECT_GE(decisive.load(), kFlips);
}

TEST_F(ServerFeatures, RefusedRestoreAppliesNothing) {
  // A snapshot refused for one row leaves the server exactly as it was,
  // though the rows before it would redefine a program, define another and
  // adopt placements: the namespace, the placements, the prelinked paths
  // and the served images are all unchanged.
  DefineArgcProgram(*server_);
  ASSERT_OK_AND_ASSIGN(int prelinked, server_->PrelinkNamespace("/bin"));
  ASSERT_EQ(prelinked, 1);
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/prog", {"prog"}));
  ASSERT_OK(Run(id));
  const std::string known = server_->Snapshot();
  ASSERT_NE(known.find("\nplace "), std::string::npos);
  ASSERT_NE(known.find("\nprelink "), std::string::npos);
  auto served_images = [&] {
    std::map<std::string, const CachedImage*> images;
    for (const std::string& key : server_->cache().Keys()) {
      images[key] = server_->cache().Peek(key).get();
    }
    return images;
  };
  const auto served = served_images();
  ASSERT_FALSE(served.empty());

  // The known state with /bin/prog redefined and /bin/extra added.
  Kernel kernel2;
  OmosServer other(kernel2);
  ASSERT_OK(other.Restore(known));
  ASSERT_OK(other.DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/main.o /obj/b.o /obj/a.o)"));
  ASSERT_OK(other.DefineMeta("/bin/extra", "(merge /lib/crt0.o /obj/main.o)"));
  // The redefinition retired the adopted placement: the rebuild places anew.
  ASSERT_OK(other.Instantiate("/bin/prog", {}, nullptr));
  const std::string changed = other.Snapshot();

  // Its first place row again, for another object: the two rows clash.
  std::string body = changed.substr(0, changed.rfind("check "));
  size_t row = body.find("\nplace ") + 1;
  std::string place = body.substr(row, body.find('\n', row) + 1 - row);
  body.insert(row, place.substr(0, place.rfind(' ') + 1) + "/bin/clash\n");
  struct Refused {
    const char* row;
    std::string snapshot;
    ErrorCode code;
  };
  const Refused refused[] = {
      {"order for a fragment", WithOrder(changed, "/obj/a.o", {"f_a"}), ErrorCode::kNotFound},
      {"clashing place", WithCheck(body), ErrorCode::kConstraintConflict},
  };
  for (const Refused& r : refused) {
    SCOPED_TRACE(r.row);
    auto result = server_->Restore(r.snapshot);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), r.code);
    EXPECT_EQ(server_->Snapshot(), known);
    EXPECT_EQ(served_images(), served);
  }
  // The same rows without the bad one apply.
  ASSERT_OK(server_->Restore(changed));
  EXPECT_TRUE(server_->name_space().Exists("/bin/extra"));
}

TEST_F(ServerFeatures, ConflictWithoutPrelinkEntriesIsNotResolved) {
  ASSERT_OK_AND_ASSIGN(ObjectFile a, Assemble(".text\n.global fa\nfa: ret\n", "a.o"));
  ASSERT_OK_AND_ASSIGN(ObjectFile b, Assemble(".text\n.global fb\nfb: ret\n", "b.o"));
  ASSERT_OK(server_->AddFragment("/obj/a.o", std::move(a)));
  ASSERT_OK(server_->AddFragment("/obj/b.o", std::move(b)));
  ASSERT_OK(server_->DefineLibrary("/lib/a",
                                   "(constraint-list \"T\" 0x3000000)\n(merge /obj/a.o)"));
  ASSERT_OK(server_->DefineLibrary("/lib/b",
                                   "(constraint-list \"T\" 0x3000000)\n(merge /obj/b.o)"));
  Counter* resolves = MetricsRegistry::Global().GetCounter("solver.resolves");
  uint64_t resolves_before = resolves->value();
  Specialization spec{"lib-constrained", {}};
  ASSERT_OK(server_->Instantiate("/lib/a", spec, nullptr));
  ASSERT_OK(server_->Instantiate("/lib/b", spec, nullptr));
  ASSERT_EQ(server_->conflicts().size(), 1u);

  // No prelink entry would gain from a re-solve, so none is queued.
  server_->DrainBackgroundWork();
  EXPECT_EQ(server_->conflicts().size(), 1u);
  EXPECT_EQ(resolves->value(), resolves_before);
}

// ---- Evaluation memo coherence -------------------------------------------------
//
// A rebuild replays the memoized evaluation of every unchanged meta. The
// memo is valid only while each namespace entry it evaluated is still the
// one the namespace serves, and each library it mentioned keeps its
// interface (kind and default specialization), so every redefinition path
// below must reach the next exec.

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

// answer() returning `value`, with a marker symbol ver_<value>, as v.o.
Result<ObjectFile> VersionedAnswer(int value) {
  return Assemble(StrCat(".text\n.global answer\n.global ver_", value, "\nanswer:\nver_", value,
                         ":\n  movi r0, ", value, "\n  ret\n"),
                  "v.o");
}

// /libx: v.o (VersionedAnswer(value)) plus three fillers.
Result<Archive> AnswerArchive(int value) {
  Archive archive("libx");
  OMOS_TRY(ObjectFile answer, VersionedAnswer(value));
  archive.Add(std::move(answer));
  for (int i = 0; i < 3; ++i) {
    OMOS_TRY(ObjectFile filler,
             Assemble(StrCat(".text\n.global filler_", i, "\nfiller_", i, ":\n  ret\n"),
                      StrCat("f", i, ".o")));
    archive.Add(std::move(filler));
  }
  return archive;
}

constexpr char kAnswerLibrary[] = "(constraint-list \"T\" 0x2000000)\n(merge /libx)";

// The lib_update shape in miniature: /bin/q = crt0 + main calling answer()
// + library /lib/ans, by default a fixed-base library merging the archive
// meta /libx (`ans_blueprint` defines /lib/ans, a meta-object when it
// records no constraint-list or default specialization).
Result<void> DefineAnswerClient(OmosServer& server, int value,
                                std::string_view ans_blueprint = kAnswerLibrary) {
  OMOS_TRY(Archive archive, AnswerArchive(value));
  OMOS_TRY_VOID(server.AddArchive("/libx", archive));
  OMOS_TRY_VOID(server.DefineMeta("/lib/ans", ans_blueprint));
  OMOS_TRY(ObjectFile main_obj, Assemble(kCallAnswer, "m.o"));
  OMOS_TRY_VOID(server.AddFragment("/obj/m.o", std::move(main_obj)));
  return server.DefineMeta("/bin/q", "(merge /lib/crt0.o /obj/m.o /lib/ans)");
}

// The answer version the task's mapped images carry (its ver_<n> marker),
// or -1.
int VersionSeenBy(OmosServer& server, TaskId id) {
  auto symbols = server.SymbolsForTask(id);
  if (!symbols.ok()) {
    return -1;
  }
  for (const ImageSymbol& sym : *symbols) {
    if (StartsWith(sym.name, "ver_")) {
      return std::stoi(std::string(sym.name.substr(4)));
    }
  }
  return -1;
}

class EvalMemoTest : public ServerFeatures {
 protected:
  // Exec /bin/q; returns its exit code after checking the mapped version
  // agrees with it. The task is released, so no old version it mapped
  // keeps its placement past the exec.
  Result<int> ExecQ() {
    OMOS_TRY(TaskId id, server_->IntegratedExec("/bin/q", {"q"}));
    int seen = VersionSeenBy(*server_, id);
    OMOS_TRY(RunOutcome out, Run(id));
    EXPECT_EQ(seen, out.exit_code);
    server_->ReleaseTask(id);
    kernel_.DestroyTask(id);
    return out.exit_code;
  }
};

TEST_F(EvalMemoTest, LibraryRedefinitionHitsTheArchiveMemo) {
  ASSERT_OK(DefineAnswerClient(*server_, 1));
  ASSERT_OK_AND_ASSIGN(int first, ExecQ());
  EXPECT_EQ(first, 1);

  // A library fix that leaves its archive alone: /libx evaluates from the
  // memo, and so does /bin/q, which reads only the interface of /lib/ans (a
  // base move keeps it); /lib/ans itself does not.
  uint64_t hits = CounterValue("eval.memo_hits");
  uint64_t misses = CounterValue("eval.memo_misses");
  uint64_t merges = CounterValue("link.merges");
  ASSERT_OK(
      server_->DefineLibrary("/lib/ans", "(constraint-list \"T\" 0x2100000)\n(merge /libx)"));
  ASSERT_OK_AND_ASSIGN(int second, ExecQ());
  EXPECT_EQ(second, 1);
  EXPECT_EQ(CounterValue("eval.memo_hits") - hits, 2u);
  EXPECT_EQ(CounterValue("eval.memo_misses") - misses, 1u);
  EXPECT_LE(CounterValue("link.merges") - merges, 2u);
}

TEST_F(EvalMemoTest, ReplacedArchiveMemberReachesNextExec) {
  ASSERT_OK(DefineAnswerClient(*server_, 1));
  ASSERT_OK_AND_ASSIGN(int first, ExecQ());
  EXPECT_EQ(first, 1);
  ASSERT_OK_AND_ASSIGN(ObjectFile v2, VersionedAnswer(2));
  ASSERT_OK(server_->AddFragment("/libx/v.o", std::move(v2)));
  ASSERT_OK_AND_ASSIGN(int second, ExecQ());
  EXPECT_EQ(second, 2);
}

// The cached image of `path`, whatever its specialization, or null.
ImageRef CachedImageOf(OmosServer& server, std::string_view path) {
  for (const std::string& key : server.cache().Keys()) {
    std::string_view key_path = key;
    SplitCacheKey(key, &key_path, nullptr);
    if (key_path == path) {
      return server.cache().Peek(key);
    }
  }
  return nullptr;
}

// The library's and the client's published images: key, bases, entry,
// bytes and symbols.
std::vector<std::string> AnswerImages(OmosServer& server) {
  ImageCache::ReadLease lease(server.cache());
  std::vector<std::string> images;
  for (const char* path : {"/lib/ans", "/bin/q"}) {
    Specialization spec;
    if (std::string_view(path) == "/lib/ans") {
      spec.name = "lib-constrained";
    }
    auto image = server.Instantiate(path, spec, nullptr);
    EXPECT_OK(image);
    if (image.ok()) {
      const LinkedImage& linked = (*image)->image;
      std::string out = StrCat((*image)->key, " text ", Hex32(linked.text_base), " data ",
                               Hex32(linked.data_base), " entry ", Hex32(linked.entry), " bytes ",
                               Fnv1aBytes(linked.text.data(), linked.text.size()), " ",
                               Fnv1aBytes(linked.data.data(), linked.data.size()));
      for (const ImageSymbol& sym : linked.symbols) {
        out += StrCat(" ", sym.name, "@", Hex32(sym.addr));
      }
      images.push_back(std::move(out));
    }
  }
  return images;
}

TEST_F(EvalMemoTest, LibraryFixPlansOnlyTheClient) {
  ASSERT_OK(DefineAnswerClient(*server_, 1));
  ASSERT_OK_AND_ASSIGN(int first, ExecQ());
  EXPECT_EQ(first, 1);

  // The lib_update shape: the library moves to a new fixed base over an
  // unchanged archive. Its symbol space is the archive memo's, so its
  // relink applies the plan that space keeps; the client's evaluation is a
  // memo hit (the move keeps the library's interface), so its relink
  // applies the plan its memoized space keeps. Nothing is planned.
  uint64_t plans = CounterValue("link.plans");
  ASSERT_OK(
      server_->DefineLibrary("/lib/ans", "(constraint-list \"T\" 0x2100000)\n(merge /libx)"));
  ASSERT_OK_AND_ASSIGN(int second, ExecQ());
  EXPECT_EQ(second, 1);
  EXPECT_EQ(CounterValue("link.plans") - plans, 0u);
}

TEST_F(EvalMemoTest, ReplacedArchiveMemberPlansTheLibraryAgain) {
  ASSERT_OK(DefineAnswerClient(*server_, 1));
  ASSERT_OK_AND_ASSIGN(int first, ExecQ());
  EXPECT_EQ(first, 1);

  // A new member is a new module, so the library is planned afresh. The
  // client is relinked against the rebuilt library, but its evaluation is a
  // memo hit (it reads /lib/ans, not /libx), so it applies the plan its
  // memoized space keeps. A weak reference: holding the old client would
  // hold its placement and the library's, so the rebuild could not land
  // where a cold server puts it.
  std::weak_ptr<const CachedImage> client = CachedImageOf(*server_, "/bin/q");
  ASSERT_NE(client.lock(), nullptr);
  uint64_t plans = CounterValue("link.plans");
  ASSERT_OK_AND_ASSIGN(ObjectFile v2, VersionedAnswer(2));
  ASSERT_OK(server_->AddFragment("/libx/v.o", std::move(v2)));
  ASSERT_OK_AND_ASSIGN(int second, ExecQ());
  EXPECT_EQ(second, 2);
  EXPECT_EQ(CounterValue("link.plans") - plans, 1u);
  EXPECT_NE(CachedImageOf(*server_, "/bin/q"), client.lock());

  // Both link what a server that only ever saw the new member builds cold.

  Kernel cold_kernel;
  OmosServer cold(cold_kernel);
  ASSERT_OK(AddCrt0(cold));
  ASSERT_OK(DefineAnswerClient(cold, 2));
  ASSERT_OK_AND_ASSIGN(TaskId id, cold.IntegratedExec("/bin/q", {"q"}));
  EXPECT_EQ(VersionSeenBy(cold, id), 2);
  EXPECT_EQ(AnswerImages(*server_), AnswerImages(cold));
}

TEST_F(EvalMemoTest, ReplacedArchiveReachesNextExec) {
  ASSERT_OK(DefineAnswerClient(*server_, 1));
  ASSERT_OK_AND_ASSIGN(int first, ExecQ());
  EXPECT_EQ(first, 1);
  ASSERT_OK_AND_ASSIGN(Archive v2, AnswerArchive(2));
  ASSERT_OK(server_->AddArchive("/libx", v2));
  ASSERT_OK_AND_ASSIGN(int second, ExecQ());
  EXPECT_EQ(second, 2);
}

TEST_F(EvalMemoTest, RedefinitionTwoLevelsBelowReachesNextExec) {
  // /bin/top merges /mid, a view over /low, which merges one answer
  // object: /low is two metas below the program being built.
  ASSERT_OK_AND_ASSIGN(ObjectFile v1, VersionedAnswer(1));
  ASSERT_OK_AND_ASSIGN(ObjectFile v2, VersionedAnswer(2));
  ASSERT_OK(server_->AddFragment("/obj/v1.o", std::move(v1)));
  ASSERT_OK(server_->AddFragment("/obj/v2.o", std::move(v2)));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(kCallAnswer, "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/low", "(merge /obj/v1.o)"));
  ASSERT_OK(server_->DefineMeta("/mid", "(hide \"^ver_\" (merge /low))"));
  ASSERT_OK(server_->DefineMeta("/bin/top", "(merge /lib/crt0.o /obj/m.o /mid)"));
  ASSERT_OK_AND_ASSIGN(TaskId id1, server_->IntegratedExec("/bin/top", {"top"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out1, Run(id1));
  EXPECT_EQ(out1.exit_code, 1);

  ASSERT_OK(server_->DefineMeta("/low", "(merge /obj/v2.o)"));
  ASSERT_OK_AND_ASSIGN(TaskId id2, server_->IntegratedExec("/bin/top", {"top"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out2, Run(id2));
  EXPECT_EQ(out2.exit_code, 2);
}

TEST_F(EvalMemoTest, RestoreOverServedStateReachesNextExec) {
  ASSERT_OK(DefineAnswerClient(*server_, 1));
  std::string at_v1 = server_->Snapshot();
  ASSERT_OK_AND_ASSIGN(ObjectFile v2, VersionedAnswer(2));
  ASSERT_OK(server_->AddFragment("/libx/v.o", std::move(v2)));
  ASSERT_OK_AND_ASSIGN(int before, ExecQ());
  EXPECT_EQ(before, 2);

  // Restore republishes every entry (v.o back at version 1). Restore
  // leaves the image cache alone, so drop it; the rebuild must not replay
  // the evaluations of the replaced entries.
  for (const std::string& key : server_->cache().Keys()) {
    server_->cache().Evict(key);
  }
  ASSERT_OK(server_->Restore(at_v1));
  ASSERT_OK_AND_ASSIGN(int after, ExecQ());
  EXPECT_EQ(after, 1);
}

TEST_F(EvalMemoTest, RestoreEvictsServedImages) {
  ASSERT_OK(DefineAnswerClient(*server_, 1));
  std::string at_v1 = server_->Snapshot();
  ASSERT_OK_AND_ASSIGN(ObjectFile v2, VersionedAnswer(2));
  ASSERT_OK(server_->AddFragment("/libx/v.o", std::move(v2)));
  ASSERT_OK_AND_ASSIGN(int before, ExecQ());
  EXPECT_EQ(before, 2);

  // Restoring the version-1 snapshot puts v.o back at version 1; the
  // images built from version 2 must not be served again.
  ASSERT_OK(server_->Restore(at_v1));
  ASSERT_OK_AND_ASSIGN(int after, ExecQ());
  EXPECT_EQ(after, 1);
}

TEST_F(EvalMemoTest, StoreReopenReachesNextExec) {
  SimFs disk;
  {
    ImageStore store(disk, "/omos/store");
    ASSERT_OK(store.Open());
    ASSERT_OK(DefineAnswerClient(*server_, 1));
    ASSERT_OK(server_->PersistTo(store));  // snapshot at version 1, no images
  }
  ImageStore store(disk, "/omos/store");
  ASSERT_OK(store.Open());
  server_->AttachStore(&store);
  ASSERT_OK_AND_ASSIGN(ObjectFile v2, VersionedAnswer(2));
  ASSERT_OK(server_->AddFragment("/libx/v.o", std::move(v2)));
  ASSERT_OK_AND_ASSIGN(int before, ExecQ());
  EXPECT_EQ(before, 2);

  // Reopen the store and restore its version-1 snapshot into this server.
  // The store holds no version-1 image, so the exec rebuilds.
  server_->AttachStore(nullptr);
  for (const std::string& key : server_->cache().Keys()) {
    server_->cache().Evict(key);
  }
  ImageStore reopened(disk, "/omos/store");
  ASSERT_OK(reopened.Open());
  ASSERT_OK(server_->RestoreFromStore(reopened));
  ASSERT_OK_AND_ASSIGN(int after, ExecQ());
  EXPECT_EQ(after, 1);
  server_->AttachStore(nullptr);
}

TEST_F(EvalMemoTest, HitReplaysEvaluationWorkAndInputs) {
  // /gen assembles source, so its evaluation bills work; /lib/g merges it.
  ASSERT_OK(server_->DefineMeta(
      "/gen", "(merge (source \"asm\" \".text\\n.global answer\\nanswer:\\n  movi r0, 5\\n  ret\\n\"))"));
  ASSERT_OK(server_->DefineLibrary("/lib/g", "(constraint-list \"T\" 0x2000000)\n(merge /gen)"));
  Specialization spec{"lib-constrained", {}};
  uint64_t cold_work = 0;
  ASSERT_OK_AND_ASSIGN(const CachedImage* cold, server_->Instantiate("/lib/g", spec, &cold_work));
  std::vector<std::string> cold_inputs = cold->inputs->Paths();
  uint64_t cold_cost = cold->build_cost;

  // Same blueprint again: a rebuild whose /gen evaluation is a memo hit.
  uint64_t hits = CounterValue("eval.memo_hits");
  ASSERT_OK(server_->DefineLibrary("/lib/g", "(constraint-list \"T\" 0x2000000)\n(merge /gen)"));
  uint64_t warm_work = 0;
  ASSERT_OK_AND_ASSIGN(const CachedImage* warm, server_->Instantiate("/lib/g", spec, &warm_work));
  EXPECT_EQ(CounterValue("eval.memo_hits") - hits, 1u);
  EXPECT_EQ(warm_work, cold_work);
  EXPECT_EQ(warm->build_cost, cold_cost);
  EXPECT_EQ(warm->inputs->Paths(), cold_inputs);
  EXPECT_EQ(warm->inputs->Paths(), (std::vector<std::string>{"/gen", "/lib/g"}));
}

TEST_F(EvalMemoTest, PathReadTwiceIsOneInput) {
  // /bin/q lists /lib/ans twice, so its construction reads it twice; the
  // image records it once, and a redefinition of it still reaches the exec.
  // The image also reads what the library image it links read.
  ASSERT_OK(DefineAnswerClient(*server_, 1));
  ASSERT_OK(server_->DefineMeta("/bin/q", "(merge /lib/crt0.o /obj/m.o /lib/ans /lib/ans)"));
  ASSERT_OK_AND_ASSIGN(const CachedImage* image, server_->Instantiate("/bin/q", {}, nullptr));
  EXPECT_EQ(image->inputs->Paths(),
            (std::vector<std::string>{"/bin/q", "/lib/ans", "/lib/crt0.o", "/libx", "/libx/f0.o",
                                      "/libx/f1.o", "/libx/f2.o", "/libx/v.o", "/obj/m.o"}));
  ASSERT_OK_AND_ASSIGN(int first, ExecQ());
  EXPECT_EQ(first, 1);
  ASSERT_OK_AND_ASSIGN(Archive v2, AnswerArchive(2));
  ASSERT_OK(server_->AddArchive("/libx", v2));
  ASSERT_OK_AND_ASSIGN(int second, ExecQ());
  EXPECT_EQ(second, 2);
}

TEST_F(EvalMemoTest, FailedLookupNeverValidatesAMemo) {
  // /mid names a path that does not exist yet: the build fails, and once
  // the path is defined both metas evaluate cold (no memo was kept).
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(kCallAnswer, "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/mid", "(merge /obj/late.o)"));
  ASSERT_OK(server_->DefineMeta("/bin/top", "(merge /lib/crt0.o /obj/m.o /mid)"));
  auto missing = server_->Instantiate("/bin/top", {}, nullptr);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code(), ErrorCode::kNotFound);

  ASSERT_OK_AND_ASSIGN(ObjectFile late, VersionedAnswer(3));
  ASSERT_OK(server_->AddFragment("/obj/late.o", std::move(late)));
  uint64_t hits = CounterValue("eval.memo_hits");
  uint64_t misses = CounterValue("eval.memo_misses");
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/top", {"top"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  EXPECT_EQ(out.exit_code, 3);
  EXPECT_EQ(CounterValue("eval.memo_hits") - hits, 0u);
  EXPECT_EQ(CounterValue("eval.memo_misses") - misses, 2u);
}

TEST_F(EvalMemoTest, MemberRedefinitionsRaceBuilds) {
  // One writer replaces the answer member version by version while three
  // readers exec /bin/q. An exec must map a version that was current at
  // some point during the exec: no older than the last redefinition that
  // finished before it started, no newer than the last one begun by the
  // time it returned. The tasks run after the race (the kernel's task
  // table is single-threaded); a task runs the images mapped at its exec.
  constexpr int kVersions = 40;
  ASSERT_OK(DefineAnswerClient(*server_, 0));
  std::vector<ObjectFile> versions;
  for (int v = 1; v <= kVersions; ++v) {
    ASSERT_OK_AND_ASSIGN(ObjectFile object, VersionedAnswer(v));
    versions.push_back(std::move(object));
  }
  struct Exec {
    TaskId id;
    int lo;
    int hi;
  };
  std::atomic<int> begun{0};
  std::atomic<int> finished{0};
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::atomic<int> exec_count{0};
  std::mutex execs_mu;
  std::vector<Exec> execs;
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int v = 1; v <= kVersions; ++v) {
      // Interleave: at least two execs per version, so builds are in
      // flight whenever a redefinition lands.
      while (exec_count.load() < 2 * v) {
        std::this_thread::yield();
      }
      begun.store(v);
      if (!server_->AddFragment("/libx/v.o", versions[v - 1]).ok()) {
        errors.fetch_add(1);
      }
      finished.store(v);
      std::this_thread::yield();
    }
    done.store(true);
  });
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      while (!done.load()) {
        int lo = finished.load();
        auto id = server_->IntegratedExec("/bin/q", {"q"});
        int hi = begun.load();
        if (!id.ok()) {
          errors.fetch_add(1);
          exec_count.fetch_add(1);
          continue;
        }
        std::lock_guard<std::mutex> lock(execs_mu);
        execs.push_back(Exec{*id, lo, hi});
        exec_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GE(execs.size(), 2u * kVersions);
  int stale = 0;
  for (const Exec& exec : execs) {
    ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(exec.id));
    if (out.exit_code < exec.lo || out.exit_code > exec.hi) {
      ++stale;
      ADD_FAILURE() << "exec mapped version " << out.exit_code << ", current was " << exec.lo
                    << ".." << exec.hi;
    }
    server_->ReleaseTask(exec.id);
    kernel_.DestroyTask(exec.id);
  }
  EXPECT_EQ(stale, 0) << "of " << execs.size() << " execs";
  ASSERT_OK_AND_ASSIGN(int last, ExecQ());
  EXPECT_EQ(last, kVersions);
}

// The read-set sharing under load: a writer alternates library fixes of
// /lib/ans, which leave the /libx archive memo valid, with replacements of
// its member v.o, while three readers exec /bin/q. Every rebuild of /lib/ans
// nests the archive memo's shared read set, and each fix walks the nested
// sets of the cached images and memos (CachedDependents, DropStaleMemos)
// while builds add them. The fixes place /lib/ans at `bases` in turn. An
// exec must map a member version that was current at some point during it
// (see MemberRedefinitionsRaceBuilds).
constexpr int kRaceVersions = 24;
void RaceLibraryFixes(OmosServer& server, Kernel& kernel, const std::vector<uint32_t>& bases) {
  constexpr int kVersions = kRaceVersions;
  ASSERT_OK(DefineAnswerClient(server, 0));
  std::vector<ObjectFile> versions;
  for (int v = 1; v <= kVersions; ++v) {
    ASSERT_OK_AND_ASSIGN(ObjectFile object, VersionedAnswer(v));
    versions.push_back(std::move(object));
  }
  struct Exec {
    TaskId id;
    int lo;
    int hi;
  };
  std::atomic<int> begun{0};
  std::atomic<int> finished{0};
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::atomic<int> exec_count{0};
  std::mutex execs_mu;
  std::vector<Exec> execs;
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    size_t fixes = 0;
    for (int v = 1; v <= kVersions; ++v) {
      for (int fix = 0; fix < 2; ++fix) {
        while (exec_count.load() < 3 * v + fix) {
          std::this_thread::yield();
        }
        uint32_t base = bases[fixes++ % bases.size()];
        if (!server
                 .DefineLibrary("/lib/ans", StrCat("(constraint-list \"T\" ", Hex32(base),
                                                   ")\n(merge /libx)"))
                 .ok()) {
          errors.fetch_add(1);
        }
      }
      begun.store(v);
      if (!server.AddFragment("/libx/v.o", versions[v - 1]).ok()) {
        errors.fetch_add(1);
      }
      finished.store(v);
    }
    done.store(true);
  });
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      while (!done.load()) {
        int lo = finished.load();
        auto id = server.IntegratedExec("/bin/q", {"q"});
        int hi = begun.load();
        if (!id.ok()) {
          errors.fetch_add(1);
          exec_count.fetch_add(1);
          continue;
        }
        std::lock_guard<std::mutex> lock(execs_mu);
        execs.push_back(Exec{*id, lo, hi});
        exec_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GE(execs.size(), 3u * kVersions);
  for (const Exec& exec : execs) {
    Task* task = kernel.FindTask(exec.id);
    ASSERT_NE(task, nullptr);
    ASSERT_OK(kernel.RunTask(*task));
    EXPECT_TRUE(task->exit_code() >= exec.lo && task->exit_code() <= exec.hi)
        << "exec mapped version " << task->exit_code() << ", current was " << exec.lo << ".."
        << exec.hi;
    server.ReleaseTask(exec.id);
    kernel.DestroyTask(exec.id);
  }
}

TEST_F(EvalMemoTest, LibraryFixesRaceSharedArchiveReads) {
  RaceLibraryFixes(*server_, kernel_, {0x2000000});
  ASSERT_OK_AND_ASSIGN(int last, ExecQ());
  EXPECT_EQ(last, kRaceVersions);
}

TEST_F(EvalMemoTest, LibraryFixesThatMoveTheBaseRaceExecs) {
  // Every fix moves /lib/ans, so a fix landing between an exec's
  // Instantiate and its MapProgram leaves the program linked against a
  // base the library no longer has: the exec must instantiate again, never
  // map the moved library under the old program.
  RaceLibraryFixes(*server_, kernel_, {0x2100000, 0x2000000});
  ASSERT_OK_AND_ASSIGN(int last, ExecQ());
  EXPECT_EQ(last, kRaceVersions);
}

TEST_F(EvalMemoTest, MapProgramRefusesALibraryThatMoved) {
  // A library fix that moves /lib/ans lands between an exec's Instantiate
  // and its MapProgram. The program's bytes call the old base, so the
  // rebuilt library cannot be mapped under it: nothing is mapped and the
  // caller instantiates again.
  ASSERT_OK(DefineAnswerClient(*server_, 1));
  Task& task = kernel_.CreateTask("moved");
  size_t regions = task.space().Regions().size();
  {
    ImageCache::ReadLease lease(server_->cache());  // the fix evicts *program
    ASSERT_OK_AND_ASSIGN(const CachedImage* program,
                         server_->Instantiate("/bin/q", {}, nullptr));
    ASSERT_OK(
        server_->DefineLibrary("/lib/ans", "(constraint-list \"T\" 0x2100000)\n(merge /libx)"));
    auto mapped = server_->MapProgram(task, *program);
    ASSERT_FALSE(mapped.ok()) << "mapped /lib/ans moved under a program linked at 0x02000000";
    EXPECT_EQ(mapped.error().code(), ErrorCode::kUnavailable);
    EXPECT_NE(mapped.error().message().find("/lib/ans"), std::string::npos);
  }
  EXPECT_EQ(task.space().Regions().size(), regions);
  EXPECT_FALSE(server_->SymbolsForTask(task.id()).ok());
  kernel_.DestroyTask(task.id());
  ASSERT_OK_AND_ASSIGN(int again, ExecQ());
  EXPECT_EQ(again, 1);
}

// ---- Per-task image ownership ---------------------------------------------------
//
// A task's runtime owns the images it mapped, so what it maps is answered
// from those, whatever the cache holds now.

TEST_F(EvalMemoTest, SymbolsNameTheVersionTheTaskMaps) {
  ASSERT_OK(DefineAnswerClient(*server_, 1));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/q", {"q"}));
  ASSERT_OK_AND_ASSIGN(ObjectFile v2, VersionedAnswer(2));
  ASSERT_OK(server_->AddFragment("/libx/v.o", std::move(v2)));
  EXPECT_EQ(VersionSeenBy(*server_, id), 1);  // v1 left the cache
  ASSERT_OK_AND_ASSIGN(int next, ExecQ());    // v2 is cached under v1's key
  EXPECT_EQ(next, 2);
  EXPECT_EQ(VersionSeenBy(*server_, id), 1);
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  EXPECT_EQ(out.exit_code, 1);
  server_->ReleaseTask(id);
  kernel_.DestroyTask(id);
}

TEST_F(EvalMemoTest, ProfileAttributesSamplesToTheMappedVersion) {
  ASSERT_OK(DefineAnswerClient(*server_, 1));
  CycleProfiler::Clear();
  CycleProfiler::Start(1);
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/q", {"q"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  CycleProfiler::Stop();
  EXPECT_EQ(out.exit_code, 1);
  ASSERT_OK_AND_ASSIGN(ObjectFile v2, VersionedAnswer(2));
  ASSERT_OK(server_->AddFragment("/libx/v.o", std::move(v2)));
  ASSERT_OK(ExecQ());  // v2 is cached under v1's key
  ASSERT_OK_AND_ASSIGN(std::string profile, server_->ProfileForTask(id));
  CycleProfiler::Clear();
  std::string lib_image = MakeCacheKey("/lib/ans", "lib-constrained");
  EXPECT_NE(profile.find(StrCat("(", lib_image, ")")), std::string::npos) << profile;
  EXPECT_NE(profile.find(StrCat("image ", lib_image, " samples=")), std::string::npos) << profile;
  EXPECT_EQ(profile.find("[unresolved]"), std::string::npos) << profile;
  EXPECT_EQ(profile.find("ver_2"), std::string::npos) << profile;
  server_->ReleaseTask(id);
  kernel_.DestroyTask(id);
}

TEST_F(EvalMemoTest, EvictedLibraryUnderACachedProgramMapsTheHeldCopy) {
  // An LRU eviction of a library the cached program still holds changes
  // nothing the library was built from: the exec re-caches the program's
  // copy, so no second copy of its frames is built.
  ASSERT_OK(DefineAnswerClient(*server_, 1));
  ASSERT_OK_AND_ASSIGN(int first, ExecQ());
  EXPECT_EQ(first, 1);
  const std::string lib_key = MakeCacheKey("/lib/ans", "lib-constrained");
  ImageRef held = server_->cache().Peek(lib_key);
  ASSERT_NE(held, nullptr);
  uint32_t frames = kernel_.phys().frames_in_use();
  uint64_t misses = CounterValue("eval.memo_misses");
  uint64_t hits = CounterValue("eval.memo_hits");
  server_->cache().Evict(lib_key);
  ASSERT_OK_AND_ASSIGN(int second, ExecQ());
  EXPECT_EQ(second, 1);
  EXPECT_EQ(kernel_.phys().frames_in_use(), frames);
  EXPECT_EQ(server_->cache().Peek(lib_key), held);
  EXPECT_EQ(CounterValue("eval.memo_misses") - misses, 0u);  // nothing was evaluated
  EXPECT_EQ(CounterValue("eval.memo_hits") - hits, 0u);
}

TEST_F(EvalMemoTest, RottedLibraryUnderACachedProgramIsRebuilt) {
  // The exec's second cache lookup (the library's, after the program's)
  // finds its bytes rotted. The program's held copy is the same rotted
  // image, so it fails verification and the library is rebuilt in place.
  ASSERT_OK(DefineAnswerClient(*server_, 1));
  ASSERT_OK_AND_ASSIGN(int first, ExecQ());
  EXPECT_EQ(first, 1);
  const std::string lib_key = MakeCacheKey("/lib/ans", "lib-constrained");
  ImageRef held = server_->cache().Peek(lib_key);
  ASSERT_NE(held, nullptr);
  {
    ScopedFaultPlan plan(FaultPlan().Arm("cache.bitrot", FaultSpec::Nth(2)));
    ASSERT_OK_AND_ASSIGN(int second, ExecQ());
    EXPECT_EQ(second, 1);
  }
  EXPECT_EQ(server_->cache_stats().corruption_rebuilds, 1u);
  ImageRef rebuilt = server_->cache().Peek(lib_key);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_NE(rebuilt, held);
  EXPECT_FALSE(held->VerifyAll());
  EXPECT_TRUE(rebuilt->VerifyAll());
  EXPECT_EQ(rebuilt->placement, held->placement);
}

TEST_F(EvalMemoTest, ReleasingTheTaskFreesTheImagesItOutlived) {
  ASSERT_OK(DefineAnswerClient(*server_, 1));
  uint32_t baseline = kernel_.phys().frames_in_use();
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/q", {"q"}));
  ASSERT_OK(Run(id));
  ASSERT_OK_AND_ASSIGN(ObjectFile v2, VersionedAnswer(2));
  ASSERT_OK(server_->AddFragment("/libx/v.o", std::move(v2)));
  EXPECT_EQ(server_->cache().entry_count(), 0u);
  EXPECT_GT(kernel_.phys().frames_in_use(), baseline);  // the task still maps v1
  server_->ReleaseTask(id);
  kernel_.DestroyTask(id);
  EXPECT_EQ(kernel_.phys().frames_in_use(), baseline);
}

TEST_F(ServerFeatures, LazyBindingAfterRedefinitionUsesTheMappedVersion) {
  // The task binds f from v1 of a lazy library, then the library is
  // redefined with a new layout. Its first call of g must bind into the v1
  // image it maps, not at v2's address for g.
  ASSERT_OK_AND_ASSIGN(ObjectFile v1, Assemble(R"(
.text
.global f
f:
  movi r0, 1
  ret
.global g
g:
  movi r0, 2
  ret
)", "l.o"));
  ASSERT_OK_AND_ASSIGN(ObjectFile v2, Assemble(R"(
.text
.global pad
pad:
  movi r0, 7
  movi r0, 7
  ret
.global f
f:
  movi r0, 10
  ret
.global g
g:
  movi r0, 20
  ret
)", "l.o"));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global main
main:
  push lr
  call f
  mov r4, r0
  movi r5, 200
  movi r6, 0
spin:
  addi r5, r5, -1
  bne r5, r6, spin
  call g
  add r0, r0, r4
  pop lr
  ret
)", "m.o"));
  ASSERT_OK(server_->AddFragment("/obj/l.o", std::move(v1)));
  ASSERT_OK(server_->DefineLibrary("/lib/l", "(merge /obj/l.o)"));
  ASSERT_OK(server_->AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/p",
                                "(merge /lib/crt0.o /obj/m.o (specialize \"lib-dynamic\" /lib/l))"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/p", {"p"}));
  Task* task = kernel_.FindTask(id);
  ASSERT_NE(task, nullptr);
  ASSERT_FALSE(kernel_.RunTask(*task, 100).ok());  // f bound, spinning
  ASSERT_OK(server_->AddFragment("/obj/l.o", std::move(v2)));
  ASSERT_OK(kernel_.RunTask(*task));
  EXPECT_EQ(task->exit_code(), 3);
  server_->ReleaseTask(id);
  kernel_.DestroyTask(id);
  ASSERT_OK_AND_ASSIGN(TaskId fresh, server_->IntegratedExec("/bin/p", {"p"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(fresh));
  EXPECT_EQ(out.exit_code, 30);
}

TEST_F(EvalMemoTest, SymbolsMatchTheRunUnderRedefinitions) {
  // One writer replaces the answer member while three readers exec /bin/q
  // and read each task's version through SymbolsForTask at once, and a
  // fourth profiles every task. The version a task reports must be the one
  // it then runs.
  constexpr int kVersions = 40;
  ASSERT_OK(DefineAnswerClient(*server_, 0));
  std::vector<ObjectFile> versions;
  for (int v = 1; v <= kVersions; ++v) {
    ASSERT_OK_AND_ASSIGN(ObjectFile object, VersionedAnswer(v));
    versions.push_back(std::move(object));
  }
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::atomic<int> exec_count{0};
  std::mutex execs_mu;
  std::vector<std::pair<TaskId, int>> execs;  // task, version it reported
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int v = 1; v <= kVersions; ++v) {
      while (exec_count.load() < 2 * v) {
        std::this_thread::yield();
      }
      if (!server_->AddFragment("/libx/v.o", versions[v - 1]).ok()) {
        errors.fetch_add(1);
      }
    }
    done.store(true);
  });
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      while (!done.load()) {
        auto id = server_->IntegratedExec("/bin/q", {"q"});
        if (!id.ok()) {
          errors.fetch_add(1);
        } else {
          int seen = VersionSeenBy(*server_, *id);
          std::lock_guard<std::mutex> lock(execs_mu);
          execs.emplace_back(*id, seen);
        }
        exec_count.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    while (!done.load()) {
      if (!server_->ProfileForTask(0).ok()) {
        errors.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(errors.load(), 0);
  int wrong = 0;
  for (const auto& [id, seen] : execs) {
    ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
    if (seen != out.exit_code) {
      ++wrong;
    }
    server_->ReleaseTask(id);
    kernel_.DestroyTask(id);
  }
  EXPECT_EQ(wrong, 0) << "of " << execs.size() << " execs";
}

// ---- Nested read sets over random nesting shapes --------------------------------

// A random blueprint DAG: fragments /f/l<i>.o under metas /m/<level>_<j>
// one to three levels deep, under /bin/top. Every meta at level k > 1 merges
// at least one meta of level k-1; others are random fragments and lower
// metas, so sub-metas are shared and some operands are listed twice. With
// `missing` set, one fragment is not defined until the first build failed.
struct NestingShape {
  std::map<std::string, std::vector<std::string>> metas;  // path -> operands
  std::vector<std::string> leaves;
  std::string missing;
  int levels = 0;  // /bin/top's level

  explicit NestingShape(uint32_t seed) {
    std::mt19937 rng(seed);
    auto pick = [&rng](const std::vector<std::string>& from) {
      return from[rng() % from.size()];
    };
    levels = 1 + static_cast<int>(rng() % 4);
    int leaf_count = 3 + static_cast<int>(rng() % 4);
    for (int i = 0; i < leaf_count; ++i) {
      leaves.push_back(StrCat("/f/l", i, ".o"));
    }
    std::vector<std::vector<std::string>> by_level(levels + 1);
    for (int level = 1; level <= levels; ++level) {
      int count = level == levels ? 1 : 1 + static_cast<int>(rng() % 3);
      for (int j = 0; j < count; ++j) {
        std::string path = level == levels ? "/bin/top" : StrCat("/m/", level, "_", j);
        std::vector<std::string> operands;
        if (level > 1) {
          operands.push_back(pick(by_level[level - 1]));
        }
        int extra = 1 + static_cast<int>(rng() % 3);
        for (int e = 0; e < extra; ++e) {
          if (level > 1 && rng() % 2 == 0) {
            operands.push_back(pick(by_level[1 + rng() % (level - 1)]));
          } else {
            operands.push_back(pick(leaves));
          }
        }
        if (rng() % 4 == 0) {
          operands.push_back(operands[rng() % operands.size()]);  // read twice
        }
        std::shuffle(operands.begin(), operands.end(), rng);
        metas[path] = operands;
        by_level[level].push_back(path);
      }
    }
    if (rng() % 3 == 0) {
      missing = pick(Reach("/bin/top"));
      if (metas.count(missing) != 0) {
        missing.clear();  // only fragments go missing
      }
    }
  }

  // Every path reading `path` reaches, itself included: sorted, each once.
  std::vector<std::string> Reach(const std::string& path) const {
    std::set<std::string> seen;
    std::vector<std::string> work{path};
    while (!work.empty()) {
      std::string next = work.back();
      work.pop_back();
      if (!seen.insert(next).second) {
        continue;
      }
      auto it = metas.find(next);
      if (it != metas.end()) {
        work.insert(work.end(), it->second.begin(), it->second.end());
      }
    }
    return {seen.begin(), seen.end()};
  }

  std::string Blueprint(const std::string& meta) const {
    std::string text = "(merge";
    for (const std::string& operand : metas.at(meta)) {
      text += " " + operand;
    }
    return text + ")";
  }

  // The memo misses and hits a rebuild of /bin/top should count once
  // `leaf` was redefined: each meta reaching the leaf misses once (the
  // first time the build meets it), every other meta operand met is a hit.
  std::pair<uint64_t, uint64_t> RebuildCounts(const std::string& leaf) const {
    uint64_t misses = 0;
    uint64_t hits = 0;
    std::set<std::string> refreshed;
    std::function<void(const std::string&)> eval = [&](const std::string& meta) {
      refreshed.insert(meta);
      ++misses;
      for (const std::string& operand : metas.at(meta)) {
        if (metas.count(operand) == 0) {
          continue;
        }
        std::vector<std::string> reach = Reach(operand);
        bool stale = std::binary_search(reach.begin(), reach.end(), leaf);
        if (stale && refreshed.count(operand) == 0) {
          eval(operand);
        } else {
          ++hits;
        }
      }
    };
    eval("/bin/top");
    return {misses, hits};
  }
};

Result<ObjectFile> LeafObject(const std::string& path, int version) {
  return Assemble(StrCat(".text\nleaf:\n  movi r0, ", version, "\n  ret\n"),
                  path.substr(path.rfind('/') + 1));
}

TEST(ReadSetProperty, NestedShapesKeepEveryLeafReachable) {
  int leaves_checked = 0;
  int shapes_missing = 0;
  std::set<int> depths;
  for (uint32_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    NestingShape shape(seed);
    shapes_missing += shape.missing.empty() ? 0 : 1;
    depths.insert(shape.levels);
    Kernel kernel;
    OmosServer server(kernel);
    for (const std::string& leaf : shape.leaves) {
      if (leaf != shape.missing) {
        ASSERT_OK_AND_ASSIGN(ObjectFile object, LeafObject(leaf, 0));
        ASSERT_OK(server.AddFragment(leaf, std::move(object)));
      }
    }
    for (const auto& [meta, operands] : shape.metas) {
      ASSERT_OK(server.DefineMeta(meta, shape.Blueprint(meta)));
    }
    if (!shape.missing.empty()) {
      // A failed lookup fails the build and validates no memo.
      auto failed = server.Instantiate("/bin/top", {}, nullptr);
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.error().code(), ErrorCode::kNotFound);
      ASSERT_OK_AND_ASSIGN(ObjectFile object, LeafObject(shape.missing, 0));
      ASSERT_OK(server.AddFragment(shape.missing, std::move(object)));
    }
    const std::string key = MakeCacheKey("/bin/top", "");
    std::vector<std::string> reach = shape.Reach("/bin/top");
    for (const std::string& leaf : reach) {
      if (shape.metas.count(leaf) != 0) {
        continue;
      }
      SCOPED_TRACE(leaf);
      std::shared_ptr<const ReadSet> inputs;
      {
        ImageCache::ReadLease lease(server.cache());
        ASSERT_OK_AND_ASSIGN(const CachedImage* image, server.Instantiate("/bin/top", {}, nullptr));
        inputs = image->inputs;
      }
      // The flattened inputs are the sorted unique paths the build read.
      EXPECT_EQ(inputs->Paths(), reach);
      EXPECT_TRUE(server.name_space().AllCurrent(*inputs));
      ASSERT_OK_AND_ASSIGN(std::shared_ptr<const NamespaceEntry> old_entry,
                           server.name_space().Lookup(leaf));
      std::weak_ptr<const NamespaceEntry> old = old_entry;
      old_entry.reset();

      ASSERT_OK_AND_ASSIGN(ObjectFile object, LeafObject(leaf, 1));
      ASSERT_OK(server.AddFragment(leaf, std::move(object)));
      EXPECT_FALSE(server.name_space().AllCurrent(*inputs));
      EXPECT_FALSE(server.cache().Contains(key));
      inputs.reset();
      // Nothing pins the superseded entry: every memo that read it was
      // dropped along with the image.
      EXPECT_TRUE(old.expired());

      auto [misses, hits] = shape.RebuildCounts(leaf);
      uint64_t misses_before = CounterValue("eval.memo_misses");
      uint64_t hits_before = CounterValue("eval.memo_hits");
      ASSERT_OK(server.Instantiate("/bin/top", {}, nullptr));
      EXPECT_EQ(CounterValue("eval.memo_misses") - misses_before, misses);
      EXPECT_EQ(CounterValue("eval.memo_hits") - hits_before, hits);
      ++leaves_checked;
    }
  }
  // The seeds cover every depth and a missing leaf.
  EXPECT_EQ(depths, (std::set<int>{1, 2, 3, 4}));
  EXPECT_GT(shapes_missing, 0);
  EXPECT_GE(leaves_checked, 80);
}

// ---- Memo hits against cold builds on the e2ebench library shapes ---------------

const Workloads& FullWorkloads() {
  static const Workloads* workloads = [] {
    auto result = BuildWorkloads();
    EXPECT_OK(result);
    return new Workloads(std::move(result).value());
  }();
  return *workloads;
}

std::string LibcBlueprint(uint32_t base) {
  return StrCat("(constraint-list \"T\" ", base, ")\n(merge /libc)");
}

// The e2ebench install: every library archive plus /bin/ls or
// /bin/codegen, with /lib/libc at `libc_base`.
Result<void> InstallWorld(OmosServer& server, uint32_t libc_base) {
  const Workloads& w = FullWorkloads();
  OMOS_TRY_VOID(server.AddFragment("/lib/crt0.o", w.crt0));
  OMOS_TRY_VOID(server.AddFragment("/obj/ls.o", w.ls_obj));
  const std::pair<const char*, const Archive*> archives[] = {
      {"/libc", &w.libc}, {"/alpha1", &w.alpha1}, {"/alpha2", &w.alpha2},
      {"/libm", &w.libm}, {"/libl", &w.libl},     {"/libC", &w.libcpp}};
  uint32_t base = 0x3000000;
  std::string codegen = "(merge /lib/crt0.o";
  for (const auto& [dir, archive] : archives) {
    OMOS_TRY_VOID(server.AddArchive(dir, *archive));
    std::string lib = StrCat("/lib", dir);
    codegen += " " + lib;
    if (lib != "/lib/libc") {
      OMOS_TRY_VOID(server.DefineLibrary(
          lib, StrCat("(constraint-list \"T\" ", base, ")\n(merge ", dir, ")")));
      base += 0x1000000;
    }
  }
  OMOS_TRY_VOID(server.DefineLibrary("/lib/libc", LibcBlueprint(libc_base)));
  for (size_t i = 0; i < w.codegen_objs.size(); ++i) {
    OMOS_TRY_VOID(server.AddFragment(StrCat("/obj/cg", i, ".o"), w.codegen_objs[i]));
    codegen += StrCat(" /obj/cg", i, ".o");
  }
  OMOS_TRY_VOID(server.DefineMeta("/bin/codegen", codegen + ")"));
  return server.DefineMeta("/bin/ls", "(merge /lib/crt0.o /obj/ls.o /lib/libc)");
}

// Everything a build publishes that a client or a biller can observe.
std::string Describe(const CachedImage& image) {
  uint64_t h = Fnv1aBytes(image.image.text.data(), image.image.text.size());
  h ^= Fnv1aBytes(image.image.data.data(), image.image.data.size()) * 31;
  std::string out = StrCat(image.key, " text ", image.image.text_base, " data ",
                           image.image.data_base, " entry ", image.image.entry, " bytes ", h,
                           " symbols ", image.image.symbols.size(), " cost ", image.build_cost,
                           " inputs");
  for (const std::string& input : image.inputs->Paths()) {
    out += " " + input;
  }
  return out;
}

struct BuildView {
  uint64_t work = 0;
  std::vector<std::string> images;  // the program, then each dep
  int exit_code = 0;
  std::string output;
  uint64_t user_cycles = 0;
};

Result<BuildView> BuildAndRun(Kernel& kernel, OmosServer& server, const std::string& program) {
  BuildView view;
  ImageCache::ReadLease lease(server.cache());
  OMOS_TRY(const CachedImage* image, server.Instantiate(program, {}, &view.work));
  view.images.push_back(Describe(*image));
  for (const ImageRef& dep : image->dep_images) {
    ImageRef lib = server.cache().Peek(dep->key);
    if (lib == nullptr) {
      return Err(ErrorCode::kNotFound, StrCat("dep not cached: ", dep->key));
    }
    view.images.push_back(Describe(*lib));
  }
  std::vector<std::string> args{program == "/bin/ls" ? "ls" : "codegen"};
  if (program == "/bin/ls") {
    args.push_back("/data");
  }
  OMOS_TRY(TaskId id, server.IntegratedExec(program, args));
  Task* task = kernel.FindTask(id);
  OMOS_TRY_VOID(kernel.RunTask(*task));
  view.exit_code = task->exit_code();
  view.output = task->output();
  view.user_cycles = task->user_cycles();
  server.ReleaseTask(id);
  kernel.DestroyTask(id);
  return view;
}

// codegen's libraries other than libc, built ahead of the program so both
// servers place libc last: the lib_update redefinition then re-places it in
// the slot it left, where a fresh server puts it too.
Result<void> BuildOtherLibraries(OmosServer& server, const std::string& program) {
  if (program != "/bin/codegen") {
    return OkResult();
  }
  for (const char* lib : {"/lib/alpha1", "/lib/alpha2", "/lib/libm", "/lib/libl", "/lib/libC"}) {
    OMOS_TRY_VOID(server.Instantiate(lib, {"lib-constrained", {}}, nullptr));
  }
  return OkResult();
}

struct MemoShape {
  const char* name;     // the e2ebench workload the program comes from
  const char* program;
  EngineMode engine;
};

// gtest names each case (and ctest each discovered test) by the printed
// parameter; the default would print the bytes of the pointers' addresses.
void PrintTo(const MemoShape& shape, std::ostream* os) {
  *os << shape.program << (shape.engine == EngineMode::kBlocks ? " blocks" : " interp");
}

class MemoDifferential : public ::testing::TestWithParam<MemoShape> {};

TEST_P(MemoDifferential, MemoHitBuildEqualsColdBuild) {
  const std::string program = GetParam().program;
  constexpr uint32_t kBase[2] = {0x2000000, 0x2100000};

  // Warm server: build at libc version 0, then the lib_update redefinition
  // to version 1; the rebuild replays the unchanged /libc from the memo.
  Kernel warm_kernel;
  warm_kernel.SetEngineMode(GetParam().engine);
  PopulateLsData(warm_kernel.fs());
  PopulateCodegenInputs(warm_kernel.fs());
  OmosServer warm(warm_kernel);
  ASSERT_OK(InstallWorld(warm, kBase[0]));
  ASSERT_OK(BuildOtherLibraries(warm, program));
  ASSERT_OK(BuildAndRun(warm_kernel, warm, program));
  // The request: two memo hits (/libc, and the program, which reads only
  // libc's interface) and at most two module merges, where the pairwise
  // fold did 142 for libc alone.
  uint64_t hits = CounterValue("eval.memo_hits");
  uint64_t merges = CounterValue("link.merges");
  ASSERT_OK(warm.DefineLibrary("/lib/libc", LibcBlueprint(kBase[1])));
  ASSERT_OK_AND_ASSIGN(BuildView hit, BuildAndRun(warm_kernel, warm, program));
  EXPECT_EQ(CounterValue("eval.memo_hits") - hits, 2u);
  EXPECT_LE(CounterValue("link.merges") - merges, 2u);

  // Fresh server that only ever saw version 1.
  Kernel cold_kernel;
  cold_kernel.SetEngineMode(GetParam().engine);
  PopulateLsData(cold_kernel.fs());
  PopulateCodegenInputs(cold_kernel.fs());
  OmosServer cold(cold_kernel);
  ASSERT_OK(InstallWorld(cold, kBase[1]));
  ASSERT_OK(BuildOtherLibraries(cold, program));
  ASSERT_OK_AND_ASSIGN(BuildView fresh, BuildAndRun(cold_kernel, cold, program));

  EXPECT_EQ(hit.work, fresh.work);
  EXPECT_EQ(hit.images, fresh.images);
  EXPECT_EQ(hit.exit_code, fresh.exit_code);
  EXPECT_EQ(hit.output, fresh.output);
  EXPECT_EQ(hit.user_cycles, fresh.user_cycles);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MemoDifferential,
                         ::testing::Values(MemoShape{"lib_update", "/bin/ls", EngineMode::kBlocks},
                                           MemoShape{"lib_update", "/bin/ls", EngineMode::kInterp},
                                           MemoShape{"codegen", "/bin/codegen", EngineMode::kBlocks},
                                           MemoShape{"codegen", "/bin/codegen", EngineMode::kInterp}),
                         [](const auto& info) {
                           return std::string(info.param.name) +
                                  (info.param.engine == EngineMode::kBlocks ? "_blocks"
                                                                            : "_interp");
                         });

// ---- Library interface changes --------------------------------------------------
//
// A client reads a library it mentions by its interface: its kind and
// default specialization. A fix that changes either re-evaluates the client,
// and the rebuild equals what a server that only saw the fix builds.

// The program's image, then each library image it links, as Describe prints
// them; and the exit code of one run.
struct ProgramView {
  std::vector<std::string> images;
  int exit_code = -1;
};

Result<ProgramView> ViewProgram(Kernel& kernel, OmosServer& server, const std::string& program) {
  ProgramView view;
  {
    ImageCache::ReadLease lease(server.cache());
    OMOS_TRY(const CachedImage* image, server.Instantiate(program, {}, nullptr));
    view.images.push_back(Describe(*image));
    for (const ImageRef& dep : image->dep_images) {
      view.images.push_back(Describe(*dep));
    }
  }
  OMOS_TRY(TaskId id, server.IntegratedExec(program, {"q"}));
  Task* task = kernel.FindTask(id);
  OMOS_TRY_VOID(kernel.RunTask(*task));
  view.exit_code = task->exit_code();
  server.ReleaseTask(id);
  kernel.DestroyTask(id);
  return view;
}

// Builds and runs /bin/q, applies `fix` as the new /lib/ans blueprint, and
// checks the rebuild's memo misses, and its images and run against a cold
// server defined with `fix` from the start.
void ExpectInterfaceChangeRebuildsCold(std::string_view fix, uint64_t want_misses) {
  Kernel warm_kernel;
  OmosServer warm(warm_kernel);
  ASSERT_OK(AddCrt0(warm));
  ASSERT_OK(DefineAnswerClient(warm, 1));
  ASSERT_OK_AND_ASSIGN(ProgramView before, ViewProgram(warm_kernel, warm, "/bin/q"));
  EXPECT_EQ(before.exit_code, 1);

  uint64_t misses = CounterValue("eval.memo_misses");
  ASSERT_OK(warm.DefineMeta("/lib/ans", fix));
  ASSERT_OK_AND_ASSIGN(ProgramView after, ViewProgram(warm_kernel, warm, "/bin/q"));
  EXPECT_EQ(CounterValue("eval.memo_misses") - misses, want_misses);
  EXPECT_NE(after.images, before.images);

  Kernel cold_kernel;
  OmosServer cold(cold_kernel);
  ASSERT_OK(AddCrt0(cold));
  ASSERT_OK(DefineAnswerClient(cold, 1, fix));
  ASSERT_OK_AND_ASSIGN(ProgramView fresh, ViewProgram(cold_kernel, cold, "/bin/q"));
  EXPECT_EQ(after.images, fresh.images);
  EXPECT_EQ(after.exit_code, 1);
  EXPECT_EQ(fresh.exit_code, 1);
}

TEST(LibraryInterface, DefaultSpecSwitchReevaluatesTheClient) {
  // Constrained to partial-image: the client now links lazy stubs against
  // the implementation. /bin/q and /lib/ans miss; /libx hits.
  ExpectInterfaceChangeRebuildsCold(
      "(constraint-list \"T\" 0x2000000)\n(default-specialization \"lib-dynamic\")\n"
      "(merge /libx)",
      2u);
}

TEST(LibraryInterface, KindSwitchReevaluatesTheClient) {
  // Library to meta-object: the client now merges /libx itself. /bin/q and
  // /lib/ans miss; /libx hits.
  ExpectInterfaceChangeRebuildsCold("(merge /libx)", 2u);
}

// A client build links a library image that was evicted from the cache and
// then superseded by `redefine` before the client published. No invalidation
// saw the library (it was not cached), so nothing retired its placement; the
// client must still be refused at publish and rebuilt against the current
// library. The test plays the library's single-flight leader, so the client
// build waits on it for its dep and receives the evicted copy after the
// redefinition. A redefinition that moves the library moves the rebuilt
// image to `want_base`, though the evicted copy is still held.
void ExpectEvictedDepRedefinedMidBuildIsRefused(
    const std::function<Result<void>(OmosServer&)>& redefine, int want_exit,
    std::optional<uint32_t> want_base = std::nullopt) {
  Kernel kernel;
  OmosServer server(kernel);
  ASSERT_OK(AddCrt0(server));
  ASSERT_OK(DefineAnswerClient(server, 1));
  const std::string lib_key = MakeCacheKey("/lib/ans", "lib-constrained");
  ImageRef old_lib;
  {
    ImageCache::ReadLease lease(server.cache());
    ASSERT_OK_AND_ASSIGN(const CachedImage* lib,
                         server.Instantiate("/lib/ans", {"lib-constrained", {}}, nullptr));
    old_lib = lib->shared_from_this();
  }
  server.cache().Evict(lib_key);

  ImageCache::MissJoin lead = server.cache().JoinBuild(lib_key);
  ASSERT_TRUE(lead.leader);
  uint64_t waits = server.cache().stats().single_flight_waits.load();
  Result<ImageRef> client = ImageRef();
  std::thread build([&] {
    ImageCache::ReadLease lease(server.cache());
    auto image = server.Instantiate("/bin/q", {}, nullptr);
    client = image.ok() ? Result<ImageRef>((*image)->shared_from_this()) : image.error();
  });
  while (server.cache().stats().single_flight_waits.load() == waits) {
    std::this_thread::yield();
  }
  Result<void> redefined = redefine(server);
  server.cache().FinishBuild(lib_key, old_lib);
  build.join();
  ASSERT_OK(redefined);
  ASSERT_OK(client);

  ASSERT_EQ((*client)->dep_images.size(), 1u);
  const ImageRef& dep = (*client)->dep_images[0];
  EXPECT_NE(dep, old_lib) << "the client published against the superseded library";
  if (want_base.has_value()) {
    EXPECT_EQ(dep->image.text_base, *want_base);
  }
  EXPECT_TRUE(server.name_space().AllCurrent(*dep->inputs));
  EXPECT_TRUE(server.name_space().AllCurrent(*(*client)->inputs));
  ASSERT_OK_AND_ASSIGN(TaskId id, server.IntegratedExec("/bin/q", {"q"}));
  Task* task = kernel.FindTask(id);
  ASSERT_OK(kernel.RunTask(*task));
  EXPECT_EQ(task->exit_code(), want_exit);
  server.ReleaseTask(id);
  kernel.DestroyTask(id);
}

TEST(LibraryInterface, EvictedDepMovedMidBuildIsRefused) {
  // A base move keeps the interface, so the client's own reads stay current:
  // only the library image's reads show the move.
  ExpectEvictedDepRedefinedMidBuildIsRefused(
      [](OmosServer& server) {
        return server.DefineLibrary("/lib/ans",
                                    "(constraint-list \"T\" 0x2100000)\n(merge /libx)");
      },
      1, 0x2100000u);
}

TEST(LibraryInterface, EvictedDepMemberReplacedMidBuildIsRefused) {
  // The client reads nothing under /libx itself.
  ExpectEvictedDepRedefinedMidBuildIsRefused(
      [](OmosServer& server) -> Result<void> {
        OMOS_TRY(ObjectFile v2, VersionedAnswer(2));
        return server.AddFragment("/libx/v.o", std::move(v2));
      },
      2);
}

// ---- Placement ownership -------------------------------------------------------

// A lazy library's first use in a task whose program was superseded. The
// task holds the old program, and the program the impl it was linked
// against, so neither range is free for an unrelated program or for the
// rebuilt impl, which therefore cannot land on the task's own program.
TEST_F(ServerFeatures, LazyLibraryRebuiltUnderAnOldTaskLandsClearOfIt) {
  auto lz = [](int value) {
    return Assemble(StrCat(".text\n.global lzf\nlzf:\n  movi r0, ", value, "\n  ret\n"), "lz.o");
  };
  ASSERT_OK_AND_ASSIGN(ObjectFile v1, lz(7));
  ASSERT_OK(server_->AddFragment("/obj/lz.o", std::move(v1)));
  ASSERT_OK(server_->DefineLibrary("/lib/lz", "(merge /obj/lz.o)"));
  ASSERT_OK_AND_ASSIGN(ObjectFile p, Assemble(R"(
.text
.global main
main:
  push lr
  call lzf
  pop lr
  ret
)", "p.o"));
  ASSERT_OK(server_->AddFragment("/obj/p.o", std::move(p)));
  ASSERT_OK(server_->DefineMeta(
      "/bin/p", "(merge /lib/crt0.o /obj/p.o (specialize \"lib-dynamic\" /lib/lz))"));
  ASSERT_OK_AND_ASSIGN(ObjectFile q, Assemble(".text\n.global main\nmain:\n  movi r0, 3\n  ret\n",
                                              "q.o"));
  ASSERT_OK(server_->AddFragment("/obj/q.o", std::move(q)));
  ASSERT_OK(server_->DefineMeta("/bin/q", "(merge /lib/crt0.o /obj/q.o)"));

  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/p", {"p"}));
  ASSERT_OK_AND_ASSIGN(ObjectFile v2, lz(9));
  ASSERT_OK(server_->AddFragment("/obj/lz.o", std::move(v2)));  // evicts the impl and /bin/p
  ASSERT_OK(server_->Instantiate("/bin/q", {}, nullptr));
  // The first call binds the library as it is defined now, mapped clear of
  // everything the task maps.
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  EXPECT_EQ(out.exit_code, 9);
}

// The brk heap is a task mapping no image holds: it starts above every
// arena the solver places in, so a class loaded after the heap grew cannot
// land on it.
TEST_F(ServerFeatures, BrkHeapNeverLiesWhereAClassIsPlaced) {
  ASSERT_OK_AND_ASSIGN(ObjectFile grow, Assemble(R"(
.text
.global main
main:
  movi r0, 0
  sys 5              ; query brk
  mov r4, r0
  addi r0, r4, 8192
  sys 5              ; grow the heap by 8 KiB
  movi r1, 6
  st r1, [r4+0]      ; touch it
  movi r0, 0
  ret
)", "grow.o"));
  ASSERT_OK(server_->AddFragment("/obj/grow.o", std::move(grow)));
  ASSERT_OK(server_->DefineMeta("/bin/h", "(merge /lib/crt0.o /obj/grow.o)"));
  ASSERT_OK_AND_ASSIGN(ObjectFile pd, Assemble(R"(
.text
.global pget
pget:
  lea r1, pword
  ld r0, [r1+0]
  ret
.data
.align 4
.global pword
pword: .word 5
)", "pd.o"));
  ASSERT_OK(server_->AddFragment("/obj/pd.o", std::move(pd)));

  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/h", {"h"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, Run(id));
  EXPECT_EQ(out.exit_code, 0);
  Task* task = kernel_.FindTask(id);
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->brk(), kHeapBase + 8192);
  ASSERT_OK_AND_ASSIGN(auto loaded, server_->DynamicLoad(*task, "(merge /obj/pd.o)", {"pword"}));
  ASSERT_EQ(loaded.symbol_values.size(), 1u);
  ASSERT_OK_AND_ASSIGN(uint32_t word, task->space().Read32(loaded.symbol_values[0]));
  EXPECT_EQ(word, 5u);
  ASSERT_OK_AND_ASSIGN(uint32_t heap_word, task->space().Read32(kHeapBase));
  EXPECT_EQ(heap_word, 6u);
}

// A placement lives as long as the image that holds it: superseded images
// a task maps keep theirs, and releasing the task frees them.
TEST_F(ServerFeatures, PlacementsReturnToBaselineAfterTeardown) {
  DefineArgcProgram(*server_);
  auto exec = [&]() -> Result<TaskId> {
    OMOS_TRY(TaskId id, server_->IntegratedExec("/bin/prog", {"prog"}));
    OMOS_TRY_VOID(Run(id));
    return id;
  };
  ASSERT_OK_AND_ASSIGN(TaskId warm, exec());
  server_->ReleaseTask(warm);
  kernel_.DestroyTask(warm);
  const size_t baseline = server_->placement_count();
  ASSERT_GT(baseline, 0u);
  std::vector<TaskId> held;
  for (int round = 0; round < 3; ++round) {
    ASSERT_OK_AND_ASSIGN(TaskId id, exec());
    held.push_back(id);
    // A redefinition retires the program's placement; the task keeps it.
    ASSERT_OK(server_->DefineMeta(
        "/bin/prog", round % 2 == 0 ? "(merge /lib/crt0.o /obj/main.o /obj/b.o /obj/a.o)"
                                    : "(merge /lib/crt0.o /obj/main.o /obj/a.o /obj/b.o)"));
    EXPECT_EQ(server_->placement_count(), baseline + held.size() - 1) << "round " << round;
  }
  ASSERT_OK_AND_ASSIGN(TaskId last, exec());
  held.push_back(last);
  for (TaskId id : held) {
    server_->ReleaseTask(id);
    kernel_.DestroyTask(id);
  }
  EXPECT_EQ(server_->placement_count(), baseline);
}

}  // namespace
}  // namespace omos
