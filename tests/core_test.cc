// OMOS server tests: blueprints, namespace, instantiation, exec paths,
// interposition (Fig. 2), renaming (Fig. 3), partial-image libraries,
// monitoring and reordering.
#include <gtest/gtest.h>

#include "src/core/server.h"
#include "src/core/sexpr.h"
#include "src/support/metrics.h"
#include "tests/helpers.h"

namespace omos {
namespace {

constexpr char kAddLib[] = R"(
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

constexpr char kCrt0[] = R"(
.text
.global _start
_start:
  call main
  sys 0
)";

// main: exit(mul3(add2(5))) = 21
constexpr char kClient[] = R"(
.text
.global main
main:
  push lr
  movi r0, 5
  call add2
  call mul3
  pop lr
  ret
)";

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<OmosServer>(kernel_);
    ASSERT_OK_AND_ASSIGN(ObjectFile crt0, Assemble(kCrt0, "crt0.o"));
    ASSERT_OK_AND_ASSIGN(ObjectFile lib, Assemble(kAddLib, "addlib.o"));
    ASSERT_OK_AND_ASSIGN(ObjectFile client, Assemble(kClient, "client.o"));
    ASSERT_OK(server_->AddFragment("/lib/crt0.o", std::move(crt0)));
    ASSERT_OK(server_->AddFragment("/obj/addlib.o", std::move(lib)));
    ASSERT_OK(server_->AddFragment("/obj/client.o", std::move(client)));
  }

  Result<RunOutcome> RunTaskById(TaskId id) {
    Task* task = kernel_.FindTask(id);
    if (task == nullptr) {
      return Err(ErrorCode::kNotFound, "no task");
    }
    OMOS_TRY_VOID(kernel_.RunTask(*task));
    RunOutcome out;
    out.exit_code = task->exit_code();
    out.output = task->output();
    out.user_cycles = task->user_cycles();
    out.sys_cycles = task->sys_cycles();
    return out;
  }

  Kernel kernel_;
  std::unique_ptr<OmosServer> server_;
};

TEST_F(ServerTest, IntegratedExecMergedProgram) {
  ASSERT_OK(server_->DefineMeta("/bin/prog",
                                "(merge /lib/crt0.o /obj/client.o /obj/addlib.o)"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/prog", {"prog"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, RunTaskById(id));
  EXPECT_EQ(out.exit_code, 21);
}

TEST_F(ServerTest, BootstrapExecCostsMoreThanIntegrated) {
  ASSERT_OK(server_->DefineMeta("/bin/prog",
                                "(merge /lib/crt0.o /obj/client.o /obj/addlib.o)"));
  // Warm the cache first.
  ASSERT_OK_AND_ASSIGN(TaskId warm, server_->IntegratedExec("/bin/prog", {"prog"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome w, RunTaskById(warm));
  (void)w;
  ASSERT_OK_AND_ASSIGN(TaskId boot_id, server_->BootstrapExec("/bin/prog", {"prog"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome boot, RunTaskById(boot_id));
  ASSERT_OK_AND_ASSIGN(TaskId integ_id, server_->IntegratedExec("/bin/prog", {"prog"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome integ, RunTaskById(integ_id));
  EXPECT_EQ(boot.exit_code, 21);
  EXPECT_EQ(integ.exit_code, 21);
  // The bootstrap pays an IPC round trip plus the loader program.
  EXPECT_GT(boot.sys_cycles, integ.sys_cycles);
}

TEST_F(ServerTest, SecondInstantiationHitsCache) {
  ASSERT_OK(server_->DefineMeta("/bin/prog",
                                "(merge /lib/crt0.o /obj/client.o /obj/addlib.o)"));
  uint64_t work1 = 0;
  ASSERT_OK(server_->Instantiate("/bin/prog", {}, &work1));
  EXPECT_GT(work1, 0u);
  uint64_t work2 = 0;
  ASSERT_OK(server_->Instantiate("/bin/prog", {}, &work2));
  EXPECT_EQ(work2, 0u);
  EXPECT_GE(server_->cache_stats().hits, 1u);
}

TEST_F(ServerTest, SelfContainedLibraryIsSharedBetweenTasks) {
  ASSERT_OK(server_->DefineLibrary("/lib/addlib",
                                   "(constraint-list \"T\" 0x1000000)\n"
                                   "(merge /obj/addlib.o)"));
  ASSERT_OK(server_->DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/client.o /lib/addlib)"));
  ASSERT_OK_AND_ASSIGN(TaskId id1, server_->IntegratedExec("/bin/prog", {"prog"}));
  ASSERT_OK_AND_ASSIGN(TaskId id2, server_->IntegratedExec("/bin/prog", {"prog"}));
  Task* t1 = kernel_.FindTask(id1);
  Task* t2 = kernel_.FindTask(id2);
  ASSERT_NE(t1, nullptr);
  ASSERT_NE(t2, nullptr);
  // Both tasks share library + program text physically.
  EXPECT_GT(t1->space().shared_pages(), 0u);
  EXPECT_GT(t2->space().shared_pages(), 0u);
  ASSERT_OK_AND_ASSIGN(RunOutcome o1, RunTaskById(id1));
  ASSERT_OK_AND_ASSIGN(RunOutcome o2, RunTaskById(id2));
  EXPECT_EQ(o1.exit_code, 21);
  EXPECT_EQ(o2.exit_code, 21);
  // The library was constrained near 0x1000000.
  ASSERT_OK_AND_ASSIGN(const CachedImage* lib,
                       server_->Instantiate("/lib/addlib",
                                            Specialization{"lib-constrained", {}}, nullptr));
  EXPECT_EQ(lib->image.text_base, 0x1000000u);
}

// The vm_map CoW exec path (§5): each task's data segment maps copy-on-write
// against the cached master, so one task's writes are invisible to other
// tasks and to the cache, and teardown returns every privatized frame.
TEST_F(ServerTest, CowExecIsolatesDataWritesBetweenTasks) {
  // main: counter += 1; exit(counter). Starts at 7, so every task that gets
  // its own pristine copy exits 8; shared writes would leak to 9.
  constexpr char kCounter[] = R"(
.text
.global main
main:
  lea r1, counter
  ld r0, [r1+0]
  addi r0, r0, 1
  st r0, [r1+0]
  ld r0, [r1+0]
  ret
.data
.align 4
counter: .word 7
)";
  ASSERT_OK_AND_ASSIGN(ObjectFile counter, Assemble(kCounter, "counter.o"));
  ASSERT_OK(server_->AddFragment("/obj/counter.o", std::move(counter)));
  ASSERT_OK(server_->DefineMeta("/bin/count", "(merge /lib/crt0.o /obj/counter.o)"));

  // Warm the cache, then capture the frame baseline with only masters live.
  ASSERT_OK_AND_ASSIGN(TaskId warm, server_->IntegratedExec("/bin/count", {"count"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome w, RunTaskById(warm));
  EXPECT_EQ(w.exit_code, 8);
  server_->ReleaseTask(warm);
  kernel_.DestroyTask(warm);
  uint32_t baseline = kernel_.phys().frames_in_use();
  uint64_t cow_before = MetricsRegistry::Global().GetCounter("vm.cow_faults")->value();

  ASSERT_OK_AND_ASSIGN(TaskId id1, server_->IntegratedExec("/bin/count", {"count"}));
  ASSERT_OK_AND_ASSIGN(TaskId id2, server_->IntegratedExec("/bin/count", {"count"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome o1, RunTaskById(id1));
  EXPECT_EQ(o1.exit_code, 8);
  // Task 2 runs after task 1 already wrote its counter — still sees 7+1.
  ASSERT_OK_AND_ASSIGN(RunOutcome o2, RunTaskById(id2));
  EXPECT_EQ(o2.exit_code, 8);
  EXPECT_GT(MetricsRegistry::Global().GetCounter("vm.cow_faults")->value(), cow_before);

  // The cached master's bytes are untouched: a fresh instantiate still sees 7.
  ASSERT_OK_AND_ASSIGN(const CachedImage* cached,
                       server_->Instantiate("/bin/count", {}, nullptr));
  ASSERT_TRUE(cached->data_seg.has_value());
  const uint8_t* master_page = kernel_.phys().FrameData(cached->data_seg->frames()[0]);
  EXPECT_EQ(master_page[0], 7);
  EXPECT_EQ(cached->image.data[0], 7);

  // Exits return every CoW-broken and demand-filled frame to the pool.
  server_->ReleaseTask(id1);
  kernel_.DestroyTask(id1);
  server_->ReleaseTask(id2);
  kernel_.DestroyTask(id2);
  EXPECT_EQ(kernel_.phys().frames_in_use(), baseline);
}

// Figure 2 of the paper: interpose on a routine, preserving access to the
// original under a new name.
TEST_F(ServerTest, MallocInterposition) {
  // "libc" with a add2; wrapper add2 that adds 100 then calls the original.
  ASSERT_OK_AND_ASSIGN(ObjectFile wrapper, Assemble(R"(
.text
.global add2
add2:
  push lr
  addi r0, r0, 100
  call _REAL_add2
  pop lr
  ret
)", "wrap.o"));
  ASSERT_OK(server_->AddFragment("/lib/test_add2.o", std::move(wrapper)));
  ASSERT_OK(server_->DefineMeta("/bin/wrapped", R"(
(hide "_REAL_add2"
  (merge
    (restrict "^add2$"
      (copy_as "^add2$" "_REAL_add2"
        (merge /lib/crt0.o /obj/client.o /obj/addlib.o)))
    /lib/test_add2.o))
)"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/wrapped", {"prog"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, RunTaskById(id));
  // add2(5) -> wrapper: 5+100=105 -> real: 107 -> mul3: 321.
  EXPECT_EQ(out.exit_code, 321);
}

// Figure 3 of the paper: resolve an undefined data reference from C source
// and reroute an undefined routine to abort.
TEST_F(ServerTest, SourceOperatorAndRenameToAbort) {
  ASSERT_OK_AND_ASSIGN(ObjectFile uses_undef, Assemble(R"(
.text
.global main
main:
  push lr
  lea r1, undef_var
  ld r0, [r1+0]
  call undefined_routine
  pop lr
  ret
)", "problem.o"));
  ASSERT_OK(server_->AddFragment("/lib/lib-with-problems.o", std::move(uses_undef)));
  ASSERT_OK_AND_ASSIGN(ObjectFile abort_obj, Assemble(R"(
.text
.global abort
abort:
  movi r0, 134
  sys 0
)", "abort.o"));
  ASSERT_OK(server_->AddFragment("/lib/abort.o", std::move(abort_obj)));
  ASSERT_OK(server_->DefineMeta("/bin/fixed", R"(
(merge
  /lib/crt0.o /lib/abort.o
  (source "c" "int undef_var = 0;\n")
  (rename "^undefined_routine$" "abort" "refs"
    /lib/lib-with-problems.o))
)"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/fixed", {"prog"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, RunTaskById(id));
  // The rerouted call aborts with the distinctive code.
  EXPECT_EQ(out.exit_code, 134);
}

TEST_F(ServerTest, PartialImageLazyStubs) {
  ASSERT_OK(server_->DefineLibrary("/lib/addlib", "(merge /obj/addlib.o)"));
  ASSERT_OK(server_->DefineMeta("/bin/dynprog",
                                "(merge /lib/crt0.o /obj/client.o"
                                " (specialize \"lib-dynamic\" /lib/addlib))"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/dynprog", {"prog"}));
  Task* task = kernel_.FindTask(id);
  ASSERT_NE(task, nullptr);
  // Before running, the library is not mapped (only program + stack).
  size_t regions_before = task->space().Regions().size();
  ASSERT_OK_AND_ASSIGN(RunOutcome out, RunTaskById(id));
  EXPECT_EQ(out.exit_code, 21);
  // The first call faulted the library in.
  EXPECT_GT(task->space().Regions().size(), regions_before);
}

TEST_F(ServerTest, PartialImageSecondCallUsesPatchedSlot) {
  ASSERT_OK(server_->DefineLibrary("/lib/addlib", "(merge /obj/addlib.o)"));
  // Client calls add2 twice; second call must not re-trap.
  ASSERT_OK_AND_ASSIGN(ObjectFile client2, Assemble(R"(
.text
.global main
main:
  push lr
  movi r0, 1
  call add2
  call add2
  pop lr
  ret
)", "client2.o"));
  ASSERT_OK(server_->AddFragment("/obj/client2.o", std::move(client2)));
  ASSERT_OK(server_->DefineMeta("/bin/dyn2",
                                "(merge /lib/crt0.o /obj/client2.o"
                                " (specialize \"lib-dynamic\" /lib/addlib))"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/dyn2", {"prog"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, RunTaskById(id));
  EXPECT_EQ(out.exit_code, 5);
}

TEST_F(ServerTest, MonitorCountsCalls) {
  ASSERT_OK(server_->DefineMeta("/bin/prog",
                                "(merge /lib/crt0.o /obj/client.o /obj/addlib.o)"));
  Specialization monitor{"monitor", {}};
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/prog", {"prog"}, monitor));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, RunTaskById(id));
  EXPECT_EQ(out.exit_code, 21);
  ASSERT_OK_AND_ASSIGN(auto counts, server_->MonitorCounts("/bin/prog"));
  uint64_t add2_count = 0;
  uint64_t mul3_count = 0;
  for (const auto& [name, count] : counts) {
    if (name == "add2") {
      add2_count = count;
    }
    if (name == "mul3") {
      mul3_count = count;
    }
  }
  EXPECT_EQ(add2_count, 1u);
  EXPECT_EQ(mul3_count, 1u);
}

TEST_F(ServerTest, ReorderedProgramStillWorks) {
  ASSERT_OK(server_->DefineMeta("/bin/prog",
                                "(merge /lib/crt0.o /obj/client.o /obj/addlib.o)"));
  Specialization monitor{"monitor", {}};
  ASSERT_OK_AND_ASSIGN(TaskId mid, server_->IntegratedExec("/bin/prog", {"prog"}, monitor));
  ASSERT_OK_AND_ASSIGN(RunOutcome mon_out, RunTaskById(mid));
  EXPECT_EQ(mon_out.exit_code, 21);
  ASSERT_OK(server_->DerivePreferredOrder("/bin/prog"));
  Specialization reorder{"reorder", {}};
  ASSERT_OK_AND_ASSIGN(TaskId rid, server_->IntegratedExec("/bin/prog", {"prog"}, reorder));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, RunTaskById(rid));
  EXPECT_EQ(out.exit_code, 21);
}

TEST_F(ServerTest, DynamicLoadIntoRunningTask) {
  ASSERT_OK(server_->DefineMeta("/bin/prog",
                                "(merge /lib/crt0.o /obj/client.o /obj/addlib.o)"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/prog", {"prog"}));
  Task* task = kernel_.FindTask(id);
  ASSERT_NE(task, nullptr);
  // Load a plugin that calls back into the client's add2.
  ASSERT_OK_AND_ASSIGN(ObjectFile plugin, Assemble(R"(
.text
.global plugin_entry
plugin_entry:
  push lr
  movi r0, 7
  call add2
  pop lr
  ret
)", "plugin.o"));
  ASSERT_OK(server_->AddFragment("/obj/plugin.o", std::move(plugin)));
  ASSERT_OK_AND_ASSIGN(auto loaded,
                       server_->DynamicLoad(*task, "(merge /obj/plugin.o)", {"plugin_entry"}));
  ASSERT_EQ(loaded.symbol_values.size(), 1u);
  ASSERT_NE(loaded.symbol_values[0], 0u);
  // Jump the task to the plugin entry instead of its normal start.
  task->set_pc(loaded.symbol_values[0]);
  task->set_reg(kRegLr, 0);  // returning would fault; plugin must not return
  // Run a few steps: plugin_entry pushes, calls add2, then pops and rets to 0
  // which faults — so instead verify via a wrapper that exits.
  // Simpler: check the symbol is inside the mapped region.
  bool found = false;
  for (const auto& region : task->space().Regions()) {
    if (loaded.symbol_values[0] >= region.base &&
        loaded.symbol_values[0] < region.base + region.size) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ServerTest, IpcProtocolRoundTrip) {
  ASSERT_OK(server_->DefineMeta("/bin/prog",
                                "(merge /lib/crt0.o /obj/client.o /obj/addlib.o)"));
  Channel channel = server_->MakeChannel();
  OmosRequest request;
  request.op = OmosOp::kListNamespace;
  request.path = "/bin";
  ASSERT_OK_AND_ASSIGN(OmosReply reply, channel.Call(request, nullptr));
  ASSERT_TRUE(reply.ok);
  ASSERT_EQ(reply.names.size(), 1u);
  EXPECT_EQ(reply.names[0], "prog");
  EXPECT_GT(channel.cycles_billed(), 0u);

  // Cache statistics travel in the kIntrospect "stats" registry snapshot.
  auto cache_counts = [&]() -> std::pair<uint64_t, uint64_t> {
    OmosRequest stats;
    stats.op = OmosOp::kIntrospect;
    stats.path = "stats";
    auto stats_reply = channel.Call(stats, nullptr);
    EXPECT_TRUE(stats_reply.ok() && stats_reply->ok);
    std::pair<uint64_t, uint64_t> counts{~0ull, ~0ull};
    if (stats_reply.ok()) {
      for (const auto& [name, value] : stats_reply->metrics) {
        if (name == "cache.hits") {
          counts.first = value;
        } else if (name == "cache.misses") {
          counts.second = value;
        }
      }
    }
    return counts;
  };
  EXPECT_EQ(cache_counts(), std::make_pair(uint64_t{0}, uint64_t{0}));

  Task& task = kernel_.CreateTask("client");
  OmosRequest instantiate;
  instantiate.op = OmosOp::kInstantiate;
  instantiate.path = "/bin/prog";
  instantiate.specialization = Specialization().ToKeyString();
  instantiate.task_handle = task.id();
  ASSERT_OK_AND_ASSIGN(OmosReply cold, channel.Call(instantiate, nullptr));
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cache_counts(), std::make_pair(uint64_t{0}, uint64_t{1}));

  Task& again = kernel_.CreateTask("client");
  instantiate.task_handle = again.id();
  ASSERT_OK_AND_ASSIGN(OmosReply warm, channel.Call(instantiate, nullptr));
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.entry, cold.entry);
  EXPECT_EQ(cache_counts(), std::make_pair(uint64_t{1}, uint64_t{1}));
}

TEST_F(ServerTest, MalformedIpcMessageRejected) {
  std::vector<uint8_t> garbage = {1, 2, 3, 4, 5};
  std::vector<uint8_t> reply_bytes = server_->ServeMessage(garbage);
  ASSERT_OK_AND_ASSIGN(OmosReply reply, DecodeReply(reply_bytes));
  EXPECT_FALSE(reply.ok);
  EXPECT_FALSE(reply.error.empty());
}

TEST_F(ServerTest, ExecFileInterpreterLine) {
  ASSERT_OK(server_->DefineMeta("/bin/prog",
                                "(merge /lib/crt0.o /obj/client.o /obj/addlib.o)"));
  kernel_.fs().WriteFile("/usr/bin/prog", "#!omos /bin/prog\n");
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->ExecFile("/usr/bin/prog", {"prog"}, true));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, RunTaskById(id));
  EXPECT_EQ(out.exit_code, 21);
}

TEST_F(ServerTest, UnknownMetaObjectFails) {
  auto result = server_->IntegratedExec("/bin/nonexistent", {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kNotFound);
}

TEST_F(ServerTest, UnresolvedReferenceFailsInstantiation) {
  ASSERT_OK(server_->DefineMeta("/bin/broken", "(merge /lib/crt0.o /obj/client.o)"));
  auto result = server_->Instantiate("/bin/broken", {}, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kUnresolvedSymbol);
}

}  // namespace
}  // namespace omos
