// Stability under sustained load: many exec/destroy cycles across every
// scheme must leave physical memory flat (no frame leaks), keep results
// identical, and keep the cache at steady state.
#include <gtest/gtest.h>

#include "src/baseline/dyn_codec.h"
#include "src/baseline/dynlib.h"
#include "src/core/server.h"
#include "src/support/strings.h"
#include "src/workloads/workloads.h"
#include "tests/helpers.h"

namespace omos {
namespace {

TEST(Stress, RepeatedOmosExecsDoNotLeakFrames) {
  Kernel kernel;
  PopulateLsData(kernel.fs());
  OmosServer server(kernel);
  ASSERT_OK_AND_ASSIGN(Workloads w, BuildWorkloads(TinyWorkloadParams()));
  ASSERT_OK(server.AddFragment("/lib/crt0.o", w.crt0));
  ASSERT_OK(server.AddFragment("/obj/ls.o", w.ls_obj));
  ASSERT_OK(server.AddArchive("/libc", w.libc));
  ASSERT_OK(server.DefineLibrary("/lib/libc", "(merge /libc)"));
  ASSERT_OK(server.DefineMeta("/bin/ls", "(merge /lib/crt0.o /obj/ls.o /lib/libc)"));

  std::string expected;
  uint64_t baseline_bytes = 0;
  for (int i = 0; i < 60; ++i) {
    bool integrated = i % 2 == 0;
    TaskId id = integrated
                    ? *server.IntegratedExec("/bin/ls", {"ls", "/data"})
                    : *server.BootstrapExec("/bin/ls", {"ls", "/data"});
    Task* task = kernel.FindTask(id);
    ASSERT_OK(kernel.RunTask(*task));
    EXPECT_EQ(task->exit_code(), 0);
    if (expected.empty()) {
      expected = task->output();
    } else {
      EXPECT_EQ(task->output(), expected) << "iteration " << i;
    }
    server.ReleaseTask(id);
    kernel.DestroyTask(id);
    if (i == 2) {
      baseline_bytes = kernel.phys().bytes_in_use();  // after warm-up
    }
    if (i > 2) {
      EXPECT_EQ(kernel.phys().bytes_in_use(), baseline_bytes) << "iteration " << i;
    }
  }
  // The cache reached steady state: two misses (program + library), the
  // rest hits.
  EXPECT_EQ(server.cache_stats().misses, 2u);
}

TEST(Stress, RepeatedBaselineExecsDoNotLeakFrames) {
  Kernel kernel;
  PopulateLsData(kernel.fs());
  Rtld rtld(kernel);
  DynLibBuilder builder;
  ASSERT_OK_AND_ASSIGN(Workloads w, BuildWorkloads(TinyWorkloadParams()));
  ASSERT_OK_AND_ASSIGN(Module libc_m, ModuleFromArchive(w.libc));
  ASSERT_OK_AND_ASSIGN(DynImage libc, builder.BuildLibrary("libc", libc_m));
  ASSERT_OK(rtld.Install(std::move(libc)));
  ASSERT_OK_AND_ASSIGN(Module ls_m, ModuleFromObjects({w.crt0, w.ls_obj}));
  ASSERT_OK_AND_ASSIGN(DynImage ls, builder.BuildExecutable("ls", ls_m, {rtld.Find("libc")}));
  ASSERT_OK(rtld.Install(std::move(ls)));

  uint64_t baseline_bytes = 0;
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK_AND_ASSIGN(TaskId id, rtld.Exec("ls", {"ls", "/data"}));
    Task* task = kernel.FindTask(id);
    ASSERT_OK(kernel.RunTask(*task));
    EXPECT_EQ(task->exit_code(), 0);
    rtld.ReleaseTask(id);
    kernel.DestroyTask(id);
    if (i == 1) {
      baseline_bytes = kernel.phys().bytes_in_use();
    }
    if (i > 1) {
      EXPECT_EQ(kernel.phys().bytes_in_use(), baseline_bytes) << "iteration " << i;
    }
  }
}

TEST(Stress, RepeatedDynamicLoadUnloadIsStable) {
  Kernel kernel;
  OmosServer server(kernel);
  ASSERT_OK_AND_ASSIGN(ObjectFile crt0, Assemble(R"(
.text
.global _start
_start:
  sys 0
)", "crt0.o"));
  ASSERT_OK(server.AddFragment("/lib/crt0.o", std::move(crt0)));
  ASSERT_OK_AND_ASSIGN(ObjectFile plugin, Assemble(R"(
.text
.global pf
pf:
  movi r0, 1
  ret
)", "p.o"));
  ASSERT_OK(server.AddFragment("/obj/p.o", std::move(plugin)));
  ASSERT_OK(server.DefineMeta("/bin/host", "(merge /lib/crt0.o)"));
  ASSERT_OK_AND_ASSIGN(TaskId id, server.IntegratedExec("/bin/host", {"host"}));
  Task* task = kernel.FindTask(id);

  size_t base_regions = task->space().Regions().size();
  uint64_t bytes_after_first = 0;
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK_AND_ASSIGN(auto loaded, server.DynamicLoad(*task, "(merge /obj/p.o)", {"pf"}));
    ASSERT_OK(server.DynamicUnload(*task, loaded.text_base));
    EXPECT_EQ(task->space().Regions().size(), base_regions);
    if (i == 0) {
      bytes_after_first = kernel.phys().bytes_in_use();
    } else {
      EXPECT_EQ(kernel.phys().bytes_in_use(), bytes_after_first);
    }
  }
}

TEST(Stress, DynImageCodecRoundTripsWorkloadLibrary) {
  ASSERT_OK_AND_ASSIGN(Workloads w, BuildWorkloads(TinyWorkloadParams()));
  DynLibBuilder builder;
  ASSERT_OK_AND_ASSIGN(Module libc_m, ModuleFromArchive(w.libc));
  ASSERT_OK_AND_ASSIGN(DynImage libc, builder.BuildLibrary("libc", libc_m));
  std::vector<uint8_t> bytes = EncodeDynImage(libc);
  ASSERT_TRUE(IsEncodedDynImage(bytes));
  ASSERT_OK_AND_ASSIGN(DynImage decoded, DecodeDynImage(bytes));
  EXPECT_EQ(decoded.name, libc.name);
  EXPECT_EQ(decoded.image.text, libc.image.text);
  EXPECT_EQ(decoded.image.data, libc.image.data);
  EXPECT_EQ(decoded.data_relocs.size(), libc.data_relocs.size());
  EXPECT_EQ(decoded.lazy_slots.size(), libc.lazy_slots.size());
  EXPECT_EQ(decoded.dispatch_bytes, libc.dispatch_bytes);

  // An installed decoded library behaves identically: exec a client against
  // it in a fresh kernel.
  Kernel kernel;
  PopulateLsData(kernel.fs());
  Rtld rtld(kernel);
  ASSERT_OK(rtld.Install(std::move(decoded)));
  ASSERT_OK_AND_ASSIGN(Module ls_m, ModuleFromObjects({w.crt0, w.ls_obj}));
  ASSERT_OK_AND_ASSIGN(DynImage ls, builder.BuildExecutable("ls", ls_m, {rtld.Find("libc")}));
  ASSERT_OK(rtld.Install(std::move(ls)));
  ASSERT_OK_AND_ASSIGN(TaskId id, rtld.Exec("ls", {"ls", "/data"}));
  Task* task = kernel.FindTask(id);
  ASSERT_OK(kernel.RunTask(*task));
  EXPECT_EQ(task->exit_code(), 0);
  EXPECT_EQ(task->output(), ExpectedLsShortOutput(kernel.fs(), "/data"));
  // Truncation rejected cleanly.
  bytes.resize(bytes.size() / 3);
  EXPECT_FALSE(DecodeDynImage(bytes).ok());
}

}  // namespace
}  // namespace omos
