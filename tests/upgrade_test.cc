// Live library upgrade (src/upgrade/, docs/upgrade.md): the frame-transfer
// map against hand-built LinkedImages, then the full hot-patch engine on a
// running server — idle-task drains, deterministic mid-run OSR transfers
// (paused via the instruction budget), degradation stubs for deleted
// symbols, and the FaultSim kill-point sweep over every upgrade phase.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/cache.h"
#include "src/core/server.h"
#include "src/support/faultsim.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/upgrade/upgrade.h"
#include "tests/helpers.h"

namespace omos {
namespace {

// ---- FrameTransferMap unit tests (no server) --------------------------------

ImageSymbol Sym(std::string_view name, uint32_t addr,
                SectionKind section = SectionKind::kText) {
  ImageSymbol sym;
  sym.name = SymbolInterner::Global().Name(SymbolInterner::Global().Intern(name));
  sym.addr = addr;
  sym.section = section;
  return sym;
}

// Two-function text segment: f at +0 (2 insns), g at +16 (2 insns).
LinkedImage OldImage() {
  LinkedImage image;
  image.name = "old";
  image.text_base = 0x1000;
  image.text.resize(32);
  image.data_base = 0x2000;
  image.data.resize(8);
  image.symbols.push_back(Sym("f", 0x1000));
  image.symbols.push_back(Sym("g", 0x1010));
  image.symbols.push_back(Sym("counter", 0x2000, SectionKind::kData));
  image.BuildSymbolIndex();
  return image;
}

TEST(FrameTransferMapTest, SameSizeSymbolMapsByOffset) {
  LinkedImage old_image = OldImage();
  LinkedImage new_image = OldImage();
  new_image.name = "new";
  new_image.text_base = 0x5000;
  new_image.data_base = 0x6000;
  new_image.symbols.clear();
  new_image.symbols.push_back(Sym("f", 0x5000));
  new_image.symbols.push_back(Sym("g", 0x5010));
  new_image.symbols.push_back(Sym("counter", 0x6000, SectionKind::kData));
  new_image.BuildSymbolIndex();

  FrameTransferMap map = FrameTransferMap::Build(old_image, new_image, {});
  EXPECT_TRUE(map.Covers(0x1000));
  EXPECT_TRUE(map.Covers(0x101F));
  EXPECT_FALSE(map.Covers(0x0FFF));
  EXPECT_FALSE(map.Covers(0x1020));
  // Whole extents map by offset, including mid-function addresses.
  EXPECT_EQ(map.MapAddr(0x1000), 0x5000u);
  EXPECT_EQ(map.MapAddr(0x1008), 0x5008u);
  EXPECT_EQ(map.MapAddr(0x1010), 0x5010u);
  EXPECT_EQ(map.MapAddr(0x1018), 0x5018u);
  // Same-size data symbols become carries.
  ASSERT_EQ(map.data_carries().size(), 1u);
  EXPECT_EQ(map.data_carries()[0].name, "counter");
  EXPECT_EQ(map.data_carries()[0].old_addr, 0x2000u);
  EXPECT_EQ(map.data_carries()[0].new_addr, 0x6000u);
}

TEST(FrameTransferMapTest, ResizedSymbolMapsEntryOnly) {
  LinkedImage old_image = OldImage();
  LinkedImage new_image;
  new_image.name = "new";
  new_image.text_base = 0x5000;
  new_image.text.resize(40);  // f grew from 16 to 24 bytes
  new_image.symbols.push_back(Sym("f", 0x5000));
  new_image.symbols.push_back(Sym("g", 0x5018));
  new_image.BuildSymbolIndex();

  FrameTransferMap map = FrameTransferMap::Build(old_image, new_image, {});
  // Entry transfers; a frame suspended mid-body must defer.
  EXPECT_EQ(map.MapAddr(0x1000), 0x5000u);
  EXPECT_EQ(map.MapAddr(0x1008), std::nullopt);
  // g kept its 16-byte extent, so it still maps by offset.
  EXPECT_EQ(map.MapAddr(0x1018), 0x5020u);
}

TEST(FrameTransferMapTest, DeletedSymbolMapsToStubEntryOnly) {
  LinkedImage old_image = OldImage();
  LinkedImage new_image;
  new_image.name = "new";
  new_image.text_base = 0x5000;
  new_image.text.resize(16);  // only f survives
  new_image.symbols.push_back(Sym("f", 0x5000));
  new_image.BuildSymbolIndex();

  EXPECT_EQ(DeletedTextSymbols(old_image, new_image), std::vector<std::string>{"g"});

  FrameTransferMap with_stub = FrameTransferMap::Build(old_image, new_image, {{"g", 0x7000}});
  EXPECT_EQ(with_stub.MapAddr(0x1010), 0x7000u);      // entry -> stub
  EXPECT_EQ(with_stub.MapAddr(0x1018), std::nullopt);  // mid-body never transfers

  FrameTransferMap no_stub = FrameTransferMap::Build(old_image, new_image, {});
  EXPECT_EQ(no_stub.MapAddr(0x1010), std::nullopt);
}

TEST(FrameTransferMapTest, DefaultMapCoversNothing) {
  FrameTransferMap map;
  EXPECT_FALSE(map.Covers(0));
  EXPECT_FALSE(map.Covers(0x1000));
  EXPECT_EQ(map.MapAddr(0x1000), 0x1000u);  // uncovered addresses pass through
}

TEST(FrameTransferMapTest, DegradationStubObjectAssembles) {
  ASSERT_OK_AND_ASSIGN(ObjectFile stub, GenerateDegradationStubs({"helper", "zap"}, "stubs.o"));
  // Both symbols exported from the generated object.
  bool saw_helper = false;
  bool saw_zap = false;
  for (const auto& sym : stub.symbols()) {
    saw_helper = saw_helper || sym.name == "helper";
    saw_zap = saw_zap || sym.name == "zap";
  }
  EXPECT_TRUE(saw_helper);
  EXPECT_TRUE(saw_zap);
}

// ---- Full-engine tests on a live server -------------------------------------

constexpr char kCrt0[] = R"(
.text
.global _start
_start:
  call main
  sys 0
)";

// v1: add2 adds 2, mul3 multiplies by 3 -> client exits 21.
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

// v2, same shape: add2 adds 12 -> client exits 51.
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

// v4: add2 adds 12, mul3 multiplies by 4 -> client exits 68. The v4 label
// names no entry point a client calls, so only a copy of v4 defines it.
constexpr char kAddLibV4[] = R"(
.text
.global add2
.global v4
add2:
v4:
  addi r0, r0, 12
  ret
.global mul3
mul3:
  movi r1, 4
  mul r0, r0, r1
  ret
)";

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

class UpgradeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<OmosServer>(kernel_);
    ASSERT_OK_AND_ASSIGN(ObjectFile crt0, Assemble(kCrt0, "crt0.o"));
    ASSERT_OK(server_->AddFragment("/lib/crt0.o", std::move(crt0)));
    ASSERT_OK_AND_ASSIGN(ObjectFile v1, Assemble(kAddLibV1, "addlib.o"));
    ASSERT_OK(server_->AddFragment("/obj/addlib.o", std::move(v1)));
    ASSERT_OK_AND_ASSIGN(ObjectFile v2, Assemble(kAddLibV2, "addlib2.o"));
    ASSERT_OK(server_->AddFragment("/obj/addlib2.o", std::move(v2)));
    ASSERT_OK_AND_ASSIGN(ObjectFile v4, Assemble(kAddLibV4, "addlib4.o"));
    ASSERT_OK(server_->AddFragment("/obj/addlib4.o", std::move(v4)));
    ASSERT_OK_AND_ASSIGN(ObjectFile client, Assemble(kClient, "client.o"));
    ASSERT_OK(server_->AddFragment("/obj/client.o", std::move(client)));
    ASSERT_OK(server_->DefineLibrary("/lib/addlib", "(merge /obj/addlib.o)"));
    ASSERT_OK(server_->DefineMeta("/bin/dynprog",
                                  "(merge /lib/crt0.o /obj/client.o"
                                  " (specialize \"lib-dynamic\" /lib/addlib))"));
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
    return out;
  }

  // Exec /bin/dynprog, run it to completion, destroy the task; returns the
  // exit code.
  Result<int> ExecOnce() {
    OMOS_TRY(TaskId id, server_->IntegratedExec("/bin/dynprog", {"prog"}));
    OMOS_TRY(RunOutcome out, RunTaskById(id));
    server_->ReleaseTask(id);
    kernel_.DestroyTask(id);
    return out.exit_code;
  }

  // The old lib-dynamic implementation's cache key (what the upgrade must
  // eventually reclaim).
  static std::string OldImplKey() {
    Specialization impl;
    impl.name = "lib-dynamic-impl";
    return MakeCacheKey("/lib/addlib", impl.ToKeyString());
  }

  // No snapshot row and no namespace path names a version-suffixed library
  // (`/lib/X@v<id>`) or an `/.upgrade/` entry: an upgrade leaves nothing of
  // its migration behind.
  void ExpectNoUpgradeLeftovers() {
    std::istringstream rows(server_->Snapshot());
    for (std::string row; std::getline(rows, row);) {
      EXPECT_EQ(row.find("@v"), std::string::npos) << row;
      EXPECT_EQ(row.find("/.upgrade"), std::string::npos) << row;
    }
    std::vector<std::string> dirs{"/"};
    while (!dirs.empty()) {
      std::string dir = std::move(dirs.back());
      dirs.pop_back();
      for (const std::string& name : server_->ListNamespace(dir)) {
        std::string path = dir == "/" ? "/" + name : dir + "/" + name;
        EXPECT_EQ(path.find("@v"), std::string::npos) << path;
        EXPECT_NE(name, ".upgrade") << path;
        dirs.push_back(std::move(path));
      }
    }
  }

  // How many of the task's mapped symbols are named `name`: one per copy of
  // a library that defines it (and none in the program).
  size_t SymbolCopies(TaskId id, const std::string& name) {
    auto symbols = server_->SymbolsForTask(id);
    if (!symbols.ok()) {
      return 0;
    }
    return std::count_if(symbols->begin(), symbols->end(),
                         [&](const ImageSymbol& sym) { return sym.name == name; });
  }

  // Poll DrainUpgrade to a terminal phase (bounded; the background link and
  // reclaim run on the pool).
  OmosServer::UpgradeStatus DrainToTerminal() {
    OmosServer::UpgradeStatus status = server_->DrainUpgrade();
    for (int round = 0; round < 32 && !status.terminal(); ++round) {
      status = server_->DrainUpgrade();
    }
    return status;
  }

  Kernel kernel_;
  std::unique_ptr<OmosServer> server_;
};

TEST_F(UpgradeTest, UpgradeWithNoLiveTasksCompletes) {
  ASSERT_OK_AND_ASSIGN(int before, ExecOnce());
  EXPECT_EQ(before, 21);
  ASSERT_OK_AND_ASSIGN(uint64_t id, server_->BeginUpgrade("/lib/addlib",
                                                          "(merge /obj/addlib2.o)"));
  EXPECT_GT(id, 0u);
  OmosServer::UpgradeStatus status = DrainToTerminal();
  EXPECT_EQ(status.phase, UpgradePhase::kDone) << status.error;
  EXPECT_EQ(status.tasks_pending, 0u);
  // New execs see v2.
  ASSERT_OK_AND_ASSIGN(int after, ExecOnce());
  EXPECT_EQ(after, 51);
}

// A new version may carry the records DefineLibrary takes: a task mid-roll
// binds it at its constraint-list's base, and so does a later exec.
TEST_F(UpgradeTest, UpgradeToAConstrainedBlueprintCompletes) {
  constexpr uint32_t kBase = 0x2400000;
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/dynprog", {"prog"}));
  ASSERT_OK(server_->BeginUpgrade(
      "/lib/addlib", "(constraint-list \"T\" 0x2400000)\n(merge /obj/addlib2.o)"));
  OmosServer::UpgradeStatus status = server_->DrainUpgrade();
  for (int round = 0; round < 32 && status.phase == UpgradePhase::kLinking; ++round) {
    status = server_->DrainUpgrade();
  }
  ASSERT_NE(status.phase, UpgradePhase::kAborted) << status.error;
  ASSERT_OK_AND_ASSIGN(RunOutcome out, RunTaskById(id));
  EXPECT_EQ(out.exit_code, 51);
  ASSERT_OK_AND_ASSIGN(auto symbols, server_->SymbolsForTask(id));
  EXPECT_EQ(std::count_if(symbols.begin(), symbols.end(),
                          [](const ImageSymbol& sym) {
                            return sym.name == "add2" && sym.addr == kBase;
                          }),
            1);
  server_->ReleaseTask(id);
  kernel_.DestroyTask(id);
  EXPECT_EQ(DrainToTerminal().phase, UpgradePhase::kDone);
  ASSERT_OK_AND_ASSIGN(int after, ExecOnce());
  EXPECT_EQ(after, 51);
}

TEST_F(UpgradeTest, IdleTaskDrainsOnRelease) {
  uint64_t completed_before = UpgradeStats().completed->value();
  // A finished-but-unreleased task still holds the old version mapped.
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/dynprog", {"prog"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, RunTaskById(id));
  EXPECT_EQ(out.exit_code, 21);

  ASSERT_OK(server_->BeginUpgrade("/lib/addlib", "(merge /obj/addlib2.o)"));
  OmosServer::UpgradeStatus status = server_->DrainUpgrade();
  for (int round = 0; round < 32 && status.phase == UpgradePhase::kLinking; ++round) {
    status = server_->DrainUpgrade();
  }
  // The exited task never reaches another safepoint: the upgrade drains on
  // its release instead.
  EXPECT_EQ(status.phase, UpgradePhase::kDraining);
  EXPECT_EQ(status.tasks_pending, 1u);

  server_->ReleaseTask(id);
  kernel_.DestroyTask(id);
  status = DrainToTerminal();
  EXPECT_EQ(status.phase, UpgradePhase::kDone) << status.error;
  EXPECT_EQ(UpgradeStats().completed->value(), completed_before + 1);

  // Reclamation dropped the old implementation image from the cache.
  EXPECT_FALSE(server_->cache().Contains(OldImplKey()));
  ASSERT_OK_AND_ASSIGN(int after, ExecOnce());
  EXPECT_EQ(after, 51);
}

TEST_F(UpgradeTest, SecondUpgradeWhileInFlightIsRejected) {
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/dynprog", {"prog"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, RunTaskById(id));
  EXPECT_EQ(out.exit_code, 21);
  ASSERT_OK(server_->BeginUpgrade("/lib/addlib", "(merge /obj/addlib2.o)"));
  auto second = server_->BeginUpgrade("/lib/addlib", "(merge /obj/addlib.o)");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code(), ErrorCode::kUnavailable);
  server_->ReleaseTask(id);
  kernel_.DestroyTask(id);
  EXPECT_EQ(DrainToTerminal().phase, UpgradePhase::kDone);
}

TEST_F(UpgradeTest, UpgradeOfUnknownPathFails) {
  auto status = server_->BeginUpgrade("/lib/nope", "(merge /obj/addlib2.o)");
  ASSERT_FALSE(status.ok());
}

// Mid-run OSR: the client sums 60 calls to val() (v1 returns 1, v2 returns
// 3). Pausing the loop with a small instruction budget, upgrading, and
// resuming must (a) keep the task alive through the live transfer and (b)
// yield a sum strictly between the all-v1 (60) and all-v2 (180) totals.
TEST_F(UpgradeTest, MidRunFrameTransfer) {
  ASSERT_OK_AND_ASSIGN(ObjectFile val1, Assemble(R"(
.text
.global val
val:
  movi r0, 1
  ret
)", "val1.o"));
  ASSERT_OK_AND_ASSIGN(ObjectFile val2, Assemble(R"(
.text
.global val
val:
  movi r0, 3
  ret
)", "val2.o"));
  ASSERT_OK(server_->AddFragment("/obj/val1.o", std::move(val1)));
  ASSERT_OK(server_->AddFragment("/obj/val2.o", std::move(val2)));
  ASSERT_OK(server_->DefineLibrary("/lib/val", "(merge /obj/val1.o)"));
  ASSERT_OK_AND_ASSIGN(ObjectFile looper, Assemble(R"(
.text
.global main
main:
  push lr
  movi r4, 0
  movi r5, 60
  movi r6, 0
loop:
  call val
  add r4, r4, r0
  addi r5, r5, -1
  bne r5, r6, loop
  mov r0, r4
  pop lr
  ret
)", "looper.o"));
  ASSERT_OK(server_->AddFragment("/obj/looper.o", std::move(looper)));
  ASSERT_OK(server_->DefineMeta("/bin/looper",
                                "(merge /lib/crt0.o /obj/looper.o"
                                " (specialize \"lib-dynamic\" /lib/val))"));

  uint64_t transferred_before = UpgradeStats().frames_transferred->value();
  uint64_t slots_before = UpgradeStats().slots_repointed->value();

  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/looper", {"prog"}));
  Task* task = kernel_.FindTask(id);
  ASSERT_NE(task, nullptr);
  // Budget exhaustion pauses the task mid-loop without faulting it.
  auto paused = kernel_.RunTask(*task, 100);
  ASSERT_FALSE(paused.ok());
  ASSERT_EQ(task->state(), TaskState::kRunnable);

  ASSERT_OK(server_->BeginUpgrade("/lib/val", "(merge /obj/val2.o)"));
  OmosServer::UpgradeStatus status = server_->DrainUpgrade();
  for (int round = 0; round < 32 && status.phase == UpgradePhase::kLinking; ++round) {
    status = server_->DrainUpgrade();
  }
  ASSERT_EQ(status.phase, UpgradePhase::kDraining) << status.error;
  ASSERT_EQ(status.tasks_pending, 1u);

  // Resuming runs the task through its safepoint: the frame transfers and
  // the remaining iterations call v2.
  ASSERT_OK(kernel_.RunTask(*task));
  int sum = task->exit_code();
  EXPECT_GT(sum, 60);
  EXPECT_LT(sum, 180);

  status = DrainToTerminal();
  EXPECT_EQ(status.phase, UpgradePhase::kDone) << status.error;
  EXPECT_GE(UpgradeStats().frames_transferred->value(), transferred_before + 1);
  EXPECT_GE(UpgradeStats().slots_repointed->value(), slots_before + 1);

  server_->ReleaseTask(id);
  kernel_.DestroyTask(id);
  // A fresh exec runs pure v2.
  ASSERT_OK_AND_ASSIGN(TaskId fresh, server_->IntegratedExec("/bin/looper", {"prog"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, RunTaskById(fresh));
  EXPECT_EQ(out.exit_code, 180);
}

// After its frame transfer a task maps the new version only, so its symbols
// name the new implementation and none of the old one it unmapped. (The old
// version's marker survives as a degradation stub, elsewhere.)
TEST_F(UpgradeTest, TransferredTaskReportsTheNewImplementation) {
  ASSERT_OK_AND_ASSIGN(ObjectFile val1, Assemble(R"(
.text
.global val
.global val_old
val:
val_old:
  movi r0, 1
  ret
)", "val1.o"));
  ASSERT_OK_AND_ASSIGN(ObjectFile val2, Assemble(R"(
.text
.global val
.global val_new
val:
val_new:
  movi r0, 3
  ret
)", "val2.o"));
  ASSERT_OK(server_->AddFragment("/obj/val1.o", std::move(val1)));
  ASSERT_OK(server_->AddFragment("/obj/val2.o", std::move(val2)));
  ASSERT_OK(server_->DefineLibrary("/lib/val", "(merge /obj/val1.o)"));
  ASSERT_OK_AND_ASSIGN(ObjectFile caller, Assemble(R"(
.text
.global main
main:
  push lr
  movi r4, 0
  movi r5, 60
  movi r6, 0
loop:
  call val
  add r4, r4, r0
  addi r5, r5, -1
  bne r5, r6, loop
  mov r0, r4
  pop lr
  ret
)", "caller.o"));
  ASSERT_OK(server_->AddFragment("/obj/caller.o", std::move(caller)));
  ASSERT_OK(server_->DefineMeta("/bin/caller",
                                "(merge /lib/crt0.o /obj/caller.o"
                                " (specialize \"lib-dynamic\" /lib/val))"));
  auto find = [&](TaskId id, const std::string& name) -> std::optional<uint32_t> {
    auto symbols = server_->SymbolsForTask(id);
    if (symbols.ok()) {
      for (const ImageSymbol& sym : *symbols) {
        if (sym.name == name) {
          return sym.addr;
        }
      }
    }
    return std::nullopt;
  };
  auto has_at = [&](TaskId id, uint32_t addr) {
    auto symbols = server_->SymbolsForTask(id);
    return symbols.ok() && std::any_of(symbols->begin(), symbols->end(),
                                       [&](const ImageSymbol& sym) { return sym.addr == addr; });
  };

  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/caller", {"prog"}));
  Task* task = kernel_.FindTask(id);
  ASSERT_NE(task, nullptr);
  EXPECT_FALSE(find(id, "val_old").has_value());  // a lazy library maps on first call
  ASSERT_FALSE(kernel_.RunTask(*task, 100).ok());   // paused mid-loop
  std::optional<uint32_t> old_val = find(id, "val_old");
  ASSERT_TRUE(old_val.has_value());

  ASSERT_OK(server_->BeginUpgrade("/lib/val", "(merge /obj/val2.o)"));
  OmosServer::UpgradeStatus status = server_->DrainUpgrade();
  for (int round = 0; round < 32 && status.phase == UpgradePhase::kLinking; ++round) {
    status = server_->DrainUpgrade();
  }
  ASSERT_EQ(status.phase, UpgradePhase::kDraining) << status.error;
  ASSERT_OK(kernel_.RunTask(*task));  // transfers at its safepoint
  EXPECT_GT(task->exit_code(), 60);
  EXPECT_TRUE(find(id, "val_new").has_value());
  EXPECT_FALSE(has_at(id, *old_val));
  EXPECT_EQ(DrainToTerminal().phase, UpgradePhase::kDone);
  EXPECT_TRUE(find(id, "val_new").has_value());
  EXPECT_FALSE(has_at(id, *old_val));
  server_->ReleaseTask(id);
  kernel_.DestroyTask(id);
}

// A symbol the new version dropped: live callers get the degradation stub
// (kUpgradeUnavailable) instead of a crash.
TEST_F(UpgradeTest, DeletedSymbolDegradesGracefully) {
  ASSERT_OK_AND_ASSIGN(ObjectFile libv1, Assemble(R"(
.text
.global add2
add2:
  addi r0, r0, 2
  ret
.global helper
helper:
  movi r0, 7
  ret
)", "deg1.o"));
  // v2 drops helper entirely.
  ASSERT_OK_AND_ASSIGN(ObjectFile libv2, Assemble(R"(
.text
.global add2
add2:
  addi r0, r0, 2
  ret
)", "deg2.o"));
  ASSERT_OK(server_->AddFragment("/obj/deg1.o", std::move(libv1)));
  ASSERT_OK(server_->AddFragment("/obj/deg2.o", std::move(libv2)));
  ASSERT_OK(server_->DefineLibrary("/lib/deg", "(merge /obj/deg1.o)"));
  // add2 resolves the library early; the burn loop (~400 retired insns)
  // outlasts the transfer-retry backoff so the post-upgrade safepoint fires
  // before the helper call.
  ASSERT_OK_AND_ASSIGN(ObjectFile client, Assemble(R"(
.text
.global main
main:
  push lr
  movi r0, 5
  call add2
  movi r5, 200
  movi r6, 0
burn:
  addi r5, r5, -1
  bne r5, r6, burn
  call helper
  pop lr
  ret
)", "degclient.o"));
  ASSERT_OK(server_->AddFragment("/obj/degclient.o", std::move(client)));
  ASSERT_OK(server_->DefineMeta("/bin/degprog",
                                "(merge /lib/crt0.o /obj/degclient.o"
                                " (specialize \"lib-dynamic\" /lib/deg))"));

  uint64_t degraded_before = UpgradeStats().degraded_bindings->value();

  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/degprog", {"prog"}));
  Task* task = kernel_.FindTask(id);
  ASSERT_NE(task, nullptr);
  // Pause inside the burn loop, after add2 resolved the library.
  auto paused = kernel_.RunTask(*task, 60);
  ASSERT_FALSE(paused.ok());
  ASSERT_EQ(task->state(), TaskState::kRunnable);

  ASSERT_OK(server_->BeginUpgrade("/lib/deg", "(merge /obj/deg2.o)"));
  OmosServer::UpgradeStatus status = server_->DrainUpgrade();
  for (int round = 0; round < 32 && status.phase == UpgradePhase::kLinking; ++round) {
    status = server_->DrainUpgrade();
  }
  ASSERT_EQ(status.phase, UpgradePhase::kDraining) << status.error;

  ASSERT_OK(kernel_.RunTask(*task));
  // helper's slot was rebound to the degradation stub.
  EXPECT_EQ(static_cast<uint32_t>(task->exit_code()), kUpgradeUnavailable);
  EXPECT_GE(UpgradeStats().degraded_bindings->value(), degraded_before + 1);

  server_->ReleaseTask(id);
  kernel_.DestroyTask(id);
  EXPECT_EQ(DrainToTerminal().phase, UpgradePhase::kDone);
  ExpectNoUpgradeLeftovers();
}

// Physical frames return to baseline once upgraded tasks are destroyed:
// nothing from the old version leaks. v1 and v2 are the same shape, so the
// cached-master footprint after the upgrade must equal the warm v1
// footprint — the old version's frames are gone, the new version's replace
// them one-for-one.
TEST_F(UpgradeTest, FramesReclaimedToBaseline) {
  ASSERT_OK_AND_ASSIGN(int warm, ExecOnce());
  ASSERT_EQ(warm, 21);
  uint32_t baseline = kernel_.phys().frames_in_use();
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/dynprog", {"prog"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, RunTaskById(id));
  EXPECT_EQ(out.exit_code, 21);
  ASSERT_OK(server_->BeginUpgrade("/lib/addlib", "(merge /obj/addlib2.o)"));
  server_->DrainUpgrade();
  server_->ReleaseTask(id);
  kernel_.DestroyTask(id);
  ASSERT_EQ(DrainToTerminal().phase, UpgradePhase::kDone);
  ASSERT_OK_AND_ASSIGN(int after, ExecOnce());
  EXPECT_EQ(after, 51);
  // Reclaim dropped the old image; destroying the tasks returns every frame.
  EXPECT_EQ(kernel_.phys().frames_in_use(), baseline);
}

// Placements return to baseline the same way: the shadow implementation's
// placement is released once the upgrade is done and no task maps it, and
// a snapshot taken then records no shadow-path placement.
TEST_F(UpgradeTest, CompletedUpgradesLeaveNoShadowPlacement) {
  ASSERT_OK_AND_ASSIGN(int warm, ExecOnce());
  ASSERT_EQ(warm, 21);
  const size_t baseline = server_->placement_count();
  const char* kVersions[] = {"(merge /obj/addlib2.o)", "(merge /obj/addlib.o)",
                             "(merge /obj/addlib2.o)"};
  const int kExits[] = {51, 21, 51};
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(testing::Message() << "upgrade " << i + 1);
    ASSERT_OK(server_->BeginUpgrade("/lib/addlib", kVersions[i]));
    ASSERT_EQ(DrainToTerminal().phase, UpgradePhase::kDone);
    ASSERT_OK_AND_ASSIGN(int code, ExecOnce());
    EXPECT_EQ(code, kExits[i]);
    EXPECT_EQ(server_->placement_count(), baseline);
  }
  ExpectNoUpgradeLeftovers();
}

// A task exec'd before the upgrade that makes its first lazy call only once
// the upgrade is done binds the library's real path, now the new version,
// and maps one copy of it.
TEST_F(UpgradeTest, StragglerBindsTheNewVersionAfterDone) {
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/dynprog", {"prog"}));
  ASSERT_OK(server_->BeginUpgrade("/lib/addlib", "(merge /obj/addlib4.o)"));
  // The task maps neither version yet, so the upgrade waits for nothing.
  ASSERT_EQ(DrainToTerminal().phase, UpgradePhase::kDone);
  ASSERT_OK_AND_ASSIGN(RunOutcome out, RunTaskById(id));
  EXPECT_EQ(out.exit_code, 68);
  EXPECT_EQ(SymbolCopies(id, "v4"), 1u);
  server_->ReleaseTask(id);
  kernel_.DestroyTask(id);
  ExpectNoUpgradeLeftovers();
}

// A transferred task that binds a symbol it had not bound yet, after the
// upgrade is done, binds it in the copy of the new version it maps.
TEST_F(UpgradeTest, TransferredTaskBindsTheCopyItMapsAfterDone) {
  // add2 binds early; mul3 only after a burn loop that outlasts the upgrade.
  ASSERT_OK_AND_ASSIGN(ObjectFile client, Assemble(R"(
.text
.global main
main:
  push lr
  movi r0, 5
  call add2
  movi r5, 200
  movi r6, 0
burn:
  addi r5, r5, -1
  bne r5, r6, burn
  call mul3
  pop lr
  ret
)", "lateclient.o"));
  ASSERT_OK(server_->AddFragment("/obj/lateclient.o", std::move(client)));
  ASSERT_OK(server_->DefineMeta("/bin/lateprog",
                                "(merge /lib/crt0.o /obj/lateclient.o"
                                " (specialize \"lib-dynamic\" /lib/addlib))"));

  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/lateprog", {"prog"}));
  Task* task = kernel_.FindTask(id);
  ASSERT_NE(task, nullptr);
  ASSERT_FALSE(kernel_.RunTask(*task, 60).ok());  // paused in the burn loop, add2 bound
  ASSERT_OK(server_->BeginUpgrade("/lib/addlib", "(merge /obj/addlib4.o)"));
  OmosServer::UpgradeStatus status = server_->DrainUpgrade();
  for (int round = 0; round < 32 && status.phase == UpgradePhase::kLinking; ++round) {
    status = server_->DrainUpgrade();
  }
  ASSERT_EQ(status.phase, UpgradePhase::kDraining) << status.error;
  ASSERT_FALSE(kernel_.RunTask(*task, 20).ok());  // transfers at its first safepoint
  ASSERT_EQ(DrainToTerminal().phase, UpgradePhase::kDone);

  ASSERT_OK(kernel_.RunTask(*task));
  EXPECT_EQ(task->exit_code(), (5 + 2) * 4);  // v1's add2 ran before the transfer
  EXPECT_EQ(SymbolCopies(id, "v4"), 1u);
  server_->ReleaseTask(id);
  kernel_.DestroyTask(id);
  ExpectNoUpgradeLeftovers();
}

// ---- Upgrade-under-fire: FaultSim kill-points at each phase -----------------

TEST_F(UpgradeTest, KilledDuringLinkAbortsCleanly) {
  FaultPlan plan;
  plan.Arm("upgrade.link", FaultSpec::Nth(1));
  ScopedFaultPlan scoped(std::move(plan));
  ASSERT_OK(server_->BeginUpgrade("/lib/addlib", "(merge /obj/addlib2.o)"));
  OmosServer::UpgradeStatus status = DrainToTerminal();
  EXPECT_EQ(status.phase, UpgradePhase::kAborted);
  EXPECT_NE(status.error.find("upgrade.link"), std::string::npos) << status.error;
  // Nothing was touched: the old version still serves.
  ASSERT_OK_AND_ASSIGN(int code, ExecOnce());
  EXPECT_EQ(code, 21);
}

TEST_F(UpgradeTest, KilledDuringRepointAbortsConsistently) {
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/dynprog", {"prog"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, RunTaskById(id));
  EXPECT_EQ(out.exit_code, 21);
  FaultPlan plan;
  plan.Arm("upgrade.repoint", FaultSpec::Nth(1));
  ScopedFaultPlan scoped(std::move(plan));
  ASSERT_OK(server_->BeginUpgrade("/lib/addlib", "(merge /obj/addlib2.o)"));
  OmosServer::UpgradeStatus status = DrainToTerminal();
  EXPECT_EQ(status.phase, UpgradePhase::kAborted);
  EXPECT_NE(status.error.find("upgrade.repoint"), std::string::npos) << status.error;
  server_->ReleaseTask(id);
  kernel_.DestroyTask(id);
  ExpectNoUpgradeLeftovers();
  // The kill fired before any slot was rewritten: old version intact.
  ASSERT_OK_AND_ASSIGN(int code, ExecOnce());
  EXPECT_EQ(code, 21);
}

TEST_F(UpgradeTest, KilledTransferDefersAndRetries) {
  ASSERT_OK_AND_ASSIGN(ObjectFile val1, Assemble(R"(
.text
.global val
val:
  movi r0, 1
  ret
)", "fval1.o"));
  ASSERT_OK_AND_ASSIGN(ObjectFile val2, Assemble(R"(
.text
.global val
val:
  movi r0, 3
  ret
)", "fval2.o"));
  ASSERT_OK(server_->AddFragment("/obj/fval1.o", std::move(val1)));
  ASSERT_OK(server_->AddFragment("/obj/fval2.o", std::move(val2)));
  ASSERT_OK(server_->DefineLibrary("/lib/fval", "(merge /obj/fval1.o)"));
  // A long loop (600 iterations, ~6 insns each) so the task passes many
  // safepoints after the deferred transfer's retry window (256 insns).
  ASSERT_OK_AND_ASSIGN(ObjectFile looper, Assemble(R"(
.text
.global main
main:
  push lr
  movi r4, 0
  movi r5, 600
  movi r6, 0
loop:
  call val
  add r4, r4, r0
  addi r5, r5, -1
  bne r5, r6, loop
  mov r0, r4
  pop lr
  ret
)", "flooper.o"));
  ASSERT_OK(server_->AddFragment("/obj/flooper.o", std::move(looper)));
  ASSERT_OK(server_->DefineMeta("/bin/flooper",
                                "(merge /lib/crt0.o /obj/flooper.o"
                                " (specialize \"lib-dynamic\" /lib/fval))"));

  uint64_t deferred_before = UpgradeStats().transfers_deferred->value();

  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/flooper", {"prog"}));
  Task* task = kernel_.FindTask(id);
  ASSERT_NE(task, nullptr);
  auto paused = kernel_.RunTask(*task, 100);
  ASSERT_FALSE(paused.ok());
  ASSERT_EQ(task->state(), TaskState::kRunnable);

  // The first transfer attempt is killed; the safepoint defers and a later
  // safepoint (past the retry window) completes the migration.
  FaultPlan plan;
  plan.Arm("upgrade.transfer", FaultSpec::Nth(1));
  ScopedFaultPlan scoped(std::move(plan));
  ASSERT_OK(server_->BeginUpgrade("/lib/fval", "(merge /obj/fval2.o)"));
  OmosServer::UpgradeStatus status = server_->DrainUpgrade();
  for (int round = 0; round < 32 && status.phase == UpgradePhase::kLinking; ++round) {
    status = server_->DrainUpgrade();
  }
  ASSERT_EQ(status.phase, UpgradePhase::kDraining) << status.error;

  ASSERT_OK(kernel_.RunTask(*task));
  int sum = task->exit_code();
  EXPECT_GT(sum, 600);   // some iterations ran v2
  EXPECT_LT(sum, 1800);  // but not all of them
  EXPECT_GE(UpgradeStats().transfers_deferred->value(), deferred_before + 1);

  server_->ReleaseTask(id);
  kernel_.DestroyTask(id);
  EXPECT_EQ(DrainToTerminal().phase, UpgradePhase::kDone);
}

TEST_F(UpgradeTest, KilledReclaimRetreatsAndRetries) {
  FaultPlan plan;
  plan.Arm("upgrade.reclaim", FaultSpec::Nth(1));
  ScopedFaultPlan scoped(std::move(plan));
  ASSERT_OK(server_->BeginUpgrade("/lib/addlib", "(merge /obj/addlib2.o)"));
  // The first reclaim attempt dies, the phase retreats to draining, and
  // DrainUpgrade's retry loop completes it.
  OmosServer::UpgradeStatus status = DrainToTerminal();
  EXPECT_EQ(status.phase, UpgradePhase::kDone) << status.error;
  EXPECT_GE(FaultSim::Fires("upgrade.reclaim"), 1u);
  ASSERT_OK_AND_ASSIGN(int code, ExecOnce());
  EXPECT_EQ(code, 51);
}

}  // namespace
}  // namespace omos
