// Unit tests for the mini-OS: SimFs, syscalls, cost accounting, stack/argv,
// the task table.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "src/os/kernel.h"
#include "src/support/faultsim.h"
#include "src/support/strings.h"
#include "src/os/sim_fs.h"
#include "tests/helpers.h"

namespace omos {
namespace {

TEST(SimFs, WriteAndLookup) {
  SimFs fs;
  fs.WriteFile("/etc/motd", "hello");
  ASSERT_TRUE(fs.Exists("/etc/motd"));
  ASSERT_OK_AND_ASSIGN(const SimFile* file, fs.Lookup("/etc/motd"));
  EXPECT_EQ(file->bytes.size(), 5u);
  EXPECT_NE(file->mode & kModeFile, 0u);
  // Parent directory implicitly created.
  ASSERT_OK_AND_ASSIGN(const SimFile* dir, fs.Lookup("/etc"));
  EXPECT_NE(dir->mode & kModeDir, 0u);
}

TEST(SimFs, PathNormalization) {
  SimFs fs;
  fs.WriteFile("//a///b/./c", "x");
  EXPECT_TRUE(fs.Exists("/a/b/c"));
  ASSERT_OK(fs.Lookup("/a/b/c/"));
}

// Reference: split on "/" and rejoin the non-empty, non-"." parts, with no
// fast path.
std::string SplitNormalize(std::string_view path) {
  std::string out = "/";
  for (const std::string& part : SplitString(path, '/')) {
    if (part.empty() || part == ".") {
      continue;
    }
    if (out.back() != '/') {
      out.push_back('/');
    }
    out += part;
  }
  return out;
}

TEST(SimFs, NormalizeFastPathAgreesWithSplitPath) {
  const std::pair<std::string_view, std::string_view> kTable[] = {
      {"/", "/"},           {"", "/"},         {".", "/"},          {"/.", "/"},
      {"..", "/.."},        {"/a/../b", "/a/../b"}, {"//a", "/a"},  {"/a//b", "/a/b"},
      {"/a/./b", "/a/b"},   {"/a/b/", "/a/b"}, {"/a/.", "/a"},      {"a/b", "/a/b"},
      {"/data", "/data"},   {"/.hidden", "/.hidden"}, {"/a./b", "/a./b"},
  };
  for (const auto& [in, want] : kTable) {
    EXPECT_EQ(SimFs::Normalize(in), want) << "'" << in << "'";
    EXPECT_EQ(SplitNormalize(in), want) << "'" << in << "'";
  }
  // Every string of up to 7 characters over {'/', '.', 'a'}.
  std::vector<std::string> paths = {""};
  for (size_t begin = 0; begin < paths.size(); ++begin) {
    std::string path = paths[begin];
    ASSERT_EQ(SimFs::Normalize(path), SplitNormalize(path)) << "'" << path << "'";
    if (path.size() < 7) {
      for (char c : {'/', '.', 'a'}) {
        paths.push_back(path + c);
      }
    }
  }
}

TEST(SimFs, ListDirSortedImmediateChildren) {
  SimFs fs;
  fs.WriteFile("/d/zebra", "1");
  fs.WriteFile("/d/apple", "2");
  fs.WriteFile("/d/sub/nested", "3");
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> names, fs.ListDir("/d"));
  EXPECT_EQ(names, (std::vector<std::string>{"apple", "sub", "zebra"}));
}

TEST(SimFs, ListDirErrors) {
  SimFs fs;
  fs.WriteFile("/f", "x");
  EXPECT_FALSE(fs.ListDir("/missing").ok());
  EXPECT_FALSE(fs.ListDir("/f").ok());
}

TEST(SimFs, RewriteKeepsInode) {
  SimFs fs;
  fs.WriteFile("/f", "one");
  uint32_t inode = (*fs.Lookup("/f"))->inode;
  fs.WriteFile("/f", "two");
  EXPECT_EQ((*fs.Lookup("/f"))->inode, inode);
  EXPECT_EQ((*fs.Lookup("/f"))->bytes.size(), 3u);
}

TEST(SimFs, FileWriteOverDirectoryIsRefused) {
  SimFs fs;
  fs.WriteFile("/data/a", "child");
  size_t files = fs.file_count();
  auto refused = fs.TryWriteFile("/data", "0123456789");
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.error().message().find("/data"), std::string::npos);
  EXPECT_FALSE(fs.TryWriteUnsynced("/data", {1, 2, 3}).ok());
  fs.WriteFile("/data", "0123456789");  // the legacy write refuses too
  EXPECT_EQ(fs.file_count(), files);
  ASSERT_OK_AND_ASSIGN(const SimFile* dir, fs.Lookup("/data"));
  EXPECT_NE(dir->mode & kModeDir, 0u);
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> names, fs.ListDir("/data"));
  EXPECT_EQ(names, (std::vector<std::string>{"a"}));
  EXPECT_OK(fs.Lookup("/data/a"));
}

TEST(SimFs, RenameOntoDirectoryIsRefused) {
  SimFs fs;
  fs.WriteFile("/data/a", "child");
  fs.WriteFile("/src", "0123456789");
  size_t files = fs.file_count();
  auto refused = fs.Rename("/src", "/data");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(refused.error().message().find("/data"), std::string::npos);
  EXPECT_EQ(fs.file_count(), files);
  EXPECT_OK(fs.Lookup("/src"));
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> names, fs.ListDir("/data"));
  EXPECT_EQ(names, (std::vector<std::string>{"a"}));
}

TEST(SimFs, WriteBelowRegularFileIsRefused) {
  SimFs fs;
  fs.WriteFile("/f", "file");
  size_t files = fs.file_count();
  auto refused = fs.TryWriteFile("/f/x", "below");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(refused.error().message().find("/f/x"), std::string::npos);
  EXPECT_FALSE(fs.TryWriteUnsynced("/f/y/z", {1}).ok());
  EXPECT_FALSE(fs.TryAppendUnsynced("/f/w", {1}).ok());
  fs.WriteFile("/f/x", "below");  // the legacy write refuses too
  fs.WriteFile("/g", "other");
  auto renamed = fs.Rename("/g", "/f/g");
  ASSERT_FALSE(renamed.ok());
  EXPECT_EQ(renamed.error().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(fs.file_count(), files + 1);
  EXPECT_FALSE(fs.Exists("/f/x"));
  ASSERT_OK_AND_ASSIGN(const SimFile* f, fs.Lookup("/f"));
  EXPECT_EQ(f->mode & kModeDir, 0u);
}

TEST(Syscalls, OpenReadClose) {
  Kernel kernel;
  kernel.fs().WriteFile("/greeting", "hello, world");
  ASSERT_OK_AND_ASSIGN(RunOutcome out, AssembleAndRun(kernel, R"(
.text
.global _start
_start:
  lea r0, path
  sys 3              ; open -> fd
  mov r4, r0
  lea r1, buf
  movi r2, 64
  sys 2              ; read -> n
  mov r5, r0
  movi r0, 1
  lea r1, buf
  mov r2, r5
  sys 1              ; write what we read
  mov r0, r4
  sys 4              ; close
  movi r0, 0
  sys 0
.data
path: .asciiz "/greeting"
.bss
buf: .space 64
)"));
  EXPECT_EQ(out.output, "hello, world");
}

TEST(Syscalls, OpenMissingFileReturnsMinusOne) {
  Kernel kernel;
  ASSERT_OK_AND_ASSIGN(RunOutcome out, AssembleAndRun(kernel, R"(
.text
.global _start
_start:
  lea r0, path
  sys 3
  sys 0              ; exit(fd)
.data
path: .asciiz "/nope"
)"));
  EXPECT_EQ(out.exit_code, -1);
}

TEST(Syscalls, StatFillsBuffer) {
  Kernel kernel;
  kernel.fs().WriteFile("/f", "12345");
  ASSERT_OK_AND_ASSIGN(RunOutcome out, AssembleAndRun(kernel, R"(
.text
.global _start
_start:
  lea r0, path
  lea r1, statbuf
  sys 7
  lea r1, statbuf
  ld r0, [r1+0]      ; size
  sys 0
.data
path: .asciiz "/f"
.bss
statbuf: .space 16
)"));
  EXPECT_EQ(out.exit_code, 5);
}

TEST(Syscalls, GetdentsPagination) {
  Kernel kernel;
  for (int i = 0; i < 5; ++i) {
    kernel.fs().WriteFile(StrCat("/dir/f", i), "x");
  }
  // Buffer holds 2 dirents; count total records over repeated calls.
  ASSERT_OK_AND_ASSIGN(RunOutcome out, AssembleAndRun(kernel, R"(
.text
.global _start
_start:
  lea r0, path
  sys 3
  mov r4, r0         ; fd
  movi r5, 0         ; record count
again:
  mov r0, r4
  lea r1, buf
  movi r2, 128       ; room for 2 records
  sys 6
  movi r1, 0
  beq r0, r1, done
  movi r1, 64
  div r0, r0, r1
  add r5, r5, r0
  br again
done:
  mov r0, r5
  sys 0
.data
path: .asciiz "/dir"
.bss
buf: .space 128
)"));
  EXPECT_EQ(out.exit_code, 5);
}

// Opens `dir`, then reads it with getdents into a buffer of `records`
// dirents at a time, and writes each batch to stdout as is.
std::string DumpDirSource(std::string_view dir, uint32_t records) {
  return StrCat(R"(
.text
.global _start
_start:
  lea r0, path
  sys 3
  mov r4, r0         ; fd
again:
  mov r0, r4
  lea r1, buf
  movi r2, )", records * kDirentSize, R"(
  sys 6
  movi r1, 0
  beq r0, r1, done
  mov r2, r0
  movi r0, 1
  lea r1, buf
  sys 1
  br again
done:
  movi r0, 0
  sys 0
.data
path: .asciiz ")", dir, R"("
.bss
buf: .space 128
)");
}

struct Dirent {
  std::string name;
  uint32_t inode, size, mode, mtime;
};

std::vector<Dirent> ParseDirents(const std::string& bytes) {
  auto get32 = [&](size_t at) {
    uint32_t v = 0;
    std::memcpy(&v, bytes.data() + at, 4);
    return v;
  };
  std::vector<Dirent> out;
  for (size_t at = 0; at + kDirentSize <= bytes.size(); at += kDirentSize) {
    out.push_back(Dirent{std::string(bytes.c_str() + at + 16), get32(at), get32(at + 4),
                         get32(at + 8), get32(at + 12)});
  }
  EXPECT_EQ(bytes.size() % kDirentSize, 0u);
  return out;
}

// A directory with files, a subdirectory that has entries of its own, and a
// sibling whose name sorts between the directory and its children.
void WriteTree(SimFs& fs) {
  fs.WriteFile("/dir/zeta", "zz");
  fs.WriteFile("/dir/alpha", "a");
  fs.WriteFile("/dir/sub/inner", "nested");
  fs.WriteFile("/dir/sub/deeper/x", "x");
  fs.WriteFile("/dir/mid-name", "12345");
  fs.WriteFile("/dir.bak/other", "o");
  fs.WriteFile("/dir-x", "sibling");
}

TEST(Syscalls, GetdentsReturnsListDirWithLookupMetadata) {
  for (uint32_t records : {1u, 2u}) {
    Kernel kernel;
    WriteTree(kernel.fs());
    ASSERT_OK_AND_ASSIGN(RunOutcome out,
                         AssembleAndRun(kernel, DumpDirSource("/dir", records)));
    ASSERT_EQ(out.exit_code, 0);
    ASSERT_OK_AND_ASSIGN(std::vector<std::string> names, kernel.fs().ListDir("/dir"));
    ASSERT_EQ(names, (std::vector<std::string>{"alpha", "mid-name", "sub", "zeta"}));
    std::vector<Dirent> got = ParseDirents(out.output);
    ASSERT_EQ(got.size(), names.size()) << "records per call " << records;
    for (size_t i = 0; i < names.size(); ++i) {
      ASSERT_OK_AND_ASSIGN(const SimFile* file, kernel.fs().Lookup("/dir/" + names[i]));
      EXPECT_EQ(got[i].name, names[i]);
      EXPECT_EQ(got[i].inode, file->inode) << names[i];
      EXPECT_EQ(got[i].size, file->bytes.size()) << names[i];
      EXPECT_EQ(got[i].mode, file->mode) << names[i];
      EXPECT_EQ(got[i].mtime, file->mtime) << names[i];
    }
  }
}

TEST(Syscalls, GetdentsOfRootListsTopLevelOnly) {
  Kernel kernel;
  WriteTree(kernel.fs());
  ASSERT_OK_AND_ASSIGN(RunOutcome out, AssembleAndRun(kernel, DumpDirSource("/", 2)));
  std::vector<std::string> names;
  for (const Dirent& d : ParseDirents(out.output)) {
    names.push_back(d.name);
  }
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> want, kernel.fs().ListDir("/"));
  EXPECT_EQ(names, want);
  EXPECT_EQ(names, (std::vector<std::string>{"dir", "dir-x", "dir.bak"}));
}

// One fs.read trip per entry; a fault skips that entry and the walk goes on.
// The open's own lookup is the first trip, so Nth(k + 1) hits entry k.
TEST(Syscalls, GetdentsReadFaultSkipsExactlyThatEntry) {
  const std::vector<std::string> all = {"alpha", "mid-name", "sub", "zeta"};
  for (uint32_t records : {1u, 2u}) {
    for (size_t k = 1; k <= all.size(); ++k) {
      Kernel kernel;
      WriteTree(kernel.fs());
      RunOutcome out;
      {
        ScopedFaultPlan plan(FaultPlan().Arm("fs.read", FaultSpec::Nth(k + 1)));
        ASSERT_OK_AND_ASSIGN(out, AssembleAndRun(kernel, DumpDirSource("/dir", records)));
        EXPECT_EQ(FaultSim::Fires("fs.read"), 1u);
        EXPECT_EQ(FaultSim::Hits("fs.read"), 1 + all.size());
      }
      std::vector<std::string> names;
      for (const Dirent& d : ParseDirents(out.output)) {
        names.push_back(d.name);
      }
      std::vector<std::string> want = all;
      want.erase(want.begin() + static_cast<std::ptrdiff_t>(k - 1));
      EXPECT_EQ(names, want) << "entry " << k << ", records per call " << records;
    }
  }
}

// A task with two writable pages at kScratch, for calling syscalls directly.
constexpr uint32_t kScratch = 0x400000;

Task& ScratchTask(Kernel& kernel) {
  Task& task = kernel.CreateTask("scratch");
  EXPECT_OK(kernel.MapDemandZero(task, kScratch, 2 * kPageSize, kProtRead | kProtWrite, "buf"));
  return task;
}

TEST(Syscalls, WriteAcrossPageBoundaryIsByteIdentical) {
  Kernel kernel;
  Task& task = ScratchTask(kernel);
  std::string msg;
  for (int i = 0; i < 300; ++i) {
    msg.push_back(static_cast<char>(i * 37 + 1));
  }
  uint32_t at = kScratch + kPageSize - 100;
  ASSERT_OK(task.space().WriteBytes(at, msg.data(), static_cast<uint32_t>(msg.size())));
  task.AppendOutput("before:");
  task.set_reg(0, 1);
  task.set_reg(1, at);
  task.set_reg(2, static_cast<uint32_t>(msg.size()));
  ASSERT_OK(kernel.Syscall(task, kSysWrite));
  EXPECT_EQ(task.reg(0), msg.size());
  EXPECT_EQ(task.output(), "before:" + msg);
}

TEST(Syscalls, WriteIntoUnmappedMemoryFaultsAndWritesNothing) {
  Kernel kernel;
  Task& task = ScratchTask(kernel);
  task.AppendOutput("kept");
  // Starts 10 bytes before the end of the mapping.
  uint32_t at = kScratch + 2 * kPageSize - 10;
  task.set_reg(0, 1);
  task.set_reg(1, at);
  task.set_reg(2, 20);
  Result<void> write = kernel.Syscall(task, kSysWrite);
  ASSERT_FALSE(write.ok());
  EXPECT_EQ(write.error().code(), ErrorCode::kExecFault);
  EXPECT_EQ(write.error().message(), StrCat("read fault at ", Hex32(kScratch + 2 * kPageSize)));
  EXPECT_EQ(task.output(), "kept");
}

TEST(Syscalls, PathArgumentAcrossPageBoundary) {
  Kernel kernel;
  kernel.fs().WriteFile("/some/long/path/to/a/file", "contents");
  Task& task = ScratchTask(kernel);
  std::string path = "/some/long/path/to/a/file";
  uint32_t at = kScratch + kPageSize - 7;
  ASSERT_OK(task.space().WriteBytes(at, path.c_str(), static_cast<uint32_t>(path.size() + 1)));
  task.set_reg(0, at);
  task.set_reg(1, kScratch);
  ASSERT_OK(kernel.Syscall(task, kSysStat));
  EXPECT_EQ(task.reg(0), 0u);
  ASSERT_OK_AND_ASSIGN(uint32_t size, task.space().Read32(kScratch));
  EXPECT_EQ(size, 8u);
}

TEST(Syscalls, BrkGrowsHeap) {
  Kernel kernel;
  ASSERT_OK_AND_ASSIGN(RunOutcome out, AssembleAndRun(kernel, R"(
.text
.global _start
_start:
  movi r0, 0
  sys 5              ; query brk
  mov r4, r0
  addi r0, r4, 8192
  sys 5              ; grow
  st r4, [r4+0]      ; touch new heap memory
  ld r1, [r4+0]
  sub r0, r1, r4     ; 0 if round-trip worked
  sys 0
)"));
  EXPECT_EQ(out.exit_code, 0);
}

TEST(Syscalls, TimeReturnsElapsed) {
  Kernel kernel;
  ASSERT_OK_AND_ASSIGN(RunOutcome out, AssembleAndRun(kernel, R"(
.text
.global _start
_start:
  sys 8
  sys 0
)"));
  EXPECT_GE(out.exit_code, 0);
}

TEST(Syscalls, UnknownSyscallFaults) {
  Kernel kernel;
  auto result = AssembleAndRun(kernel, ".text\n.global _start\n_start:\n  sys 99\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kExecFault);
}

TEST(Kernel, CostAccountingChargesSyscalls) {
  Kernel kernel;
  ASSERT_OK_AND_ASSIGN(RunOutcome quiet, AssembleAndRun(kernel, R"(
.text
.global _start
_start:
  movi r0, 0
  sys 0
)"));
  Kernel kernel2;
  ASSERT_OK_AND_ASSIGN(RunOutcome chatty, AssembleAndRun(kernel2, R"(
.text
.global _start
_start:
  movi r4, 0
loop:
  movi r0, 1
  lea r1, c
  movi r2, 1
  sys 1
  addi r4, r4, 1
  movi r1, 10
  blt r4, r1, loop
  movi r0, 0
  sys 0
.data
c: .ascii "x"
)"));
  EXPECT_GT(chatty.sys_cycles, quiet.sys_cycles + 10 * kernel2.costs().syscall_overhead - 1);
}

TEST(Kernel, InstructionBudgetKillsRunaway) {
  Kernel kernel;
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(R"(
.text
.global _start
_start:
  br _start
)", "spin.o"));
  Module m = Module::FromObject(std::make_shared<const ObjectFile>(std::move(object)));
  LayoutSpec layout;
  layout.entry_symbol = "_start";
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(m, layout, "spin"));
  Task& task = kernel.CreateTask("spin");
  ASSERT_OK(MapLinkedImage(kernel, task, image, ""));
  ASSERT_OK(StartTask(kernel, task, image.entry, {}));
  auto result = kernel.RunTask(task, 1000);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message().find("budget"), std::string::npos);
}

TEST(Kernel, PageCacheSharesText) {
  Kernel kernel;
  std::vector<uint8_t> text(kPageSize, 0x11);
  ASSERT_OK_AND_ASSIGN(const SegmentImage* a, kernel.PageCachePut("k", text));
  EXPECT_EQ(kernel.PageCacheGet("k"), a);
  EXPECT_EQ(kernel.PageCacheGet("other"), nullptr);
}

TEST(Kernel, ArgvConventions) {
  Kernel kernel;
  // exit(argc) with argv strings readable.
  ASSERT_OK_AND_ASSIGN(RunOutcome out, AssembleAndRun(kernel, R"(
.text
.global _start
_start:
  sys 0
)", {"prog", "a", "bc"}));
  EXPECT_EQ(out.exit_code, 3);
}

TEST(KernelTasks, ConcurrentCreateFindDestroy) {
  // Exec threads share one task table. Four threads create, find and
  // destroy their own tasks while a fifth polls FindTask for every id: each
  // owner sees its task until it destroys it, and no id is handed out twice.
  constexpr int kWorkers = 4;
  constexpr int kTasksPerWorker = 200;
  constexpr TaskId kIds = kWorkers * kTasksPerWorker;
  Kernel kernel;
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::vector<std::vector<TaskId>> ids(kWorkers);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kTasksPerWorker; ++i) {
        Task& task = kernel.CreateTask(StrCat("worker", w));
        ids[static_cast<size_t>(w)].push_back(task.id());
        errors.fetch_add(kernel.FindTask(task.id()) != &task);
        kernel.DestroyTask(task.id());
      }
    });
  }
  std::thread poller([&] {
    while (!done.load()) {
      for (TaskId id = 1; id <= kIds; ++id) {
        (void)kernel.FindTask(id);  // another thread's task: found or not, never used
      }
    }
  });
  for (std::thread& t : threads) {
    t.join();
  }
  done.store(true);
  poller.join();
  EXPECT_EQ(errors.load(), 0);
  std::set<TaskId> distinct;
  for (const std::vector<TaskId>& worker_ids : ids) {
    distinct.insert(worker_ids.begin(), worker_ids.end());
  }
  EXPECT_EQ(distinct.size(), kIds);
  for (TaskId id = 1; id <= kIds; ++id) {
    EXPECT_EQ(kernel.FindTask(id), nullptr) << id;
  }
  EXPECT_EQ(kernel.CreateTask("next").id(), kIds + 1);
}

}  // namespace
}  // namespace omos
