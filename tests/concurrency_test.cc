// Concurrency tests for the multi-threaded OMOS server (PR 3): parallel
// warm hits, single-flight miss deduplication, sharded-cache lifetime under
// eviction, redefinition and snapshot under load, parallel-relocation
// determinism, the layout a routine order earns, and fault-sim counter
// exactness. Everything uses fixed thread counts and iteration counts so
// failures reproduce.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/cache.h"
#include "src/core/server.h"
#include "src/ipc/message.h"
#include "src/support/faultsim.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"
#include "tests/helpers.h"

namespace omos {
namespace {

constexpr int kThreads = 8;

// Start `n` threads, release them through a spin barrier so they contend
// for real, and join them all.
void RunThreads(int n, const std::function<void(int)>& fn) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1, std::memory_order_relaxed);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      fn(i);
    });
  }
  while (ready.load(std::memory_order_relaxed) < n) {
    std::this_thread::yield();
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) {
    t.join();
  }
}

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

// The same library with add2 adding 12: a client computing (5 + 2) * 3 = 21
// on it computes (5 + 12) * 3 = 51.
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

constexpr char kCrt0[] = R"(
.text
.global _start
_start:
  call main
  sys 0
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

class ConcurrencyTest : public ::testing::Test {
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
    return out;
  }

  // /bin/dynprog binds /lib/addlib lazily (lib-dynamic): 21 on v1
  // (/obj/addlib.o), 51 on v2 (/obj/addlib2.o).
  void DefineDynprog() {
    ASSERT_OK_AND_ASSIGN(ObjectFile v2, Assemble(kAddLibV2, "addlib2.o"));
    ASSERT_OK(server_->AddFragment("/obj/addlib2.o", std::move(v2)));
    ASSERT_OK(server_->DefineLibrary("/lib/addlib", "(merge /obj/addlib.o)"));
    ASSERT_OK(server_->DefineMeta("/bin/dynprog",
                                  "(merge /lib/crt0.o /obj/client.o"
                                  " (specialize \"lib-dynamic\" /lib/addlib))"));
  }

  Kernel kernel_;
  std::unique_ptr<OmosServer> server_;
};

TEST_F(ConcurrencyTest, WarmHitsScaleAcrossThreads) {
  ASSERT_OK(server_->DefineMeta("/bin/prog",
                                "(merge /lib/crt0.o /obj/client.o /obj/addlib.o)"));
  ASSERT_OK(server_->Instantiate("/bin/prog", {}, nullptr));  // warm the cache
  uint64_t inserts_before = server_->cache_stats().inserts.load();

  constexpr int kIters = 200;
  std::atomic<int> failures{0};
  RunThreads(kThreads, [&](int) {
    for (int i = 0; i < kIters; ++i) {
      ImageCache::ReadLease lease(server_->cache());
      auto image = server_->Instantiate("/bin/prog", {}, nullptr);
      if (!image.ok() || (*image)->image.entry == 0u) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->cache_stats().hits.load(),
            static_cast<uint64_t>(kThreads) * kIters);
  // Warm hits never rebuild: no new insertions.
  EXPECT_EQ(server_->cache_stats().inserts.load(), inserts_before);
}

TEST_F(ConcurrencyTest, SingleFlightColdMissBuildsExactlyOnce) {
  ASSERT_OK(server_->DefineMeta("/bin/prog",
                                "(merge /lib/crt0.o /obj/client.o /obj/addlib.o)"));
  std::atomic<int> failures{0};
  RunThreads(kThreads, [&](int) {
    ImageCache::ReadLease lease(server_->cache());
    auto image = server_->Instantiate("/bin/prog", {}, nullptr);
    if (!image.ok()) {
      failures.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  // All eight concurrent misses resolve to one build: exactly one insert.
  EXPECT_EQ(server_->cache_stats().inserts.load(), 1u);
}

TEST_F(ConcurrencyTest, DistinctKeysBuildIndependently) {
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_OK(server_->DefineMeta(StrCat("/bin/prog", i),
                                  "(merge /lib/crt0.o /obj/client.o /obj/addlib.o)"));
  }
  std::atomic<int> failures{0};
  RunThreads(kThreads, [&](int i) {
    ImageCache::ReadLease lease(server_->cache());
    auto image = server_->Instantiate(StrCat("/bin/prog", i), {}, nullptr);
    if (!image.ok()) {
      failures.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server_->cache_stats().inserts.load(), static_cast<uint64_t>(kThreads));
}

TEST_F(ConcurrencyTest, RedefinitionUnderLoad) {
  ASSERT_OK(server_->DefineMeta("/bin/prog",
                                "(merge /lib/crt0.o /obj/client.o /obj/addlib.o)"));
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        ImageCache::ReadLease lease(server_->cache());
        auto image = server_->Instantiate("/bin/prog", {}, nullptr);
        if (!image.ok() || (*image)->image.entry == 0u) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Redefine the program (same two valid blueprints back and forth) while
  // the readers instantiate it. Every reader must see one or the other.
  for (int round = 0; round < 25; ++round) {
    const char* blueprint = (round % 2 == 0)
                                ? "(merge /lib/crt0.o /obj/client.o /obj/addlib.o)"
                                : "(merge /lib/crt0.o /obj/addlib.o /obj/client.o)";
    ASSERT_OK(server_->DefineMeta("/bin/prog", blueprint));
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  ASSERT_OK_AND_ASSIGN(const CachedImage* last, server_->Instantiate("/bin/prog", {}, nullptr));
  EXPECT_NE(last->image.entry, 0u);
}

TEST_F(ConcurrencyTest, SnapshotWhileServing) {
  ASSERT_OK(server_->DefineMeta("/bin/prog",
                                "(merge /lib/crt0.o /obj/client.o /obj/addlib.o)"));
  ASSERT_OK(server_->Instantiate("/bin/prog", {}, nullptr));
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        ImageCache::ReadLease lease(server_->cache());
        if (!server_->Instantiate("/bin/prog", {}, nullptr).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::string snapshot;
  for (int i = 0; i < 10; ++i) {
    snapshot = server_->Snapshot();
    EXPECT_FALSE(snapshot.empty());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // The snapshot taken under load restores into a working server.
  Kernel fresh_kernel;
  OmosServer restored(fresh_kernel);
  ASSERT_OK(restored.Restore(snapshot));
  ASSERT_OK_AND_ASSIGN(TaskId id, restored.IntegratedExec("/bin/prog", {"prog"}));
  Task* task = fresh_kernel.FindTask(id);
  ASSERT_NE(task, nullptr);
  ASSERT_OK(fresh_kernel.RunTask(*task));
  EXPECT_EQ(task->exit_code(), 21);
}

TEST_F(ConcurrencyTest, ParallelRelocationIsDeterministic) {
  // Two servers over two kernels build the same meta-object with the global
  // thread pool active; every build must produce the same bytes, whatever
  // else the process is running (the link relocates serially, in fragment
  // order, on the calling thread).
  ASSERT_OK(server_->DefineMeta("/bin/prog",
                                "(merge /lib/crt0.o /obj/client.o /obj/addlib.o)"));
  ASSERT_OK_AND_ASSIGN(const CachedImage* first, server_->Instantiate("/bin/prog", {}, nullptr));
  std::vector<uint8_t> text = first->image.text;
  std::vector<uint8_t> data = first->image.data;
  uint32_t entry = first->image.entry;

  for (int round = 0; round < 4; ++round) {
    Kernel other_kernel;
    OmosServer other(other_kernel);
    ASSERT_OK_AND_ASSIGN(ObjectFile crt0, Assemble(kCrt0, "crt0.o"));
    ASSERT_OK_AND_ASSIGN(ObjectFile lib, Assemble(kAddLib, "addlib.o"));
    ASSERT_OK_AND_ASSIGN(ObjectFile client, Assemble(kClient, "client.o"));
    ASSERT_OK(other.AddFragment("/lib/crt0.o", std::move(crt0)));
    ASSERT_OK(other.AddFragment("/obj/addlib.o", std::move(lib)));
    ASSERT_OK(other.AddFragment("/obj/client.o", std::move(client)));
    ASSERT_OK(other.DefineMeta("/bin/prog",
                               "(merge /lib/crt0.o /obj/client.o /obj/addlib.o)"));
    ASSERT_OK_AND_ASSIGN(const CachedImage* image, other.Instantiate("/bin/prog", {}, nullptr));
    EXPECT_EQ(image->image.text, text);
    EXPECT_EQ(image->image.data, data);
    EXPECT_EQ(image->image.entry, entry);
  }
}

// Exporting fragments whose names are spread out of insertion order, merged
// into one module: every reference binds within it, so a link shares the
// module's symbol space instead of binding a copy.
Result<Module> ManyExportsModule() {
  std::vector<Module> parts;
  for (int f = 0; f < 24; ++f) {
    std::string text = ".text\n";
    for (int k = 0; k < 6; ++k) {
      std::string name = StrCat("sym_", (f * 37 + k * 11) % 97, "_", f, "_", k);
      text += StrCat(".global ", name, "\n", name, ":\n  ret\n");
    }
    OMOS_TRY(ObjectFile object, Assemble(text, StrCat("e", f, ".o")));
    parts.push_back(Module::FromObject(std::make_shared<const ObjectFile>(std::move(object))));
  }
  return Module::MergeAll(parts);
}

TEST(ExportOrder, ConcurrentLinksOfOneSpaceShareOneOrder) {
  // Four threads link the same module at once, so each reads the space's
  // export order while another may be computing it. The order is computed
  // once, and every link emits the symbol table a link of a fresh, equal
  // module does.
  ASSERT_OK_AND_ASSIGN(Module shared, ManyExportsModule());
  ASSERT_OK_AND_ASSIGN(Module fresh, ManyExportsModule());
  ASSERT_OK_AND_ASSIGN(LinkedImage reference, LinkImage(fresh, LayoutSpec{}, "ref"));
  ASSERT_EQ(reference.symbols.size(), 24u * 6u);
  ASSERT_TRUE(std::is_sorted(
      reference.symbols.begin(), reference.symbols.end(),
      [](const ImageSymbol& a, const ImageSymbol& b) { return a.name < b.name; }));
  ASSERT_OK_AND_ASSIGN(const SymbolSpace* space, shared.Space());
  constexpr int kLinkThreads = 4;
  std::vector<const SymId*> orders(kLinkThreads);
  std::atomic<int> mismatches{0};
  RunThreads(kLinkThreads, [&](int t) {
    for (int i = 0; i < 20; ++i) {
      auto image = LinkImage(shared, LayoutSpec{}, "ref");
      bool same = image.ok() && image->symbols.size() == reference.symbols.size();
      for (size_t k = 0; same && k < reference.symbols.size(); ++k) {
        same = image->symbols[k].name == reference.symbols[k].name &&
               image->symbols[k].addr == reference.symbols[k].addr;
      }
      if (!same) {
        mismatches.fetch_add(1);
      }
    }
    orders[t] = space->ExportOrder().data();
  });
  EXPECT_EQ(mismatches.load(), 0);
  for (const SymId* order : orders) {
    EXPECT_EQ(order, orders[0]);
  }
}

// Fragments that call each other in a ring and keep their own addresses in
// data: every relocation's value depends on the bases.
Result<Module> CallRingModule() {
  std::vector<Module> parts;
  for (int f = 0; f < 24; ++f) {
    std::string text = StrCat(".text\n.global fn_", f, "\nfn_", f, ":\n  call fn_", (f + 1) % 24,
                              "\n  lea r1, slot_", f, "\n  ret\n.data\n.align 4\nslot_", f,
                              ": .word fn_", f, "\n");
    OMOS_TRY(ObjectFile object, Assemble(text, StrCat("r", f, ".o")));
    parts.push_back(Module::FromObject(std::make_shared<const ObjectFile>(std::move(object))));
  }
  return Module::MergeAll(parts);
}

TEST(LinkPlan, ConcurrentRelinksAtDifferentBases) {
  // Four threads link one module at four bases at once: the first links
  // race to build the space's plan, and every later one applies it while
  // the others do. Each result equals a serial link of an equal module.
  // Each thread links its own copy, as each build gets a memoized module
  // by value; the copies share one symbol space.
  constexpr int kLinkThreads = 4;
  auto layout_for = [](int t) {
    LayoutSpec layout;
    layout.text_base = 0x1000000 + 0x100000 * static_cast<uint32_t>(t);
    return layout;
  };
  ASSERT_OK_AND_ASSIGN(Module fresh, CallRingModule());
  std::vector<LinkedImage> serial;
  for (int t = 0; t < kLinkThreads; ++t) {
    ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(fresh, layout_for(t), "ring"));
    serial.push_back(std::move(image));
  }
  ASSERT_NE(serial[0].text, serial[1].text);  // the bases show in the bytes
  ASSERT_OK_AND_ASSIGN(Module shared, CallRingModule());
  std::atomic<int> mismatches{0};
  RunThreads(kLinkThreads, [&](int t) {
    Module mine = shared;
    for (int i = 0; i < 20; ++i) {
      auto image = LinkImage(mine, layout_for(t), "ring");
      const LinkedImage& want = serial[static_cast<size_t>(t)];
      bool same = image.ok() && image->text == want.text && image->data == want.data &&
                  image->data_base == want.data_base &&
                  image->symbols.size() == want.symbols.size() &&
                  image->stats.relocations_applied == want.stats.relocations_applied &&
                  image->stats.refs_bound == want.stats.refs_bound;
      for (size_t k = 0; same && k < want.symbols.size(); ++k) {
        same = image->symbols[k].name == want.symbols[k].name &&
               image->symbols[k].addr == want.symbols[k].addr;
      }
      if (!same) {
        mismatches.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ConcurrencyTest, BackgroundOptimizerSwapsInReorderedImage) {
  ASSERT_OK(server_->DefineMeta("/bin/prog",
                                "(merge /lib/crt0.o /obj/client.o /obj/addlib.o)"));
  TextLayout unordered;
  {
    ImageCache::ReadLease lease(server_->cache());
    ASSERT_OK_AND_ASSIGN(const CachedImage* plain, server_->Instantiate("/bin/prog", {}, nullptr));
    unordered = TextLayoutOf(plain->image.symbols);
  }
  // Gather a call-frequency profile the way the paper does (§4.1): run a
  // monitored instance, then derive the preferred routine order.
  Specialization monitor{"monitor", {}};
  ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/prog", {"prog"}, monitor));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, RunTaskById(id));
  EXPECT_EQ(out.exit_code, 21);
  ASSERT_OK(server_->DerivePreferredOrder("/bin/prog"));

  // The order evicted every image of the path: the next default build
  // applies it on its own request, and warm hits serve that image.
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(server_->Instantiate("/bin/prog", {}, nullptr));
  }

  // The default image has the layout of the explicit reorder build.
  ImageCache::ReadLease lease(server_->cache());
  ASSERT_OK_AND_ASSIGN(const CachedImage* reordered,
                       server_->Instantiate("/bin/prog", Specialization{"reorder", {}}, nullptr));
  ASSERT_OK_AND_ASSIGN(const CachedImage* served, server_->Instantiate("/bin/prog", {}, nullptr));
  EXPECT_EQ(TextLayoutOf(served->image.symbols), TextLayoutOf(reordered->image.symbols));
  EXPECT_NE(TextLayoutOf(served->image.symbols), unordered);
  EXPECT_EQ(served->image.text.size(), reordered->image.text.size());
  ASSERT_OK_AND_ASSIGN(TaskId run, server_->IntegratedExec("/bin/prog", {"prog"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome run_out, RunTaskById(run));
  EXPECT_EQ(run_out.exit_code, 21);
}

TEST_F(ConcurrencyTest, ReferenceFromPutOutlivesEvict) {
  ImageCache cache(1 << 20);
  CachedImage ci;
  ci.key = "a";
  ci.image.name = "a";
  ci.image.text.assign(8192, 0xAB);
  ImageRef held = cache.Put("a", std::move(ci));
  ASSERT_NE(held, nullptr);
  std::weak_ptr<const CachedImage> watch = held;
  cache.Evict("a");
  EXPECT_FALSE(cache.Contains("a"));
  EXPECT_EQ(cache.stats().evictions.load(), 1u);
  // Eviction dropped only the cache's reference.
  EXPECT_EQ(held->image.text.size(), 8192u);
  EXPECT_EQ(held->image.text[0], 0xAB);
  held.reset();
  EXPECT_TRUE(watch.expired());  // freed on the last drop
}

TEST_F(ConcurrencyTest, CacheHammerMixedOperations) {
  ImageCache cache(64 << 10);  // small budget: constant eviction pressure
  auto make_image = [](const std::string& key) {
    CachedImage ci;
    ci.key = key;
    ci.image.name = key;
    ci.image.text.assign(4096, static_cast<uint8_t>(key.back()));
    return ci;
  };
  std::atomic<int> failures{0};
  RunThreads(kThreads, [&](int t) {
    for (int i = 0; i < 300; ++i) {
      std::string key = StrCat("img", (t * 7 + i) % 24);
      ImageRef got = cache.Get(key);
      if (got == nullptr) {
        got = cache.Put(key, make_image(key));
      }
      if (got == nullptr || got->image.text.size() != 4096) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      if (i % 37 == 0) {
        cache.Evict(key);
        if (got != nullptr && got->image.text.size() != 4096) {  // held past its eviction
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
  // The global byte budget held under concurrent insertion.
  EXPECT_LE(cache.stats().bytes_cached.load(), 64u << 10);
}

// A program whose image is four frames: three pages of text, one of data.
// `answer` picks the version, so alternating answers redefines its input.
Result<ObjectFile> FourPageMain(int answer) {
  return Assemble(StrCat(R"(
.text
.global main
main:
  movi r0, )",
                         answer, R"(
  ret
  .space 8192
.data
.global state
state:
  .word 1
)"),
                  "big.o");
}

class LeaseTest : public ConcurrencyTest {
 protected:
  void SetUp() override {
    ConcurrencyTest::SetUp();
    ASSERT_NO_FATAL_FAILURE(Redefine(1));
    ASSERT_OK(server_->DefineMeta("/bin/big", "(merge /lib/crt0.o /obj/big.o)"));
    empty_ = kernel_.phys().frames_in_use();
  }

  void Redefine(int answer) {
    ASSERT_OK_AND_ASSIGN(ObjectFile object, FourPageMain(answer));
    ASSERT_OK(server_->AddFragment("/obj/big.o", std::move(object)));
  }

  // Frames held by images beyond the state before the first Instantiate.
  uint32_t ImageFrames() { return kernel_.phys().frames_in_use() - empty_; }

  static constexpr uint32_t kFramesPerImage = 4;
  uint32_t empty_ = 0;
};

TEST_F(LeaseTest, InstantiateResultOutlivesEvictionWhileLeaseOpen) {
  {
    ImageCache::ReadLease lease(server_->cache());
    ASSERT_OK_AND_ASSIGN(const CachedImage* image, server_->Instantiate("/bin/big", {}, nullptr));
    EXPECT_EQ(ImageFrames(), kFramesPerImage);
    ASSERT_NO_FATAL_FAILURE(Redefine(2));
    EXPECT_EQ(server_->cache().entry_count(), 0u);
    EXPECT_EQ(ImageFrames(), kFramesPerImage);  // pinned by the lease
    EXPECT_EQ(image->image.data.size(), 4u);
    EXPECT_NE(image->image.FindSymbol("main"), nullptr);
  }
  EXPECT_EQ(ImageFrames(), 0u);  // freed once the pinning lease closed
}

TEST_F(LeaseTest, PinSurvivesAnOuterLeaseClosingFirst) {
  auto outer = std::make_unique<ImageCache::ReadLease>(server_->cache());
  {
    ImageCache::ReadLease inner(server_->cache());
    ASSERT_OK_AND_ASSIGN(const CachedImage* image, server_->Instantiate("/bin/big", {}, nullptr));
    ASSERT_NO_FATAL_FAILURE(Redefine(2));
    outer.reset();  // out of order: the inner lease holds the pin
    EXPECT_EQ(ImageFrames(), kFramesPerImage);
    EXPECT_EQ(image->image.data.size(), 4u);
    EXPECT_NE(image->image.FindSymbol("main"), nullptr);
  }
  EXPECT_EQ(ImageFrames(), 0u);
  // The thread's lease list is empty again: a pointer taken with no lease
  // open lives until its eviction.
  ASSERT_OK(server_->Instantiate("/bin/big", {}, nullptr));
  ASSERT_NO_FATAL_FAILURE(Redefine(1));
  EXPECT_EQ(ImageFrames(), 0u);
}

TEST_F(LeaseTest, LeaseOnAnotherThreadPinsNothingHere) {
  std::atomic<bool> opened{false};
  std::atomic<bool> release{false};
  std::thread other([&] {
    ImageCache::ReadLease lease(server_->cache());
    opened.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  while (!opened.load()) {
    std::this_thread::yield();
  }
  {
    ImageCache::ReadLease mine(server_->cache());
    ASSERT_OK(server_->Instantiate("/bin/big", {}, nullptr));
  }
  ASSERT_OK(server_->Instantiate("/bin/big", {}, nullptr));  // no lease here
  ASSERT_NO_FATAL_FAILURE(Redefine(2));
  EXPECT_EQ(ImageFrames(), 0u);  // the other thread's open lease held nothing
  release.store(true);
  other.join();
}

TEST_F(LeaseTest, AlternatingLeasesDrainEvictedImages) {
  // Two leases hand over to each other (open the next, then close the
  // previous) while the image's input is redefined 200 times. Each closing
  // lease frees the image it pinned.
  std::optional<ImageCache::ReadLease> leases[2];
  leases[0].emplace(server_->cache());
  ASSERT_OK(server_->Instantiate("/bin/big", {}, nullptr));
  const uint32_t baseline = kernel_.phys().frames_in_use();  // one image cached
  ASSERT_EQ(baseline - empty_, kFramesPerImage);
  for (int i = 0; i < 200; ++i) {
    ASSERT_NO_FATAL_FAILURE(Redefine(2 + i % 2));
    leases[(i + 1) % 2].emplace(server_->cache());
    ASSERT_OK(server_->Instantiate("/bin/big", {}, nullptr));
    // The new image (cached, pinned by the new lease) and the evicted one
    // the previous lease pins.
    ASSERT_EQ(kernel_.phys().frames_in_use(), baseline + kFramesPerImage) << "round " << i;
    leases[i % 2].reset();
    ASSERT_EQ(kernel_.phys().frames_in_use(), baseline) << "round " << i;
  }
  leases[0].reset();
  leases[1].reset();
  EXPECT_EQ(kernel_.phys().frames_in_use(), baseline);
}

TEST_F(ConcurrencyTest, FaultSimTotalsExactUnderConcurrentTrips) {
  FaultPlan plan;
  plan.Arm("test.site", FaultSpec::Every(1));
  ScopedFaultPlan scoped(std::move(plan));
  constexpr int kTrips = 1000;
  RunThreads(kThreads, [&](int) {
    for (int i = 0; i < kTrips; ++i) {
      FaultSim::Trip("test.site");
    }
  });
  // Which thread observes a given fire is scheduling-dependent, but the
  // totals are exact (see the SimState comment in faultsim.cc).
  EXPECT_EQ(FaultSim::Hits("test.site"), static_cast<uint64_t>(kThreads) * kTrips);
  EXPECT_EQ(FaultSim::TotalFires(), static_cast<uint64_t>(kThreads) * kTrips);
}

// CoW exec under threads (PR 5): all tasks map the same cached data master
// and every one of them writes it, so the interpreter threads race to break
// the very same master frames (atomic refcounts in PhysMemory) while their
// stacks demand-fill concurrently. Exit codes prove per-task isolation;
// frame accounting proves the concurrent breaks leaked nothing.
TEST_F(ConcurrencyTest, ConcurrentCowBreaksOnSharedImage) {
  constexpr char kCounter[] = R"(
.text
.global main
main:
  lea r1, counter
  ld r0, [r1+0]
  addi r0, r0, 1
  st r0, [r1+0]      ; CoW break on the shared master data frame
  lea r2, scratch
  st r0, [r2+0]      ; demand-zero fill in bss
  ld r0, [r1+0]
  ret
.data
.align 4
counter: .word 7
.bss
scratch: .space 64
)";
  ASSERT_OK_AND_ASSIGN(ObjectFile counter, Assemble(kCounter, "counter.o"));
  ASSERT_OK(server_->AddFragment("/obj/counter.o", std::move(counter)));
  ASSERT_OK(server_->DefineMeta("/bin/count", "(merge /lib/crt0.o /obj/counter.o)"));

  // Warm the cache so every round below maps the same master image.
  ASSERT_OK_AND_ASSIGN(TaskId warm, server_->IntegratedExec("/bin/count", {"count"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome w, RunTaskById(warm));
  ASSERT_EQ(w.exit_code, 8);
  server_->ReleaseTask(warm);
  kernel_.DestroyTask(warm);
  uint32_t baseline = kernel_.phys().frames_in_use();

  constexpr int kRounds = 6;
  std::atomic<int> failures{0};
  for (int round = 0; round < kRounds; ++round) {
    // Exec on the main thread (server-side mapping), run on worker threads
    // (interpreter faults race on the shared frames), destroy on the main
    // thread again.
    std::vector<TaskId> ids;
    for (int i = 0; i < kThreads; ++i) {
      ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/count", {"count"}));
      ids.push_back(id);
    }
    RunThreads(kThreads, [&](int i) {
      Task* task = kernel_.FindTask(ids[i]);
      if (task == nullptr || !kernel_.RunTask(*task).ok() || task->exit_code() != 8) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (TaskId id : ids) {
      server_->ReleaseTask(id);
      kernel_.DestroyTask(id);
    }
  }
  EXPECT_EQ(failures.load(), 0);
  // Every privatized frame went back to the pool.
  EXPECT_EQ(kernel_.phys().frames_in_use(), baseline);
}

// A placement lease frees its ranges on whichever thread drops the last
// reference, taking the solver's lock. Two threads place and drop the same
// key (one's drop races the other's reuse inside Place), another places
// keys whose hints collide, and another re-solves, re-packs and adopts the
// moves meanwhile: a drop inside a solver call would self-deadlock, and a
// range freed twice or never would show in the final count.
TEST(SolverConcurrency, LastReferenceDropsWhilePlacingAndSolving) {
  ConstraintSolver solver;
  constexpr int kRounds = 2000;
  std::atomic<int> failures{0};
  RunThreads(4, [&](int thread) {
    PlacementHints hint;
    hint.text_base = 0x02000000;
    for (int i = 0; i < kRounds; ++i) {
      if (thread < 2) {
        auto lease = solver.Place("shared", 0x2000, 0x1000);
        if (!lease.ok() || (*lease)->object() != "shared") {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (thread == 2) {
        auto lease = solver.Place(StrCat("clash", i % 8), 0x1000, 0x1000, hint);
        if (!lease.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        // A move retires its objects and adopts their new homes, pinned.
        solver.AdoptPlacements(i % 2 == 0 ? solver.SolveNamespace() : solver.OptimizePlacements());
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
  // Every reference is gone, and with it every range but the adopted homes
  // the solver pins until an image publishes; retiring the keys drops them.
  solver.Retire("shared");
  for (int i = 0; i < 8; ++i) {
    solver.Retire(StrCat("clash", i));
  }
  EXPECT_EQ(solver.placed_count(), 0u);
}

// The last reference to a superseded image drops on an exec thread when it
// releases its task, while other threads place (cold builds) and re-solve
// (the re-pack and the prelink relink). Once the tasks are gone, the only
// placements left are the current ones the cache holds.
TEST_F(ConcurrencyTest, ImageReleaseRacesPlacementAndResolve) {
  ASSERT_OK(server_->DefineLibrary("/lib/addlib",
                                   "(constraint-list \"T\" 0x3000000)\n(merge /obj/addlib.o)"));
  ASSERT_OK(server_->DefineMeta("/bin/prog", "(merge /lib/crt0.o /obj/client.o /lib/addlib)"));
  ASSERT_OK(server_->DefineLibrary("/lib/clash",
                                   "(constraint-list \"T\" 0x3000000)\n(merge /obj/addlib.o)"));
  ASSERT_OK(server_->PrelinkNamespace("/bin"));
  const Specialization constrained{"lib-constrained", {}};
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> execs{0};
  std::atomic<int> passes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        execs.fetch_add(1, std::memory_order_relaxed);
        auto id = server_->IntegratedExec("/bin/prog", {"prog"});
        if (!id.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        auto out = RunTaskById(*id);
        if (!out.ok() || (out->exit_code != 21 && out->exit_code != 51)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        server_->ReleaseTask(*id);
        kernel_.DestroyTask(*id);
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      server_->cache().Evict(MakeCacheKey("/lib/clash", constrained.ToKeyString()));
      if (!server_->Instantiate("/lib/clash", constrained, nullptr).ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      (void)server_->OptimizePlacements();
      server_->DrainBackgroundWork();
      passes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int round = 0; round < 30; ++round) {
    // Let the execs and the re-solver make progress under each version.
    for (int seen = execs.load(), pass = passes.load();
         execs.load() < seen + 4 || passes.load() < pass + 1;) {
      std::this_thread::yield();
    }
    ASSERT_OK_AND_ASSIGN(ObjectFile lib, Assemble(round % 2 == 0 ? kAddLibV2 : kAddLib, "addlib.o"));
    ASSERT_OK(server_->AddFragment("/obj/addlib.o", std::move(lib)));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) {
    t.join();
  }
  server_->DrainBackgroundWork();
  EXPECT_EQ(failures.load(), 0);
  std::string snapshot = server_->Snapshot();
  size_t rows = 0;
  for (size_t at = snapshot.find("\nplace "); at != std::string::npos;
       at = snapshot.find("\nplace ", at + 1)) {
    ++rows;
  }
  EXPECT_EQ(server_->placement_count(), rows);
}

TEST_F(ConcurrencyTest, ServeAsyncAnswersOnPoolThread) {
  ASSERT_OK(server_->DefineMeta("/bin/prog",
                                "(merge /lib/crt0.o /obj/client.o /obj/addlib.o)"));
  constexpr int kRequests = 16;
  std::atomic<int> done{0};
  std::atomic<int> failures{0};
  for (int i = 0; i < kRequests; ++i) {
    OmosRequest request;
    request.op = OmosOp::kListNamespace;
    request.path = "/bin";
    server_->ServeAsync(EncodeRequest(request), [&](std::vector<uint8_t> bytes) {
      auto reply = DecodeReply(bytes);
      if (!reply.ok() || !reply->ok || reply->names.empty()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  ThreadPool::Global().WaitIdle();
  EXPECT_EQ(done.load(std::memory_order_acquire), kRequests);
  EXPECT_EQ(failures.load(), 0);
}

// Live upgrade under exec load (PR 9): worker threads run lib-dynamic
// clients through the upgrade window while the main thread links, repoints
// and reclaims. Safepoint frame transfers happen on the worker threads
// (the interpreter loop calls the server's safepoint hook there), racing
// DrainUpgrade on the main thread. Every client must exit on a consistent
// version: 21 (pure v1) or 51 (pure v2) — anything else means a torn
// migration.
TEST_F(ConcurrencyTest, ConcurrentUpgradeAndExec) {
  ASSERT_NO_FATAL_FAILURE(DefineDynprog());

  constexpr int kRounds = 6;
  std::atomic<int> bad{0};
  for (int round = 0; round < kRounds; ++round) {
    // Exec on the main thread (server-side mapping), run on worker threads.
    std::vector<TaskId> ids;
    for (int i = 0; i < kThreads; ++i) {
      ASSERT_OK_AND_ASSIGN(TaskId id, server_->IntegratedExec("/bin/dynprog", {"prog"}));
      ids.push_back(id);
    }
    if (round == 1) {
      ASSERT_OK(server_->BeginUpgrade("/lib/addlib", "(merge /obj/addlib2.o)"));
    }
    std::atomic<int> finished{0};
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      workers.emplace_back([&, i] {
        Task* task = kernel_.FindTask(ids[i]);
        if (task == nullptr || !kernel_.RunTask(*task).ok() ||
            (task->exit_code() != 21 && task->exit_code() != 51)) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
        finished.fetch_add(1, std::memory_order_release);
      });
    }
    // Drive the upgrade from this thread while the workers run through
    // their safepoints — the contention under test.
    while (finished.load(std::memory_order_acquire) < kThreads) {
      server_->DrainUpgrade();
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

  OmosServer::UpgradeStatus status = server_->DrainUpgrade();
  for (int i = 0; i < 64 && !status.terminal(); ++i) {
    status = server_->DrainUpgrade();
  }
  EXPECT_EQ(status.phase, UpgradePhase::kDone) << status.error;
  // Steady state: fresh execs run pure v2.
  ASSERT_OK_AND_ASSIGN(TaskId fresh, server_->IntegratedExec("/bin/dynprog", {"prog"}));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, RunTaskById(fresh));
  EXPECT_EQ(out.exit_code, 51);
}

// Once the repoint has run, no task gains the old version of an upgraded
// library without the drain waiting for it (docs/upgrade.md). Three threads
// exec and run /bin/dynprog through each repoint, so runtimes get installed
// and lazy slots bound while the repoint rewrites the table. A pin task that
// mapped the old version and exited keeps the job draining, so each round
// can compare the live tasks that map the old add2 with the pending count.
TEST_F(ConcurrencyTest, ExecsAndDloadsRacingARepointAreDrained) {
  ASSERT_NO_FATAL_FAILURE(DefineDynprog());
  Specialization impl_spec;
  impl_spec.name = "lib-dynamic-impl";
  constexpr int kRounds = 100;
  constexpr int kRacers = 3;
  int missed_rounds = 0;
  std::atomic<int> bad{0};
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_OK_AND_ASSIGN(const CachedImage* old_impl,
                         server_->Instantiate("/lib/addlib", impl_spec, nullptr));
    const ImageSymbol* add2 = old_impl->image.FindSymbol("add2");
    ASSERT_NE(add2, nullptr);
    const uint32_t old_add2 = add2->addr;
    ASSERT_OK_AND_ASSIGN(TaskId pin, server_->IntegratedExec("/bin/dynprog", {"prog"}));
    ASSERT_OK(RunTaskById(pin));

    std::atomic<bool> stop{false};
    std::vector<std::vector<TaskId>> ids(kRacers);
    std::vector<std::thread> racers;
    for (int t = 0; t < kRacers; ++t) {
      racers.emplace_back([&, t] {
        while (!stop.load(std::memory_order_acquire)) {
          auto id = server_->IntegratedExec("/bin/dynprog", {"prog"});
          if (!id.ok()) {
            bad.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          ids[t].push_back(*id);
          auto out = RunTaskById(*id);
          if (!out.ok() || (out->exit_code != 21 && out->exit_code != 51)) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    Result<uint64_t> begun = server_->BeginUpgrade(
        "/lib/addlib", round % 2 == 0 ? "(merge /obj/addlib2.o)" : "(merge /obj/addlib.o)");
    if (begun.ok()) {
      server_->DrainUpgrade();
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& racer : racers) {
      racer.join();
    }
    ASSERT_OK(begun);

    OmosServer::UpgradeStatus status = server_->UpgradeStatusNow();
    EXPECT_EQ(status.phase, UpgradePhase::kDraining) << status.error;
    ids[0].push_back(pin);
    size_t old_mappers = 0;
    for (const std::vector<TaskId>& racer_ids : ids) {
      for (TaskId id : racer_ids) {
        ASSERT_OK_AND_ASSIGN(std::vector<ImageSymbol> symbols, server_->SymbolsForTask(id));
        if (std::any_of(symbols.begin(), symbols.end(), [&](const ImageSymbol& sym) {
              return sym.name == "add2" && sym.addr == old_add2;
            })) {
          ++old_mappers;
        }
      }
    }
    if (old_mappers > status.tasks_pending) {
      ++missed_rounds;
    }
    for (const std::vector<TaskId>& racer_ids : ids) {
      for (TaskId id : racer_ids) {
        server_->ReleaseTask(id);
        kernel_.DestroyTask(id);
      }
    }
    status = server_->DrainUpgrade();
    for (int i = 0; i < 64 && !status.terminal(); ++i) {
      status = server_->DrainUpgrade();
    }
    ASSERT_EQ(status.phase, UpgradePhase::kDone) << status.error;
  }
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(missed_rounds, 0) << "rounds in which a task mapped the old version undrained";
}

// Every exec path maps, bills and starts its task with no server-wide kernel
// lock: only the creating exec path and then the driving thread touch a task.
// One thread per exec path execs and runs a program that loads a class, calls
// it, unloads it and then binds a lazy slot, while a fourth thread cold-builds
// fresh images, whose segments allocate frames concurrently.
TEST_F(ConcurrencyTest, ExecPathsRunWithoutAServerKernelLock) {
  ASSERT_NO_FATAL_FAILURE(DefineDynprog());
  ASSERT_OK_AND_ASSIGN(ObjectFile plugin, Assemble(R"(
.text
.global plugin_fn
plugin_fn:
  movi r0, 30
  ret
.data
pdata: .word 9
)", "plugin.o"));
  ASSERT_OK(server_->AddFragment("/obj/plugin.o", std::move(plugin)));
  // Exits 32 and writes "ok" when the class loads (its entry is its text
  // base), returns 30, unloads, and add2 binds on first call: 30 + 2.
  ASSERT_OK_AND_ASSIGN(ObjectFile loader, Assemble(StrCat(R"asm(
.text
.global main
main:
  push lr
  lea r0, blueprint
  lea r1, wanted
  sys )asm", kSysOmosLoad, R"asm(
  movi r1, 0
  beq r0, r1, fail
  mov r7, r0
  callr r0
  mov r6, r0
  mov r0, r7
  sys )asm", kSysOmosUnload, R"asm(
  movi r1, 0
  bne r0, r1, fail
  movi r0, 1
  lea r1, message
  movi r2, 2
  sys )asm", kSysWrite, R"asm(
  mov r0, r6
  call add2
  pop lr
  ret
fail:
  movi r0, 255
  pop lr
  ret
.data
blueprint: .asciiz "(merge /obj/plugin.o)"
wanted: .asciiz "plugin_fn"
message: .asciiz "ok"
)asm"), "loader.o"));
  ASSERT_OK(server_->AddFragment("/obj/loader.o", std::move(loader)));
  ASSERT_OK(server_->DefineMeta("/bin/loader",
                                "(merge /lib/crt0.o /obj/loader.o"
                                " (specialize \"lib-dynamic\" /lib/addlib))"));
  server_->SetExecTransport(OmosServer::ExecTransport::kRing);

  constexpr int kIterations = 50;
  using Exec = std::function<Result<TaskId>()>;
  const std::vector<Exec> execs = {
      [&] { return server_->IntegratedExec("/bin/loader", {"loader"}); },
      [&] { return server_->PrelinkedExec("/bin/loader", {"loader"}); },
      [&] { return server_->BootstrapExec("/bin/loader", {"loader"}); },
  };
  std::atomic<int> failures{0};
  RunThreads(static_cast<int>(execs.size()) + 1, [&](int t) {
    for (int i = 0; i < kIterations; ++i) {
      if (t == static_cast<int>(execs.size())) {
        std::string path = StrCat("/bin/cold", i);
        if (!server_->DefineMeta(path, "(merge /lib/crt0.o /obj/client.o /obj/addlib.o)").ok() ||
            !server_->Instantiate(path, {}, nullptr).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      Result<TaskId> id = execs[t]();
      if (!id.ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Result<RunOutcome> out = RunTaskById(*id);
      if (!out.ok() || out->exit_code != 32 || out->output != "ok") {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      server_->ReleaseTask(*id);
      kernel_.DestroyTask(*id);
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ConcurrencyTest, ConcurrentBootstrapExecOverRing) {
  PopulateLsData(kernel_.fs());
  ASSERT_OK_AND_ASSIGN(Workloads w, BuildWorkloads(TinyWorkloadParams()));
  ASSERT_OK(server_->AddFragment("/obj/ls_crt0.o", w.crt0));
  ASSERT_OK(server_->AddFragment("/obj/ls.o", w.ls_obj));
  ASSERT_OK(server_->AddArchive("/libc", w.libc));
  ASSERT_OK(server_->DefineLibrary("/lib/libc", "(merge /libc)"));
  ASSERT_OK(server_->DefineMeta("/bin/ls", "(merge /obj/ls_crt0.o /obj/ls.o /lib/libc)"));
  ASSERT_OK(server_->Instantiate("/bin/ls", {}, nullptr));  // warm the cache
  server_->SetExecTransport(OmosServer::ExecTransport::kRing);
  const std::string expected = ExpectedLsShortOutput(kernel_.fs(), "/data");
  Counter* created = MetricsRegistry::Global().GetCounter("ipc.exec_channels.created");
  uint64_t created_before = created->value();

  // Each thread execs over the shared channel free list; the tasks run on
  // this thread between rounds (ExecPathsRunWithoutAServerKernelLock runs
  // ring execs on their own threads).
  constexpr int kExecThreads = 4;
  constexpr int kRounds = 4;
  constexpr int kExecsPerRound = 50;  // 200 execs per thread in all
  std::atomic<int> failures{0};
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::vector<TaskId>> ids(kExecThreads);
    RunThreads(kExecThreads, [&](int t) {
      for (int i = 0; i < kExecsPerRound; ++i) {
        auto id = server_->BootstrapExec("/bin/ls", {"ls", "/data"});
        if (!id.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        ids[t].push_back(*id);
      }
    });
    for (const std::vector<TaskId>& thread_ids : ids) {
      for (TaskId id : thread_ids) {
        auto out = RunTaskById(id);
        if (!out.ok() || out->exit_code != 0 || out->output != expected) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        server_->ReleaseTask(id);
        kernel_.DestroyTask(id);
      }
    }
  }
  EXPECT_EQ(failures.load(), 0);
  // At most one channel per concurrent exec, reused across every round.
  EXPECT_LE(created->value() - created_before, static_cast<uint64_t>(kExecThreads));
}

}  // namespace
}  // namespace omos
