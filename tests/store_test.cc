// Persistent image store (PR 6): SimFs durability semantics, the store
// record codec, crash-safe journal publish/replay, store-backed server
// restart with byte-identical images, and the seeded crash-point sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/cache.h"
#include "src/core/server.h"
#include "src/objfmt/bytes.h"
#include "src/os/sim_fs.h"
#include "src/store/image_store.h"
#include "src/support/faultsim.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "tests/helpers.h"

namespace omos {
namespace {

constexpr char kStoreRoot[] = "/omos/store";

constexpr char kCrt0[] = R"(
.text
.global _start
_start:
  call main
  sys 0
)";

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

// main: counter += 1; exit(counter) = 8. Carries initialized data so the
// cached image has a CoW data master.
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

const char* const kPrograms[] = {"/bin/ls", "/bin/cat", "/bin/ctr"};

// The fixed world every restart/crash test rebuilds: three programs, one of
// them linking a constrained library (a StoredDep to verify on adoption),
// one carrying initialized data (a CoW master to resurrect).
Result<void> Populate(OmosServer& server) {
  OMOS_TRY(ObjectFile crt0, Assemble(kCrt0, "crt0.o"));
  OMOS_TRY(ObjectFile lib, Assemble(kAddLib, "addlib.o"));
  OMOS_TRY(ObjectFile client, Assemble(kClient, "client.o"));
  OMOS_TRY(ObjectFile counter, Assemble(kCounter, "counter.o"));
  OMOS_TRY_VOID(server.AddFragment("/lib/crt0.o", std::move(crt0)));
  OMOS_TRY_VOID(server.AddFragment("/obj/addlib.o", std::move(lib)));
  OMOS_TRY_VOID(server.AddFragment("/obj/client.o", std::move(client)));
  OMOS_TRY_VOID(server.AddFragment("/obj/counter.o", std::move(counter)));
  OMOS_TRY_VOID(server.DefineLibrary("/lib/addlib",
                                     "(constraint-list \"T\" 0x1000000)\n"
                                     "(merge /obj/addlib.o)"));
  OMOS_TRY_VOID(server.DefineMeta("/bin/ls", "(merge /lib/crt0.o /obj/client.o /lib/addlib)"));
  OMOS_TRY_VOID(server.DefineMeta("/bin/cat", "(merge /lib/crt0.o /obj/client.o /obj/addlib.o)"));
  OMOS_TRY_VOID(server.DefineMeta("/bin/ctr", "(merge /lib/crt0.o /obj/counter.o)"));
  return OkResult();
}

// Byte + layout identity of a cached image: bases, entry, and the linked
// text/data streams. Two images with equal fingerprints are interchangeable
// down to every mapped byte and address.
uint64_t ImageFingerprint(const CachedImage& cached) {
  ByteWriter w;
  w.U32(cached.image.text_base);
  w.U32(cached.image.data_base);
  w.U32(cached.image.bss_size);
  w.U32(cached.image.entry);
  w.Raw(cached.image.text);
  w.Raw(cached.image.data);
  return Fnv1aBytes(w.bytes().data(), w.bytes().size());
}

StoreRecord SampleRecord() {
  StoreRecord record;
  record.cache_key = MakeCacheKey("/bin/x", "");
  record.fingerprint = 0x1234567890abcdefULL;
  record.build_cost = 4242;
  record.image.name = record.cache_key;
  record.image.text_base = 0x400000;
  record.image.data_base = 0x500000;
  record.image.bss_size = 16;
  record.image.entry = 0x400004;
  record.image.text = {0x10, 0x20, 0x30, 0x40, 0x50};
  record.image.data = {0x99, 0x88};
  record.image.symbols.push_back(ImageSymbol{"main", 0x400004, 4, SectionKind::kText});
  record.deps.push_back(LibDep{"libkey", "/lib/l", 0x1000000, 0x1100000});
  record.stub_slots.push_back(StubSlot{0, "__slot_f", "/lib/l", "f"});
  return record;
}

// ---- SimFs durability model -------------------------------------------------

TEST(SimFsDurability, DropUnsyncedRevertsToLastSyncedState) {
  SimFs fs;
  // Unsynced new file: vanishes at power loss.
  ASSERT_OK(fs.TryWriteUnsynced("/a", std::vector<uint8_t>{1, 2, 3}));
  EXPECT_TRUE(fs.Exists("/a"));
  // Durable file with an unsynced append: reverts to the durable content.
  fs.WriteFile("/b", std::string_view("base"));
  ASSERT_OK(fs.TryAppendUnsynced("/b", {'+', '+'}));
  // Unsynced file made durable by fsync: survives.
  ASSERT_OK(fs.TryWriteUnsynced("/c", std::vector<uint8_t>{7}));
  ASSERT_OK(fs.Fsync("/c"));

  fs.DropUnsynced();

  EXPECT_FALSE(fs.Exists("/a"));
  ASSERT_OK_AND_ASSIGN(const SimFile* b, fs.Lookup("/b"));
  EXPECT_EQ(std::string(b->bytes.begin(), b->bytes.end()), "base");
  ASSERT_OK_AND_ASSIGN(const SimFile* c, fs.Lookup("/c"));
  EXPECT_EQ(c->bytes, (std::vector<uint8_t>{7}));
}

TEST(SimFsDurability, RenameMovesDurabilityStateWithTheFile) {
  SimFs fs;
  // The classic zero-length-file bug: rename is durable metadata, but a
  // never-synced payload still dies with the page cache — the whole file
  // vanishes here (no zero-length remnant to model).
  ASSERT_OK(fs.TryWriteUnsynced("/tmp1", std::vector<uint8_t>{1}));
  ASSERT_OK(fs.Rename("/tmp1", "/pub1"));
  // Fsync-then-rename (the store's publish protocol): survives.
  ASSERT_OK(fs.TryWriteUnsynced("/tmp2", std::vector<uint8_t>{2}));
  ASSERT_OK(fs.Fsync("/tmp2"));
  ASSERT_OK(fs.Rename("/tmp2", "/pub2"));

  fs.DropUnsynced();

  EXPECT_FALSE(fs.Exists("/pub1"));
  EXPECT_FALSE(fs.Exists("/tmp1"));
  ASSERT_OK_AND_ASSIGN(const SimFile* pub2, fs.Lookup("/pub2"));
  EXPECT_EQ(pub2->bytes, (std::vector<uint8_t>{2}));
}

TEST(SimFsDurability, FsyncAndRenameErrorCases) {
  SimFs fs;
  EXPECT_EQ(fs.Fsync("/missing").error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs.Rename("/missing", "/x").error().code(), ErrorCode::kNotFound);
  fs.Mkdir("/dir");
  EXPECT_EQ(fs.Rename("/dir", "/x").error().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(fs.TryAppendUnsynced("/dir", {1}).error().code(), ErrorCode::kInvalidArgument);
  // Faults: fsync and rename fail without mutating anything.
  fs.WriteFile("/f", std::string_view("x"));
  {
    ScopedFaultPlan plan(FaultPlan()
                             .Arm("fs.fsync", FaultSpec::Nth(1))
                             .Arm("fs.rename", FaultSpec::Nth(1)));
    EXPECT_EQ(fs.Fsync("/f").error().code(), ErrorCode::kIoError);
    EXPECT_EQ(fs.Rename("/f", "/g").error().code(), ErrorCode::kIoError);
  }
  EXPECT_TRUE(fs.Exists("/f"));
  EXPECT_FALSE(fs.Exists("/g"));
}

// ---- Record codec -----------------------------------------------------------

// SampleRecord's encoding, pinned byte for byte: stores already hold records
// in this "OSR1" layout, so a change to the structs it is written from must
// not move a byte.
TEST(StoreCodec, RecordBytesArePinned) {
  constexpr std::string_view kPinned =
      "4f535231080000002f62696e2f78c2a7efcdab90785634129210000000000000010000000600"
      "00006c69626b6579060000002f6c69622f6c000000010000100101000000000000000800"
      "00005f5f736c6f745f66060000002f6c69622f6c01000000664800000058455831080000"
      "002f62696e2f78c2a70000400000005000100000000400400005000000102030405002000000"
      "998801000000040000006d61696e04004000040000000000000000";
  std::string hex;
  for (uint8_t byte : EncodeStoreRecord(SampleRecord())) {
    hex += Hex32(byte).substr(8);
  }
  EXPECT_EQ(hex, kPinned);
}

TEST(StoreCodec, RecordRoundTrips) {
  StoreRecord record = SampleRecord();
  std::vector<uint8_t> bytes = EncodeStoreRecord(record);
  ASSERT_OK_AND_ASSIGN(StoreRecord back, DecodeStoreRecord(bytes));
  EXPECT_EQ(back.cache_key, record.cache_key);
  EXPECT_EQ(back.fingerprint, record.fingerprint);
  EXPECT_EQ(back.build_cost, record.build_cost);
  EXPECT_EQ(back.image.text_base, record.image.text_base);
  EXPECT_EQ(back.image.data_base, record.image.data_base);
  EXPECT_EQ(back.image.bss_size, record.image.bss_size);
  EXPECT_EQ(back.image.entry, record.image.entry);
  EXPECT_EQ(back.image.text, record.image.text);
  EXPECT_EQ(back.image.data, record.image.data);
  ASSERT_EQ(back.deps.size(), 1u);
  EXPECT_EQ(back.deps[0].cache_key, "libkey");
  EXPECT_EQ(back.deps[0].text_base, 0x1000000u);
  ASSERT_EQ(back.stub_slots.size(), 1u);
  EXPECT_EQ(back.stub_slots[0].slot_symbol, "__slot_f");
  // The decoded image is queryable (symbol index rebuilt by the codec).
  ASSERT_NE(back.image.FindSymbol("main"), nullptr);
  EXPECT_EQ(back.image.FindSymbol("main")->addr, 0x400004u);

  std::vector<uint8_t> garbage{'n', 'o', 'p', 'e'};
  EXPECT_FALSE(DecodeStoreRecord(garbage).ok());
}

// ---- Journal basics ---------------------------------------------------------

TEST(ImageStoreTest, PutGetAndReopenPersistence) {
  SimFs disk;
  CostModel costs;
  StoreRecord record = SampleRecord();
  {
    ImageStore store(disk, kStoreRoot, &costs);
    ASSERT_OK(store.Open());
    uint64_t cycles = 0;
    ASSERT_OK(store.Put(record, &cycles));
    EXPECT_GT(cycles, 0u);  // journaling + fsyncs are billed
    EXPECT_EQ(store.entry_count(), 1u);
    ASSERT_OK_AND_ASSIGN(auto hit, store.Get(record.cache_key, record.fingerprint));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->image.text, record.image.text);
    // Same fingerprint slot, different key: a collision is a miss, never a
    // wrong image.
    ASSERT_OK_AND_ASSIGN(auto collide, store.Get("other-key", record.fingerprint));
    EXPECT_FALSE(collide.has_value());
    // Different fingerprint (stale inputs): miss.
    ASSERT_OK_AND_ASSIGN(auto stale, store.Get(record.cache_key, record.fingerprint + 1));
    EXPECT_FALSE(stale.has_value());
    EXPECT_EQ(store.stats().hits.load(), 1u);
    EXPECT_EQ(store.stats().misses.load(), 2u);
  }
  // A clean shutdown needs no recovery, but replay must reproduce the index.
  ImageStore reopened(disk, kStoreRoot);
  ASSERT_OK(reopened.Open());
  EXPECT_EQ(reopened.entry_count(), 1u);
  EXPECT_EQ(reopened.stats().recovered_commits.load(), 0u);
  EXPECT_EQ(reopened.stats().torn_tails.load(), 0u);
  ASSERT_OK_AND_ASSIGN(auto hit, reopened.Get(record.cache_key, record.fingerprint));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->image.data, record.image.data);
}

TEST(ImageStoreTest, SnapshotRoundTripsAndReplacesAtomically) {
  SimFs disk;
  ImageStore store(disk, kStoreRoot);
  ASSERT_OK(store.Open());
  EXPECT_EQ(store.LoadSnapshot().error().code(), ErrorCode::kNotFound);
  ASSERT_OK(store.PutSnapshot("state v1"));
  ASSERT_OK_AND_ASSIGN(std::string text, store.LoadSnapshot());
  EXPECT_EQ(text, "state v1");
  ASSERT_OK(store.PutSnapshot("state v2"));
  ASSERT_OK_AND_ASSIGN(std::string text2, store.LoadSnapshot());
  EXPECT_EQ(text2, "state v2");
}

TEST(ImageStoreTest, TornJournalTailIsTruncatedAndRecovered) {
  SimFs disk;
  StoreRecord record = SampleRecord();
  {
    ImageStore store(disk, kStoreRoot);
    ASSERT_OK(store.Open());
    ASSERT_OK(store.Put(record));
  }
  // Tear the journal mid-record: chop the tail off the final COMMIT. The
  // intent and the fsynced data file survive, so replay must truncate the
  // tail and roll the intent forward.
  std::string journal = StrCat(kStoreRoot, "/journal");
  ASSERT_OK_AND_ASSIGN(const SimFile* file, disk.Lookup(journal));
  std::vector<uint8_t> torn(file->bytes.begin(), file->bytes.end() - 3);
  disk.WriteFile(journal, std::move(torn));
  {
    ImageStore store(disk, kStoreRoot);
    ASSERT_OK(store.Open());
    EXPECT_EQ(store.stats().torn_tails.load(), 1u);
    EXPECT_EQ(store.stats().recovered_commits.load(), 1u);
    EXPECT_EQ(store.entry_count(), 1u);
    ASSERT_OK_AND_ASSIGN(auto hit, store.Get(record.cache_key, record.fingerprint));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->image.text, record.image.text);
  }
  // The truncation and the re-appended commit are durable: a third open
  // sees a clean journal.
  ImageStore store(disk, kStoreRoot);
  ASSERT_OK(store.Open());
  EXPECT_EQ(store.stats().torn_tails.load(), 0u);
  EXPECT_EQ(store.stats().recovered_commits.load(), 0u);
  EXPECT_EQ(store.entry_count(), 1u);
}

TEST(ImageStoreTest, GarbageJournalTailIsCutOff) {
  SimFs disk;
  StoreRecord record = SampleRecord();
  {
    ImageStore store(disk, kStoreRoot);
    ASSERT_OK(store.Open());
    ASSERT_OK(store.Put(record));
  }
  std::string journal = StrCat(kStoreRoot, "/journal");
  ASSERT_OK(disk.TryAppendUnsynced(journal, {0xDE, 0xAD, 0xBE, 0xEF, 0x42}));
  ASSERT_OK(disk.Fsync(journal));
  ImageStore store(disk, kStoreRoot);
  ASSERT_OK(store.Open());
  EXPECT_EQ(store.stats().torn_tails.load(), 1u);
  EXPECT_EQ(store.entry_count(), 1u);  // the committed record is untouched
}

TEST(ImageStoreTest, CorruptDataFileIsTombstonedOnGet) {
  SimFs disk;
  StoreRecord record = SampleRecord();
  {
    ImageStore store(disk, kStoreRoot);
    ASSERT_OK(store.Open());
    ASSERT_OK(store.Put(record));
  }
  // Rot one byte of the published data file.
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> names, disk.ListDir(StrCat(kStoreRoot, "/data")));
  ASSERT_EQ(names.size(), 1u);
  std::string path = StrCat(kStoreRoot, "/data/", names[0]);
  ASSERT_OK_AND_ASSIGN(const SimFile* file, disk.Lookup(path));
  std::vector<uint8_t> rotted = file->bytes;
  rotted[rotted.size() / 2] ^= 0x40;
  disk.WriteFile(path, std::move(rotted));

  ImageStore store(disk, kStoreRoot);
  ASSERT_OK(store.Open());
  // Replay validates committed records: the rotted one is dropped loudly.
  EXPECT_EQ(store.stats().lost_records.load(), 1u);
  EXPECT_EQ(store.entry_count(), 0u);
  ASSERT_OK_AND_ASSIGN(auto hit, store.Get(record.cache_key, record.fingerprint));
  EXPECT_FALSE(hit.has_value());
}

TEST(ImageStoreTest, FsFaultsFailPutCleanlyWithoutCrashing) {
  for (const char* site : {"fs.fsync", "fs.rename"}) {
    SimFs disk;
    StoreRecord record = SampleRecord();
    ImageStore store(disk, kStoreRoot);
    ASSERT_OK(store.Open());
    {
      ScopedFaultPlan plan(FaultPlan().Arm(site, FaultSpec::Nth(1)));
      auto put = store.Put(record);
      ASSERT_FALSE(put.ok()) << site;
      EXPECT_EQ(put.error().code(), ErrorCode::kIoError) << site;
    }
    EXPECT_FALSE(store.crashed()) << site;
    EXPECT_EQ(store.stats().put_failures.load(), 1u) << site;
    EXPECT_EQ(store.entry_count(), 0u) << site;
    // The store stays usable: the same record publishes fine afterwards.
    ASSERT_OK(store.Put(record));
    ASSERT_OK_AND_ASSIGN(auto hit, store.Get(record.cache_key, record.fingerprint));
    EXPECT_TRUE(hit.has_value()) << site;
  }
}

TEST(ImageStoreTest, InvalidatePrefixTombstonesMatchingKeys) {
  SimFs disk;
  ImageStore store(disk, kStoreRoot);
  ASSERT_OK(store.Open());
  StoreRecord a = SampleRecord();
  a.cache_key = MakeCacheKey("/bin/a", "");
  a.fingerprint = 111;
  StoreRecord b = SampleRecord();
  b.cache_key = MakeCacheKey("/bin/b", "");
  b.fingerprint = 222;
  ASSERT_OK(store.Put(a));
  ASSERT_OK(store.Put(b));
  ASSERT_OK_AND_ASSIGN(size_t n,
                       store.InvalidatePrefix(StrCat("/bin/a", kCacheKeySep)));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(store.entry_count(), 1u);
  ASSERT_OK_AND_ASSIGN(auto gone, store.Get(a.cache_key, a.fingerprint));
  EXPECT_FALSE(gone.has_value());
  ASSERT_OK_AND_ASSIGN(auto kept, store.Get(b.cache_key, b.fingerprint));
  EXPECT_TRUE(kept.has_value());
  // Tombstones are durable: the invalidated record stays dead after reopen.
  ImageStore reopened(disk, kStoreRoot);
  ASSERT_OK(reopened.Open());
  EXPECT_EQ(reopened.entry_count(), 1u);
}

// Crash matrix: kill the "process" at each of Put's journal steps in turn
// and recover. Steps 1-5 (before the rename publishes the data file) must
// roll back to a miss; steps 6-8 (data published) must roll forward to a
// hit with byte-identical content. Never a wrong image.
TEST(ImageStoreTest, CrashAtEveryPutStepRecoversConsistently) {
  for (uint64_t k = 1; k <= 8; ++k) {
    SimFs disk;
    StoreRecord record = SampleRecord();
    {
      ImageStore store(disk, kStoreRoot);
      ASSERT_OK(store.Open());
      ScopedFaultPlan plan(FaultPlan().Arm("store.crash", FaultSpec::Nth(k).WithMaxFires(1)));
      auto put = store.Put(record);
      ASSERT_FALSE(put.ok()) << "crash point " << k;
      EXPECT_EQ(put.error().code(), ErrorCode::kUnavailable);
      EXPECT_TRUE(store.crashed());
      // Sticky: the dead process writes (and reads) nothing more.
      EXPECT_EQ(store.Put(record).error().code(), ErrorCode::kUnavailable);
      EXPECT_EQ(store.Get(record.cache_key, record.fingerprint).error().code(),
                ErrorCode::kUnavailable);
    }
    disk.DropUnsynced();  // the power actually goes out

    ImageStore recovered(disk, kStoreRoot);
    SCOPED_TRACE(testing::Message() << "crash point " << k);
    ASSERT_OK(recovered.Open());
    ASSERT_OK_AND_ASSIGN(auto hit, recovered.Get(record.cache_key, record.fingerprint));
    if (k <= 5) {
      EXPECT_FALSE(hit.has_value()) << "crash point " << k;
      EXPECT_EQ(recovered.entry_count(), 0u);
      if (k >= 3) {
        // The intent reached the disk but the data did not: rolled back.
        EXPECT_EQ(recovered.stats().rolled_back.load(), 1u) << "crash point " << k;
      }
    } else {
      ASSERT_TRUE(hit.has_value()) << "crash point " << k;
      EXPECT_EQ(hit->image.text, record.image.text);
      EXPECT_EQ(hit->image.data, record.image.data);
      if (k <= 7) {
        // Data durable, commit lost: replay rolled the intent forward.
        EXPECT_EQ(recovered.stats().recovered_commits.load(), 1u) << "crash point " << k;
      }
    }
    EXPECT_EQ(recovered.stats().lost_records.load(), 0u) << "crash point " << k;
  }
}

// ---- Store-backed server restart --------------------------------------------

class StoreServerTest : public ::testing::Test {
 protected:
  struct Golden {
    uint64_t fingerprint = 0;
    uint32_t text_base = 0;
    uint32_t data_base = 0;
  };

  // Instantiates every program and records identity fingerprints.
  Result<std::vector<Golden>> InstantiateAll(OmosServer& server) {
    std::vector<Golden> out;
    for (const char* path : kPrograms) {
      uint64_t work = 0;
      OMOS_TRY(const CachedImage* image, server.Instantiate(path, Specialization{}, &work));
      out.push_back(Golden{ImageFingerprint(*image), image->image.text_base,
                           image->image.data_base});
    }
    return out;
  }
};

TEST_F(StoreServerTest, RestartServesByteIdenticalImagesFromStore) {
  SimFs disk;  // the disk outlives both server generations
  std::vector<Golden> golden;
  {
    Kernel kernel;
    ImageStore store(disk, kStoreRoot, &kernel.costs());
    ASSERT_OK(store.Open());
    auto server = std::make_unique<OmosServer>(kernel);
    ASSERT_OK(Populate(*server));
    server->AttachStore(&store);
    ASSERT_OK_AND_ASSIGN(golden, InstantiateAll(*server));
    // Cold builds published: program images, plus the constrained library.
    EXPECT_GE(store.entry_count(), 4u);
    EXPECT_GE(store.stats().puts.load(), 4u);
    ASSERT_OK(server->PersistTo(store));
  }  // server, kernel, store die; only the disk remains

  Kernel kernel2;
  ImageStore store2(disk, kStoreRoot, &kernel2.costs());
  ASSERT_OK(store2.Open());
  EXPECT_GE(store2.entry_count(), 4u);
  auto server2 = std::make_unique<OmosServer>(kernel2);
  ASSERT_OK(server2->RestoreFromStore(store2));
  ASSERT_OK_AND_ASSIGN(std::vector<Golden> after, InstantiateAll(*server2));

  // Every image came back from the store (no re-link), byte-identical and
  // at identical addresses.
  EXPECT_GE(store2.stats().hits.load(), 3u);
  ASSERT_EQ(after.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(after[i].fingerprint, golden[i].fingerprint) << kPrograms[i];
    EXPECT_EQ(after[i].text_base, golden[i].text_base) << kPrograms[i];
    EXPECT_EQ(after[i].data_base, golden[i].data_base) << kPrograms[i];
  }
  // The adopted data image is a frame-backed CoW master again.
  ASSERT_OK_AND_ASSIGN(const CachedImage* ctr,
                       server2->Instantiate("/bin/ctr", Specialization{}, nullptr));
  EXPECT_TRUE(ctr->data_seg.has_value());

  // And the adopted images actually execute.
  ASSERT_OK_AND_ASSIGN(TaskId id, server2->IntegratedExec("/bin/ls", {"ls"}));
  Task* task = kernel2.FindTask(id);
  ASSERT_NE(task, nullptr);
  ASSERT_OK(kernel2.RunTask(*task));
  EXPECT_EQ(task->exit_code(), 21);
  ASSERT_OK_AND_ASSIGN(TaskId cid, server2->IntegratedExec("/bin/ctr", {"ctr"}));
  Task* ctask = kernel2.FindTask(cid);
  ASSERT_NE(ctask, nullptr);
  ASSERT_OK(kernel2.RunTask(*ctask));
  EXPECT_EQ(ctask->exit_code(), 8);
}

// A re-pack moves the library away from the bases its stored record was
// linked at. The record still matches its fingerprint, which covers no
// layout: the store hits and adoption refuses the record where it no
// longer lands, so the library is rebuilt at the solver's home and the
// program linked against it runs. A restart then adopts every image at the
// re-packed homes.
TEST_F(StoreServerTest, RepackedRecordIsRefusedWhereItNoLongerFits) {
  const Specialization constrained{"lib-constrained", {}};
  Counter* mismatches = MetricsRegistry::Global().GetCounter("store.placement_mismatches");
  SimFs disk;
  std::vector<Golden> repacked;
  uint32_t lib_base = 0;
  {
    Kernel kernel;
    ImageStore store(disk, kStoreRoot, &kernel.costs());
    ASSERT_OK(store.Open());
    OmosServer server(kernel);
    ASSERT_OK(Populate(server));
    server.AttachStore(&store);
    ASSERT_OK(InstantiateAll(server));
    ASSERT_OK_AND_ASSIGN(const CachedImage* lib,
                         server.Instantiate("/lib/addlib", constrained, nullptr));
    uint32_t stored_base = lib->image.text_base;
    ASSERT_GE(server.OptimizePlacements(), 1);

    uint64_t hits = store.stats().hits.load();
    uint64_t refused = mismatches->value();
    ASSERT_OK_AND_ASSIGN(lib, server.Instantiate("/lib/addlib", constrained, nullptr));
    lib_base = lib->image.text_base;
    EXPECT_NE(lib_base, stored_base);
    EXPECT_EQ(store.stats().hits.load(), hits + 1);
    EXPECT_EQ(mismatches->value(), refused + 1);
    ASSERT_OK_AND_ASSIGN(TaskId id, server.IntegratedExec("/bin/ls", {"ls"}));
    ASSERT_OK(kernel.RunTask(*kernel.FindTask(id)));
    EXPECT_EQ(kernel.FindTask(id)->exit_code(), 21);

    ASSERT_OK_AND_ASSIGN(repacked, InstantiateAll(server));
    ASSERT_OK(server.PersistTo(store));
  }

  Kernel kernel2;
  ImageStore store2(disk, kStoreRoot, &kernel2.costs());
  ASSERT_OK(store2.Open());
  OmosServer server2(kernel2);
  ASSERT_OK(server2.RestoreFromStore(store2));
  uint64_t refused = mismatches->value();
  ASSERT_OK_AND_ASSIGN(std::vector<Golden> after, InstantiateAll(server2));
  ASSERT_OK_AND_ASSIGN(const CachedImage* lib,
                       server2.Instantiate("/lib/addlib", constrained, nullptr));
  EXPECT_EQ(lib->image.text_base, lib_base);
  // Every program and the library adopted, none refused or re-linked.
  EXPECT_EQ(store2.stats().hits.load(), 4u);
  EXPECT_EQ(mismatches->value(), refused);
  EXPECT_EQ(store2.stats().puts.load(), 0u);
  ASSERT_EQ(after.size(), repacked.size());
  for (size_t i = 0; i < repacked.size(); ++i) {
    EXPECT_EQ(after[i].fingerprint, repacked[i].fingerprint) << kPrograms[i];
    EXPECT_EQ(after[i].text_base, repacked[i].text_base) << kPrograms[i];
    EXPECT_EQ(after[i].data_base, repacked[i].data_base) << kPrograms[i];
  }
}

// Every symbol of a published image is found by name and by interned id.
// Returns how many symbols were checked.
size_t ExpectEverySymbolFound(OmosServer& server) {
  size_t checked = 0;
  for (const std::string& key : server.cache().Keys()) {
    ImageRef cached = server.cache().Peek(key);
    const LinkedImage& image = cached->image;
    EXPECT_TRUE(image.symbol_index_current()) << key;
    for (const ImageSymbol& sym : image.symbols) {
      EXPECT_EQ(image.FindSymbol(sym.name), &sym) << key << ": " << sym.name;
      EXPECT_EQ(image.FindSymbol(SymbolInterner::Global().Intern(sym.name)), &sym)
          << key << ": " << sym.name;
      ++checked;
    }
  }
  return checked;
}

TEST_F(StoreServerTest, LinkedAndAdoptedImagesFindEverySymbol) {
  SimFs disk;
  size_t linked = 0;
  {
    Kernel kernel;
    ImageStore store(disk, kStoreRoot, &kernel.costs());
    ASSERT_OK(store.Open());
    OmosServer server(kernel);
    ASSERT_OK(Populate(server));
    server.AttachStore(&store);
    ASSERT_OK(InstantiateAll(server));
    linked = ExpectEverySymbolFound(server);
    EXPECT_GT(linked, 0u);
    ASSERT_OK(server.PersistTo(store));
  }

  Kernel kernel2;
  ImageStore store2(disk, kStoreRoot, &kernel2.costs());
  ASSERT_OK(store2.Open());
  OmosServer server2(kernel2);
  ASSERT_OK(server2.RestoreFromStore(store2));
  ASSERT_OK(InstantiateAll(server2));
  EXPECT_GE(store2.stats().hits.load(), 3u);  // adopted, not re-linked
  EXPECT_EQ(ExpectEverySymbolFound(server2), linked);
}

// The prelinked paths ride the snapshot (PR 9): a restarted server starts
// with the fleet-wide placements already solved, so its very first exec
// takes the prelink fast path — adopting the image bytes from the store —
// instead of a cold miss.
TEST_F(StoreServerTest, RestartStartsWithWarmPrelinkTable) {
  SimFs disk;
  {
    Kernel kernel;
    ImageStore store(disk, kStoreRoot, &kernel.costs());
    ASSERT_OK(store.Open());
    auto server = std::make_unique<OmosServer>(kernel);
    ASSERT_OK(Populate(*server));
    server->AttachStore(&store);
    ASSERT_OK_AND_ASSIGN(int prelinked, server->PrelinkNamespace("/bin"));
    EXPECT_EQ(prelinked, 3);
    ASSERT_OK(server->PersistTo(store));
  }

  Kernel kernel2;
  ImageStore store2(disk, kStoreRoot, &kernel2.costs());
  ASSERT_OK(store2.Open());
  auto server2 = std::make_unique<OmosServer>(kernel2);
  ASSERT_OK(server2->RestoreFromStore(store2));
  Counter* hits = MetricsRegistry::Global().GetCounter("prelink.hits");
  Counter* misses = MetricsRegistry::Global().GetCounter("prelink.misses");
  uint64_t hits_before = hits->value();
  uint64_t misses_before = misses->value();
  // First exec after restart: the path came back prelinked (no
  // PrelinkNamespace ran on this server) and its image is adopted from the
  // store. A warm start, not a cold rebuild.
  ASSERT_OK_AND_ASSIGN(TaskId id, server2->PrelinkedExec("/bin/cat", {"cat"}));
  Task* task = kernel2.FindTask(id);
  ASSERT_NE(task, nullptr);
  ASSERT_OK(kernel2.RunTask(*task));
  EXPECT_EQ(task->exit_code(), 21);
  EXPECT_EQ(hits->value(), hits_before + 1);
  EXPECT_EQ(misses->value(), misses_before);
}

// A prelinked path whose image is neither cached nor adoptable (its meta
// was redefined, which evicts the image and tombstones its records) falls
// back to a link. The fallback does not probe the store again: the exec's
// own adoption attempt already walked the fingerprint and missed.
TEST_F(StoreServerTest, PrelinkedFallbackProbesTheStoreOnce) {
  SimFs disk;
  Kernel kernel;
  ImageStore store(disk, kStoreRoot, &kernel.costs());
  ASSERT_OK(store.Open());
  OmosServer server(kernel);
  ASSERT_OK(Populate(server));
  server.AttachStore(&store);
  ASSERT_OK_AND_ASSIGN(int prelinked, server.PrelinkNamespace("/bin"));
  EXPECT_EQ(prelinked, 3);
  ASSERT_OK(server.DefineMeta("/bin/ctr", "(merge /lib/crt0.o /obj/counter.o)"));

  Counter* stale = MetricsRegistry::Global().GetCounter("prelink.stale");
  uint64_t stale_before = stale->value();
  uint64_t probes_before = store.stats().probes.load();
  ASSERT_OK_AND_ASSIGN(TaskId id, server.PrelinkedExec("/bin/ctr", {"ctr"}));
  EXPECT_EQ(store.stats().probes.load(), probes_before + 1);
  EXPECT_EQ(stale->value(), stale_before + 1);
  Task* task = kernel.FindTask(id);
  ASSERT_NE(task, nullptr);
  ASSERT_OK(kernel.RunTask(*task));
  EXPECT_EQ(task->exit_code(), 8);
}

TEST_F(StoreServerTest, RedefinitionInvalidatesStoredImages) {
  SimFs disk;
  Kernel kernel;
  ImageStore store(disk, kStoreRoot, &kernel.costs());
  ASSERT_OK(store.Open());
  OmosServer server(kernel);
  ASSERT_OK(Populate(server));
  server.AttachStore(&store);
  ASSERT_OK(server.Instantiate("/bin/cat", Specialization{}, nullptr));
  size_t before = store.entry_count();
  ASSERT_GE(before, 1u);
  // Redefining the meta tombstones its persisted images alongside the
  // cache eviction.
  ASSERT_OK(server.DefineMeta("/bin/cat", "(merge /lib/crt0.o /obj/counter.o)"));
  EXPECT_GE(store.stats().invalidations.load(), 1u);
  EXPECT_LT(store.entry_count(), before);
  // The rebuilt image publishes under the new fingerprint and is adoptable.
  ASSERT_OK_AND_ASSIGN(const CachedImage* rebuilt,
                       server.Instantiate("/bin/cat", Specialization{}, nullptr));
  EXPECT_EQ(rebuilt->image.data.size() + rebuilt->image.bss_size > 0, true);
}

// `snapshot` with the names of its one order row reversed and its check
// line recomputed: FNV-1a of every byte before it, as 0x + 16 hex digits.
std::string WithReversedOrder(const std::string& snapshot) {
  std::string body = snapshot.substr(0, snapshot.rfind("check "));
  size_t row = body.find("\norder ") + 1;
  size_t count = std::stoul(body.substr(row + 6));  // "order <count> <path>"
  size_t first = body.find('\n', row) + 1;
  size_t end = first;
  std::string reversed;
  for (size_t i = 0; i < count; ++i) {
    size_t next = body.find('\n', end) + 1;
    reversed.insert(0, body, end, next - end);
    end = next;
  }
  body.replace(first, end - first, reversed);
  uint64_t sum = Fnv1a(body);
  return StrCat(body, "check ", Hex32(static_cast<uint32_t>(sum >> 32)),
                Hex32(static_cast<uint32_t>(sum)).substr(2), "\n");
}

// A "reorder" image is stored like any other build: a restarted server
// adopts it byte for byte, and its record stops matching once the routine
// order (an input the fingerprint covers) changes.
TEST_F(StoreServerTest, ReorderImageAdoptsAfterReopen) {
  const Specialization reorder{"reorder", {}};
  SimFs disk;
  std::vector<uint8_t> text;
  std::string snapshot;
  {
    Kernel kernel;
    ImageStore store(disk, kStoreRoot, &kernel.costs());
    ASSERT_OK(store.Open());
    OmosServer server(kernel);
    ASSERT_OK(Populate(server));
    server.AttachStore(&store);
    ASSERT_OK_AND_ASSIGN(TaskId id, server.IntegratedExec("/bin/cat", {"cat"},
                                                          Specialization{"monitor", {}}));
    ASSERT_OK(kernel.RunTask(*kernel.FindTask(id)));
    ASSERT_OK(server.DerivePreferredOrder("/bin/cat"));
    ASSERT_OK_AND_ASSIGN(const CachedImage* built, server.Instantiate("/bin/cat", reorder, nullptr));
    text = built->image.text;
    ASSERT_OK(server.PersistTo(store));
    snapshot = server.Snapshot();
  }

  {
    Kernel kernel;
    ImageStore store(disk, kStoreRoot, &kernel.costs());
    ASSERT_OK(store.Open());
    OmosServer server(kernel);
    ASSERT_OK(server.RestoreFromStore(store));
    uint64_t hits = store.stats().hits.load();
    ASSERT_OK_AND_ASSIGN(const CachedImage* adopted,
                         server.Instantiate("/bin/cat", reorder, nullptr));
    EXPECT_EQ(store.stats().hits.load(), hits + 1);
    EXPECT_TRUE(adopted->image.text == text);
    ASSERT_OK_AND_ASSIGN(TaskId id, server.IntegratedExec("/bin/cat", {"cat"}, reorder));
    ASSERT_OK(kernel.RunTask(*kernel.FindTask(id)));
    EXPECT_EQ(kernel.FindTask(id)->exit_code(), 21);
  }

  // The same store under a reversed order: the record is refused and the
  // image is linked afresh in the new layout.
  Kernel kernel;
  ImageStore store(disk, kStoreRoot, &kernel.costs());
  ASSERT_OK(store.Open());
  OmosServer server(kernel);
  ASSERT_OK(server.Restore(WithReversedOrder(snapshot)));
  server.AttachStore(&store);
  uint64_t hits = store.stats().hits.load();
  ASSERT_OK_AND_ASSIGN(const CachedImage* rebuilt, server.Instantiate("/bin/cat", reorder, nullptr));
  EXPECT_EQ(store.stats().hits.load(), hits);
  EXPECT_TRUE(rebuilt->image.text != text);
}

// A store-adopted image records the paths its fingerprint covered, so a
// fragment two blueprint hops behind a library (/bin/q -> /lib/ans -> /libx
// -> /libx/v.o) still invalidates it after a restart.
TEST_F(StoreServerTest, AdoptedImageInvalidatedByNestedFragment) {
  auto answer = [](int value) {
    return Assemble(StrCat(".text\n.global answer\nanswer:\n  movi r0, ", value, "\n  ret\n"),
                    "v.o");
  };
  auto run_q = [](Kernel& kernel, OmosServer& server) -> Result<int> {
    OMOS_TRY(TaskId id, server.IntegratedExec("/bin/q", {"q"}));
    Task* task = kernel.FindTask(id);
    OMOS_TRY_VOID(kernel.RunTask(*task));
    return task->exit_code();
  };
  SimFs disk;
  {
    Kernel kernel;
    ImageStore store(disk, kStoreRoot, &kernel.costs());
    ASSERT_OK(store.Open());
    OmosServer server(kernel);
    ASSERT_OK(Populate(server));
    ASSERT_OK_AND_ASSIGN(ObjectFile v1, answer(1));
    ASSERT_OK(server.AddFragment("/libx/v.o", std::move(v1)));
    ASSERT_OK(server.DefineMeta("/libx", "(merge /libx/v.o)"));
    ASSERT_OK(server.DefineLibrary("/lib/ans", "(merge /libx)"));
    ASSERT_OK_AND_ASSIGN(ObjectFile main_obj,
                         Assemble(".text\n.global main\nmain:\n  push lr\n  call answer\n"
                                  "  pop lr\n  ret\n",
                                  "m.o"));
    ASSERT_OK(server.AddFragment("/obj/m.o", std::move(main_obj)));
    ASSERT_OK(server.DefineMeta("/bin/q", "(merge /lib/crt0.o /obj/m.o /lib/ans)"));
    server.AttachStore(&store);
    ASSERT_OK_AND_ASSIGN(int before, run_q(kernel, server));
    EXPECT_EQ(before, 1);
    ASSERT_OK(server.PersistTo(store));
  }

  Kernel kernel2;
  ImageStore store2(disk, kStoreRoot, &kernel2.costs());
  ASSERT_OK(store2.Open());
  OmosServer server2(kernel2);
  ASSERT_OK(server2.RestoreFromStore(store2));
  ASSERT_OK_AND_ASSIGN(int adopted, run_q(kernel2, server2));
  EXPECT_EQ(adopted, 1);
  EXPECT_GE(store2.stats().hits.load(), 2u);  // /bin/q and /lib/ans came from the store

  ASSERT_OK_AND_ASSIGN(ObjectFile v2, answer(2));
  ASSERT_OK(server2.AddFragment("/libx/v.o", std::move(v2)));
  ASSERT_OK_AND_ASSIGN(int after, run_q(kernel2, server2));
  EXPECT_EQ(after, 2);
}

// A store adoption publishes through the same check as a link: an adoption
// whose fingerprint walk read /obj/v.o before a redefinition finished must
// not enter the cache after that redefinition's invalidation ran. Readers
// evict /bin/p before each exec, so every exec probes the store while the
// writer redefines /obj/v.o version by version.
TEST_F(StoreServerTest, AdoptionRacesRedefinitions) {
  constexpr int kLastVersion = 61;
  auto answer = [](int value) {
    return Assemble(StrCat(".text\n.global answer\nanswer:\n  movi r0, ", value, "\n  ret\n"),
                    "v.o");
  };
  SimFs disk;
  Kernel kernel;
  ImageStore store(disk, kStoreRoot, &kernel.costs());
  ASSERT_OK(store.Open());
  OmosServer server(kernel);
  server.AttachStore(&store);
  ASSERT_OK_AND_ASSIGN(ObjectFile crt0, Assemble(kCrt0, "crt0.o"));
  ASSERT_OK(server.AddFragment("/lib/crt0.o", std::move(crt0)));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj,
                       Assemble(".text\n.global main\nmain:\n  push lr\n  call answer\n"
                                "  pop lr\n  ret\n",
                                "m.o"));
  ASSERT_OK(server.AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK_AND_ASSIGN(ObjectFile v1, answer(1));
  ASSERT_OK(server.AddFragment("/obj/v.o", std::move(v1)));
  ASSERT_OK(server.DefineMeta("/bin/p", "(merge /lib/crt0.o /obj/m.o /obj/v.o)"));
  std::vector<ObjectFile> versions;
  for (int v = 2; v <= kLastVersion; ++v) {
    ASSERT_OK_AND_ASSIGN(ObjectFile object, answer(v));
    versions.push_back(std::move(object));
  }

  struct Exec {
    TaskId id;
    int lo;  // the version current when the exec began
    int hi;  // the newest version whose install had begun when it ended
  };
  std::atomic<int> begun{1};
  std::atomic<int> finished{1};
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::atomic<int> exec_count{0};
  std::mutex execs_mu;
  std::vector<Exec> execs;
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int v = 2; v <= kLastVersion; ++v) {
      while (exec_count.load() < 4 * (v - 1)) {
        std::this_thread::yield();
      }
      begun.store(v);
      if (!server.AddFragment("/obj/v.o", versions[v - 2]).ok()) {
        errors.fetch_add(1);
      }
      finished.store(v);
    }
    done.store(true);
  });
  const std::string key = MakeCacheKey("/bin/p", "");
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      while (!done.load()) {
        server.cache().Evict(key);
        int lo = finished.load();
        auto id = server.IntegratedExec("/bin/p", {"p"});
        int hi = begun.load();
        if (id.ok()) {
          std::lock_guard<std::mutex> lock(execs_mu);
          execs.push_back(Exec{*id, lo, hi});
        } else {
          errors.fetch_add(1);
        }
        exec_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GE(execs.size(), 4u * (kLastVersion - 1));
  EXPECT_GE(store.stats().hits.load(), 1u);  // the readers did adopt
  int stale = 0;
  for (const Exec& exec : execs) {
    Task* task = kernel.FindTask(exec.id);
    ASSERT_NE(task, nullptr);
    ASSERT_OK(kernel.RunTask(*task));
    if (task->exit_code() < exec.lo || task->exit_code() > exec.hi) {
      ++stale;
      ADD_FAILURE() << "exec mapped v" << task->exit_code() << ", current was v" << exec.lo
                    << "..v" << exec.hi;
    }
    server.ReleaseTask(exec.id);
    kernel.DestroyTask(exec.id);
  }
  EXPECT_EQ(stale, 0);

  // No reader evicts now: whatever the race left in the cache is served.
  ASSERT_OK_AND_ASSIGN(TaskId id, server.IntegratedExec("/bin/p", {"p"}));
  Task* task = kernel.FindTask(id);
  ASSERT_NE(task, nullptr);
  ASSERT_OK(kernel.RunTask(*task));
  EXPECT_EQ(task->exit_code(), kLastVersion);
}

TEST_F(StoreServerTest, StoreCountersVisibleOverTheWire) {
  SimFs disk;
  Kernel kernel;
  ImageStore store(disk, kStoreRoot, &kernel.costs());
  ASSERT_OK(store.Open());
  OmosServer server(kernel);
  ASSERT_OK(Populate(server));
  server.AttachStore(&store);
  ASSERT_OK(server.Instantiate("/bin/ls", Specialization{}, nullptr));

  Channel channel = server.MakeChannel();
  OmosRequest request;
  request.op = OmosOp::kIntrospect;
  request.path = "stats";
  ASSERT_OK_AND_ASSIGN(OmosReply reply, channel.Call(request, nullptr));
  ASSERT_TRUE(reply.ok) << reply.error;
  auto wire_value = [&](std::string_view name) -> uint64_t {
    for (const auto& [metric, value] : reply.metrics) {
      if (metric == name) {
        return value;
      }
    }
    ADD_FAILURE() << "metric missing from wire snapshot: " << name;
    return ~0ull;
  };
  EXPECT_EQ(wire_value("store.puts"), store.stats().puts.load());
  EXPECT_EQ(wire_value("store.probes"), store.stats().probes.load());
  EXPECT_EQ(wire_value("store.replays"), store.stats().replays.load());
  EXPECT_GT(wire_value("store.bytes_written"), 0u);
}

// ---- The crash sweep --------------------------------------------------------

// Kill the server's store at the k-th journal step for k = 1..100 (covering
// every crash point the workload reaches), power-cycle the disk, and
// recover. Acceptance: recovery always succeeds, every instantiated image
// is byte-identical to the fault-free golden run (or a clean counted
// rebuild producing those same bytes), and no PhysMemory frame leaks.
TEST_F(StoreServerTest, CrashSweepNeverServesWrongBytesOrLeaksFrames) {
  // Fault-free golden pass.
  std::vector<Golden> golden;
  size_t golden_placements = 0;
  {
    SimFs disk;
    Kernel kernel;
    ImageStore store(disk, kStoreRoot, &kernel.costs());
    ASSERT_OK(store.Open());
    OmosServer server(kernel);
    ASSERT_OK(Populate(server));
    server.AttachStore(&store);
    ASSERT_OK_AND_ASSIGN(golden, InstantiateAll(server));
    golden_placements = server.placement_count();
    ASSERT_OK(server.PersistTo(store));
  }

  int swept = 0;
  for (uint64_t k = 1; k <= 100; ++k) {
    SimFs disk;
    uint64_t fires = 0;
    {
      ScopedFaultPlan plan(FaultPlan().Arm("store.crash", FaultSpec::Nth(k).WithMaxFires(1)));
      Kernel kernel;
      ImageStore store(disk, kStoreRoot, &kernel.costs());
      ASSERT_OK(store.Open());
      OmosServer server(kernel);
      ASSERT_OK(Populate(server));
      server.AttachStore(&store);
      for (const char* path : kPrograms) {
        // The build itself must survive a dead store: publish failures are
        // non-fatal, so instantiation succeeds even mid-crash.
        auto built = server.Instantiate(path, Specialization{}, nullptr);
        ASSERT_TRUE(built.ok()) << "k=" << k << ": " << built.error().ToString();
      }
      (void)server.PersistTo(store);  // fails cleanly once crashed
      fires = FaultSim::Fires("store.crash");
    }
    if (fires == 0) {
      break;  // k is past the last journal step this workload performs
    }
    ++swept;
    disk.DropUnsynced();  // power loss

    // Recovery: reopen must always succeed, then restart the server from
    // whatever the disk holds.
    Kernel kernel2;
    ImageStore store2(disk, kStoreRoot, &kernel2.costs());
    SCOPED_TRACE(testing::Message() << "sweep k=" << k);
    ASSERT_OK(store2.Open());
    auto server2 = std::make_unique<OmosServer>(kernel2);
    auto restored = server2->RestoreFromStore(store2);
    if (!restored.ok()) {
      // The crash predated the snapshot: clean, counted fallback — rebuild
      // the namespace by hand and attach the (possibly partial) store.
      ASSERT_EQ(restored.error().code(), ErrorCode::kNotFound) << "k=" << k;
      ASSERT_OK(Populate(*server2));
      server2->AttachStore(&store2);
    }
    ASSERT_OK_AND_ASSIGN(std::vector<Golden> after, InstantiateAll(*server2));
    for (size_t i = 0; i < golden.size(); ++i) {
      // Byte-identity holds whether the image was adopted from the store or
      // cold-rebuilt: the deterministic solver re-derives the same layout.
      EXPECT_EQ(after[i].fingerprint, golden[i].fingerprint) << "k=" << k << " " << kPrograms[i];
      EXPECT_EQ(after[i].text_base, golden[i].text_base) << "k=" << k << " " << kPrograms[i];
      EXPECT_EQ(after[i].data_base, golden[i].data_base) << "k=" << k << " " << kPrograms[i];
    }
    // No wrong bytes ever surfaced from the store.
    EXPECT_EQ(store2.stats().lost_records.load(), 0u) << "k=" << k;
    // Placements return to baseline as frames do: one per cached image,
    // whether adopted from the snapshot or placed afresh, and none once the
    // cache lets go.
    EXPECT_EQ(server2->placement_count(), golden_placements) << "k=" << k;
    for (const std::string& key : server2->cache().Keys()) {
      server2->cache().Evict(key);
    }
    EXPECT_EQ(server2->placement_count(), 0u) << "k=" << k;
    // Tear the world down: every frame the recovered server materialized
    // must return to the allocator.
    server2.reset();
    EXPECT_EQ(kernel2.phys().frames_in_use(), 0u) << "k=" << k;
  }
  // The sweep must have actually exercised a healthy spread of crash points.
  EXPECT_GE(swept, 20);
}

}  // namespace
}  // namespace omos
