// Unit tests for src/vm: physical frame refcounting, segment images,
// address spaces (mapping, protection, page-crossing access, accounting).
#include <gtest/gtest.h>

#include "src/support/faultsim.h"
#include "src/support/strings.h"
#include "src/vm/address_space.h"
#include "src/vm/phys_memory.h"
#include "tests/helpers.h"

namespace omos {
namespace {

TEST(PhysMemory, AllocateZeroedAndReuse) {
  PhysMemory phys;
  ASSERT_OK_AND_ASSIGN(FrameId a, phys.Allocate());
  phys.FrameData(a)[0] = 0xAB;
  EXPECT_EQ(phys.frames_in_use(), 1u);
  phys.Unref(a);
  EXPECT_EQ(phys.frames_in_use(), 0u);
  ASSERT_OK_AND_ASSIGN(FrameId b, phys.Allocate());
  EXPECT_EQ(b, a);  // frame recycled
  EXPECT_EQ(phys.FrameData(b)[0], 0);  // and zeroed
}

TEST(PhysMemory, RefCounting) {
  PhysMemory phys;
  ASSERT_OK_AND_ASSIGN(FrameId frame, phys.Allocate());
  phys.Ref(frame);
  phys.Ref(frame);
  EXPECT_EQ(phys.RefCount(frame), 3u);
  phys.Unref(frame);
  phys.Unref(frame);
  EXPECT_EQ(phys.frames_in_use(), 1u);
  phys.Unref(frame);
  EXPECT_EQ(phys.frames_in_use(), 0u);
}

TEST(PhysMemory, ExhaustionReported) {
  PhysMemory phys(2);
  ASSERT_OK(phys.Allocate());
  ASSERT_OK(phys.Allocate());
  auto third = phys.Allocate();
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.error().code(), ErrorCode::kOutOfRange);
}

TEST(PhysMemory, PeakTracking) {
  PhysMemory phys;
  ASSERT_OK_AND_ASSIGN(FrameId a, phys.Allocate());
  ASSERT_OK(phys.Allocate());
  phys.Unref(a);
  EXPECT_EQ(phys.peak_frames(), 2u);
  EXPECT_EQ(phys.frames_in_use(), 1u);
}

TEST(SegmentImage, HoldsDataPaddedToPages) {
  PhysMemory phys;
  std::vector<uint8_t> bytes(kPageSize + 100, 0x5A);
  ASSERT_OK_AND_ASSIGN(SegmentImage image, SegmentImage::Create(phys, bytes));
  EXPECT_EQ(image.num_pages(), 2u);
  EXPECT_EQ(image.size_bytes(), bytes.size());
  EXPECT_EQ(phys.frames_in_use(), 2u);
  EXPECT_EQ(phys.FrameData(image.frames()[1])[99], 0x5A);
  EXPECT_EQ(phys.FrameData(image.frames()[1])[100], 0);  // padding zeroed
}

TEST(SegmentImage, DestructorReleasesFrames) {
  PhysMemory phys;
  {
    std::vector<uint8_t> bytes(100, 1);
    ASSERT_OK_AND_ASSIGN(SegmentImage image, SegmentImage::Create(phys, bytes));
    EXPECT_EQ(phys.frames_in_use(), 1u);
  }
  EXPECT_EQ(phys.frames_in_use(), 0u);
}

TEST(SegmentImage, MoveTransfersOwnership) {
  PhysMemory phys;
  std::vector<uint8_t> bytes(100, 1);
  ASSERT_OK_AND_ASSIGN(SegmentImage a, SegmentImage::Create(phys, bytes));
  SegmentImage b = std::move(a);
  EXPECT_EQ(b.num_pages(), 1u);
  EXPECT_EQ(phys.frames_in_use(), 1u);
}

class AddressSpaceTest : public ::testing::Test {
 protected:
  PhysMemory phys_;
};

TEST_F(AddressSpaceTest, MapPrivateReadWrite) {
  AddressSpace space(phys_);
  std::vector<uint8_t> init = {1, 2, 3, 4};
  ASSERT_OK(space.MapPrivate(0x1000, 100, init, kProtRead | kProtWrite, "data"));
  ASSERT_OK_AND_ASSIGN(uint32_t word, space.Read32(0x1000));
  EXPECT_EQ(word, 0x04030201u);
  ASSERT_OK(space.Write32(0x1010, 0xAABBCCDD));
  ASSERT_OK_AND_ASSIGN(uint32_t back, space.Read32(0x1010));
  EXPECT_EQ(back, 0xAABBCCDDu);
}

TEST_F(AddressSpaceTest, SharedMappingSharesFrames) {
  std::vector<uint8_t> bytes(kPageSize, 0x7E);
  ASSERT_OK_AND_ASSIGN(SegmentImage image, SegmentImage::Create(phys_, bytes));
  AddressSpace a(phys_);
  AddressSpace b(phys_);
  ASSERT_OK(a.MapShared(0x10000, image, kProtRead | kProtExec, "text"));
  ASSERT_OK(b.MapShared(0x10000, image, kProtRead | kProtExec, "text"));
  // One physical frame, three references (image + two mappings).
  EXPECT_EQ(phys_.frames_in_use(), 1u);
  EXPECT_EQ(phys_.RefCount(image.frames()[0]), 3u);
  EXPECT_EQ(a.shared_pages(), 1u);
  EXPECT_EQ(a.private_pages(), 0u);
}

TEST_F(AddressSpaceTest, OverlapRejected) {
  AddressSpace space(phys_);
  ASSERT_OK(space.MapZero(0x1000, kPageSize * 2, kProtRead, "a"));
  auto overlap = space.MapZero(0x2000, kPageSize, kProtRead, "b");
  ASSERT_FALSE(overlap.ok());
  EXPECT_EQ(overlap.error().code(), ErrorCode::kAlreadyExists);
  ASSERT_OK(space.MapZero(0x3000, kPageSize, kProtRead, "c"));
}

TEST_F(AddressSpaceTest, UnalignedBaseRejected) {
  AddressSpace space(phys_);
  auto result = space.MapZero(0x1234, kPageSize, kProtRead, "x");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kInvalidArgument);
}

TEST_F(AddressSpaceTest, ProtectionEnforced) {
  AddressSpace space(phys_);
  ASSERT_OK(space.MapZero(0x1000, kPageSize, kProtRead, "ro"));
  auto write = space.Write32(0x1000, 1);
  ASSERT_FALSE(write.ok());
  EXPECT_EQ(write.error().code(), ErrorCode::kExecFault);
  auto fetch = space.FetchBytes(0x1000, nullptr, 0);  // zero-size ok anywhere
  (void)fetch;
  uint8_t buf[8];
  auto exec = space.FetchBytes(0x1000, buf, 8);
  ASSERT_FALSE(exec.ok());  // not executable
}

TEST_F(AddressSpaceTest, UnmappedAccessFaults) {
  AddressSpace space(phys_);
  auto result = space.Read32(0xDEAD0000);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kExecFault);
}

TEST_F(AddressSpaceTest, PageCrossingAccess) {
  AddressSpace space(phys_);
  ASSERT_OK(space.MapZero(0x1000, kPageSize * 2, kProtRead | kProtWrite, "span"));
  // Write 8 bytes straddling the page boundary.
  uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_OK(space.WriteBytes(0x1000 + kPageSize - 4, data, 8));
  uint8_t back[8] = {0};
  ASSERT_OK(space.ReadBytes(0x1000 + kPageSize - 4, back, 8));
  EXPECT_EQ(memcmp(data, back, 8), 0);
}

TEST_F(AddressSpaceTest, ReadCString) {
  AddressSpace space(phys_);
  ASSERT_OK(space.MapZero(0x1000, kPageSize, kProtRead | kProtWrite, "s"));
  const char* msg = "hello";
  ASSERT_OK(space.WriteBytes(0x1000, msg, 6));
  ASSERT_OK_AND_ASSIGN(std::string s, space.ReadCString(0x1000));
  EXPECT_EQ(s, "hello");
  // Unterminated within limit fails.
  std::vector<uint8_t> noz(16, 'x');
  ASSERT_OK(space.WriteBytes(0x1100, noz.data(), 16));
  auto bad = space.ReadCString(0x1100, 8);
  ASSERT_FALSE(bad.ok());
}

TEST_F(AddressSpaceTest, ReadCStringAcrossPagesAndItsErrors) {
  AddressSpace space(phys_);
  ASSERT_OK(space.MapZero(0x1000, kPageSize * 2, kProtRead | kProtWrite, "s"));
  // Crosses the page boundary; the second page is still demand-zero until
  // the write below faults it in.
  std::string text = "a string that straddles two pages";
  uint32_t at = 0x1000 + kPageSize - 5;
  ASSERT_OK(space.WriteBytes(at, text.c_str(), static_cast<uint32_t>(text.size() + 1)));
  ASSERT_OK_AND_ASSIGN(std::string back, space.ReadCString(at));
  EXPECT_EQ(back, text);
  // The terminator as the first byte of the next page.
  ASSERT_OK(space.Write8(0x1000 + kPageSize, 0));
  ASSERT_OK_AND_ASSIGN(std::string head, space.ReadCString(at));
  EXPECT_EQ(head, text.substr(0, 5));
  // Unterminated within max_len, across the boundary.
  std::vector<uint8_t> run(64, 'x');
  ASSERT_OK(space.WriteBytes(0x1000 + kPageSize - 32, run.data(), 64));
  auto unterminated = space.ReadCString(0x1000 + kPageSize - 32, 64);
  ASSERT_FALSE(unterminated.ok());
  EXPECT_EQ(unterminated.error().code(), ErrorCode::kExecFault);
  EXPECT_EQ(unterminated.error().message(),
            StrCat("unterminated string at ", Hex32(0x1000 + kPageSize - 32)));
  // Runs off the end of the mapping: the fault names the first unmapped byte.
  std::vector<uint8_t> tail(16, 'y');
  ASSERT_OK(space.WriteBytes(0x1000 + 2 * kPageSize - 16, tail.data(), 16));
  auto off_end = space.ReadCString(0x1000 + 2 * kPageSize - 16);
  ASSERT_FALSE(off_end.ok());
  EXPECT_EQ(off_end.error().code(), ErrorCode::kExecFault);
  EXPECT_EQ(off_end.error().message(), StrCat("read fault at ", Hex32(0x1000 + 2 * kPageSize)));
  // An unmapped pointer.
  auto unmapped = space.ReadCString(0xDEAD0000);
  ASSERT_FALSE(unmapped.ok());
  EXPECT_EQ(unmapped.error().code(), ErrorCode::kExecFault);
  EXPECT_EQ(unmapped.error().message(), "read fault at 0xdead0000");
}

TEST_F(AddressSpaceTest, UnmapReleasesFramesAndAllowsRemap) {
  AddressSpace space(phys_);
  ASSERT_OK(space.MapZero(0x1000, kPageSize, kProtRead, "x"));
  // MapZero is demand-paged: no frame until first touch.
  EXPECT_EQ(phys_.frames_in_use(), 0u);
  ASSERT_OK(space.Read8(0x1000));
  EXPECT_EQ(phys_.frames_in_use(), 1u);
  ASSERT_OK(space.Unmap(0x1000));
  EXPECT_EQ(phys_.frames_in_use(), 0u);
  ASSERT_OK(space.MapZero(0x1000, kPageSize, kProtRead, "y"));
  auto missing = space.Unmap(0x9000);
  ASSERT_FALSE(missing.ok());
}

TEST_F(AddressSpaceTest, DestructorReleasesEverything) {
  {
    AddressSpace space(phys_);
    ASSERT_OK(space.MapZero(0x1000, kPageSize * 3, kProtRead | kProtWrite, "x"));
    EXPECT_EQ(phys_.frames_in_use(), 0u);  // all three pages are demand-zero
    ASSERT_OK(space.Write8(0x1000, 1));    // touch two of the three
    ASSERT_OK(space.Write8(0x3000, 2));
    EXPECT_EQ(phys_.frames_in_use(), 2u);
  }
  EXPECT_EQ(phys_.frames_in_use(), 0u);
}

TEST_F(AddressSpaceTest, RegionsListing) {
  AddressSpace space(phys_);
  ASSERT_OK(space.MapZero(0x2000, kPageSize, kProtRead | kProtWrite, "data"));
  ASSERT_OK(space.MapZero(0x1000, kPageSize, kProtRead | kProtExec, "text"));
  auto regions = space.Regions();
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].base, 0x1000u);  // sorted by base
  EXPECT_EQ(regions[0].name, "text");
  EXPECT_EQ(regions[1].name, "data");
}

TEST(PageAlign, Helpers) {
  EXPECT_EQ(PageAlignUp(0u), 0u);
  EXPECT_EQ(PageAlignUp(1u), kPageSize);
  EXPECT_EQ(PageAlignUp(kPageSize), kPageSize);
  EXPECT_EQ(PageAlignDown(kPageSize + 1), kPageSize);
}

TEST(PhysMemory, AllocateUninitSkipsZeroing) {
  PhysMemory phys;
  ASSERT_OK_AND_ASSIGN(FrameId a, phys.Allocate());
  phys.FrameData(a)[7] = 0xCD;
  phys.Unref(a);
  // Recycled uninit frame keeps its dirty contents (callers overwrite it).
  ASSERT_OK_AND_ASSIGN(FrameId b, phys.AllocateUninit());
  EXPECT_EQ(b, a);
  EXPECT_EQ(phys.FrameData(b)[7], 0xCD);
  phys.Unref(b);
  // A zeroed allocation of the same recycled frame really is zeroed.
  ASSERT_OK_AND_ASSIGN(FrameId c, phys.Allocate());
  EXPECT_EQ(c, a);
  EXPECT_EQ(phys.FrameData(c)[7], 0);
}

// ---- Copy-on-write / demand paging ------------------------------------------

class CowTest : public ::testing::Test {
 protected:
  // A two-page master with distinctive bytes in each page.
  Result<SegmentImage> MakeMaster() {
    std::vector<uint8_t> bytes(2 * kPageSize);
    for (size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<uint8_t>(i / kPageSize == 0 ? 0x11 : 0x22);
    }
    return SegmentImage::Create(phys_, bytes);
  }
  PhysMemory phys_;
};

TEST_F(CowTest, MapCowSharesFramesUntilWrite) {
  ASSERT_OK_AND_ASSIGN(SegmentImage master, MakeMaster());
  uint32_t baseline = phys_.frames_in_use();
  AddressSpace a(phys_);
  AddressSpace b(phys_);
  ASSERT_OK(a.MapCoW(0x1000, master, 2 * kPageSize, kProtRead | kProtWrite, "data"));
  ASSERT_OK(b.MapCoW(0x1000, master, 2 * kPageSize, kProtRead | kProtWrite, "data"));
  // Mapping allocates nothing: both spaces reference the master's frames.
  EXPECT_EQ(phys_.frames_in_use(), baseline);
  EXPECT_EQ(a.shared_pages(), 2u);
  EXPECT_EQ(a.private_pages(), 0u);
  // Reads see the master bytes and don't break sharing.
  ASSERT_OK_AND_ASSIGN(uint8_t byte, a.Read8(0x1000));
  EXPECT_EQ(byte, 0x11);
  EXPECT_EQ(phys_.frames_in_use(), baseline);

  // One space writes one page: only that page is privatized, only there.
  ASSERT_OK(a.Write8(0x1005, 0xEE));
  EXPECT_EQ(phys_.frames_in_use(), baseline + 1);
  EXPECT_EQ(a.shared_pages(), 1u);
  EXPECT_EQ(a.private_pages(), 1u);
  ASSERT_OK_AND_ASSIGN(uint8_t changed, a.Read8(0x1005));
  EXPECT_EQ(changed, 0xEE);
  // Copy carried the rest of the page.
  ASSERT_OK_AND_ASSIGN(uint8_t carried, a.Read8(0x1006));
  EXPECT_EQ(carried, 0x11);
  // The other task's view and the master itself are byte-unchanged.
  ASSERT_OK_AND_ASSIGN(uint8_t other, b.Read8(0x1005));
  EXPECT_EQ(other, 0x11);
  EXPECT_EQ(phys_.FrameData(master.frames()[0])[5], 0x11);
  EXPECT_EQ(b.shared_pages(), 2u);
}

TEST_F(CowTest, FrameRefcountsReturnToBaselineAfterExit) {
  ASSERT_OK_AND_ASSIGN(SegmentImage master, MakeMaster());
  uint32_t baseline = phys_.frames_in_use();
  uint32_t ref0 = phys_.RefCount(master.frames()[0]);
  {
    AddressSpace a(phys_);
    AddressSpace b(phys_);
    ASSERT_OK(a.MapCoW(0x1000, master, 2 * kPageSize, kProtRead | kProtWrite, "data"));
    ASSERT_OK(b.MapCoW(0x1000, master, 2 * kPageSize, kProtRead | kProtWrite, "data"));
    ASSERT_OK(a.Write8(0x1000, 1));
    ASSERT_OK(b.Write8(0x2000, 2));
    EXPECT_EQ(phys_.RefCount(master.frames()[0]), ref0 + 1);  // a broke page 0
  }
  EXPECT_EQ(phys_.frames_in_use(), baseline);
  EXPECT_EQ(phys_.RefCount(master.frames()[0]), ref0);
  EXPECT_EQ(phys_.RefCount(master.frames()[1]), ref0);
}

TEST_F(CowTest, LastOwnerAdoptsFrameWithoutCopy) {
  AddressSpace space(phys_);
  {
    ASSERT_OK_AND_ASSIGN(SegmentImage master, MakeMaster());
    ASSERT_OK(space.MapCoW(0x1000, master, 2 * kPageSize, kProtRead | kProtWrite, "data"));
    // master goes out of scope: the space becomes the frames' sole owner.
  }
  uint32_t before = phys_.frames_in_use();
  uint64_t allocs = phys_.total_allocations();
  ASSERT_OK(space.Write8(0x1000, 0x33));
  // Adopted in place: no new frame, no copy.
  EXPECT_EQ(phys_.frames_in_use(), before);
  EXPECT_EQ(phys_.total_allocations(), allocs);
  EXPECT_EQ(space.private_pages(), 1u);
  ASSERT_OK_AND_ASSIGN(uint8_t byte, space.Read8(0x1000));
  EXPECT_EQ(byte, 0x33);
}

TEST_F(CowTest, CowRegionTailIsDemandZeroBss) {
  ASSERT_OK_AND_ASSIGN(SegmentImage master, MakeMaster());
  AddressSpace space(phys_);
  // Two master pages + two pages of bss in one region.
  ASSERT_OK(space.MapCoW(0x1000, master, 4 * kPageSize, kProtRead | kProtWrite, "data"));
  EXPECT_EQ(space.shared_pages(), 2u);
  EXPECT_EQ(space.demand_pages(), 2u);
  uint32_t before = phys_.frames_in_use();
  ASSERT_OK_AND_ASSIGN(uint8_t bss_byte, space.Read8(0x3000));
  EXPECT_EQ(bss_byte, 0);
  EXPECT_EQ(phys_.frames_in_use(), before + 1);
  EXPECT_EQ(space.demand_pages(), 1u);
  EXPECT_EQ(space.private_pages(), 1u);
}

TEST_F(CowTest, DemandZeroAllocatesOnlyTouchedPages) {
  AddressSpace space(phys_);
  ASSERT_OK(space.MapDemandZero(0x1000, 8 * kPageSize, kProtRead | kProtWrite, "bss"));
  EXPECT_EQ(phys_.frames_in_use(), 0u);
  EXPECT_EQ(space.demand_pages(), 8u);
  ASSERT_OK(space.Write8(0x4000, 9));
  ASSERT_OK(space.Write8(0x4FFF, 9));  // same page: one frame
  EXPECT_EQ(phys_.frames_in_use(), 1u);
  EXPECT_EQ(space.demand_pages(), 7u);
  // A write crossing a page boundary faults both pages in.
  uint8_t two[2] = {1, 2};
  ASSERT_OK(space.WriteBytes(0x1FFF, two, 2));
  EXPECT_EQ(phys_.frames_in_use(), 3u);
}

TEST_F(CowTest, FaultHandlerInterposes) {
  ASSERT_OK_AND_ASSIGN(SegmentImage master, MakeMaster());
  AddressSpace space(phys_);
  ASSERT_OK(space.MapCoW(0x1000, master, 3 * kPageSize, kProtRead | kProtWrite, "data"));
  int faults = 0;
  bool saw_write = false;
  space.SetFaultHandler([&](const PageFaultInfo& info) -> Result<void> {
    ++faults;
    saw_write = info.is_write;
    OMOS_TRY_VOID(space.HandleFault(info.addr, info.is_write));
    return OkResult();
  });
  ASSERT_OK(space.Write8(0x1000, 1));  // CoW break
  EXPECT_EQ(faults, 1);
  EXPECT_TRUE(saw_write);
  ASSERT_OK(space.Read8(0x3000));  // demand-zero fill
  EXPECT_EQ(faults, 2);
  EXPECT_FALSE(saw_write);
  ASSERT_OK(space.Read8(0x1000));  // present page: no fault
  EXPECT_EQ(faults, 2);
}

TEST_F(CowTest, InjectedFaultDuringResolutionLeaksNothing) {
  ASSERT_OK_AND_ASSIGN(SegmentImage master, MakeMaster());
  uint32_t baseline = phys_.frames_in_use();
  {
    AddressSpace space(phys_);
    ASSERT_OK(space.MapCoW(0x1000, master, 4 * kPageSize, kProtRead | kProtWrite, "data"));
    ScopedFaultPlan plan(FaultPlan().Arm("vm.fault", FaultSpec::Nth(1)));
    // First fault (CoW break) fails; the page stays shared and untouched.
    auto broken = space.Write8(0x1000, 1);
    ASSERT_FALSE(broken.ok());
    EXPECT_EQ(phys_.frames_in_use(), baseline);
    EXPECT_EQ(space.shared_pages(), 2u);
    EXPECT_EQ(phys_.FrameData(master.frames()[0])[0], 0x11);
    // The plan is spent; a retry of the same write succeeds.
    ASSERT_OK(space.Write8(0x1000, 1));
    EXPECT_EQ(phys_.frames_in_use(), baseline + 1);
  }
  EXPECT_EQ(phys_.frames_in_use(), baseline);
}

TEST_F(CowTest, SeededFaultSweepBalancesFrames) {
  // Probabilistic faults over a write-heavy workload: whatever subset of
  // demand fills and CoW breaks fails, teardown must return the pool to
  // baseline — no leaked or double-freed frames.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ASSERT_OK_AND_ASSIGN(SegmentImage master, MakeMaster());
    uint32_t baseline = phys_.frames_in_use();
    {
      AddressSpace a(phys_);
      AddressSpace b(phys_);
      ASSERT_OK(a.MapCoW(0x1000, master, 4 * kPageSize, kProtRead | kProtWrite, "data"));
      ASSERT_OK(b.MapCoW(0x1000, master, 4 * kPageSize, kProtRead | kProtWrite, "data"));
      ScopedFaultPlan plan(FaultPlan().Arm("vm.fault", FaultSpec::Prob(0.4, seed)));
      for (uint32_t page = 0; page < 4; ++page) {
        // Ignore injected failures; retry once (may fail again — fine).
        (void)a.Write8(0x1000 + page * kPageSize, 0xA0);
        (void)a.Write8(0x1000 + page * kPageSize, 0xA1);
        (void)b.Write8(0x1000 + page * kPageSize, 0xB0);
      }
      // Master bytes never change regardless of which faults fired.
      EXPECT_EQ(phys_.FrameData(master.frames()[0])[0], 0x11);
      EXPECT_EQ(phys_.FrameData(master.frames()[1])[0], 0x22);
    }
    EXPECT_EQ(phys_.frames_in_use(), baseline) << "seed " << seed;
  }
}

}  // namespace
}  // namespace omos
