// Per-task virtual address spaces: page-granular regions backed by frames
// from the shared PhysMemory pool. This is the mini analog of Mach's
// vm_map() that the paper's OMOS uses to map cached segments into client
// tasks (§5, §7).
//
// Pages come in four states:
//   - present/private: this space owns the frame (MapPrivate, or a resolved
//     fault below).
//   - present/shared:  the frame belongs to a cached SegmentImage and is
//     mapped directly (MapShared — read/exec text).
//   - present/CoW:     the frame belongs to a cached SegmentImage but the
//     region is writable; the first write faults, copies the page into a
//     private frame (or adopts the frame outright if this space is its last
//     owner) and re-points the mapping (MapCoW — data segments).
//   - absent/demand-zero: no frame yet; the first touch faults in a zeroed
//     frame (MapDemandZero / MapZero — bss, stack, heap).
// Faults raised by any access path (interpreter loads/stores/fetches, kernel
// syscalls, server patching) funnel through HandleFault(). A kernel can
// interpose with SetFaultHandler() to bill simulated cycles and count
// metrics; a bare AddressSpace resolves faults inline, unbilled.
#ifndef OMOS_SRC_VM_ADDRESS_SPACE_H_
#define OMOS_SRC_VM_ADDRESS_SPACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/support/result.h"
#include "src/vm/phys_memory.h"

namespace omos {

enum ProtBits : uint8_t {
  kProtRead = 1,
  kProtWrite = 2,
  kProtExec = 4,
};

// A cached, shareable image of a loaded segment: frames owned by the cache
// (refcount held), mapped read-only or CoW into any number of tasks.
class SegmentImage {
 public:
  SegmentImage() = default;
  SegmentImage(const SegmentImage&) = delete;
  SegmentImage& operator=(const SegmentImage&) = delete;
  SegmentImage(SegmentImage&& other) noexcept;
  SegmentImage& operator=(SegmentImage&& other) noexcept;
  ~SegmentImage();

  // Build an image holding `bytes` (padded to whole pages).
  static Result<SegmentImage> Create(PhysMemory& phys, std::span<const uint8_t> bytes);

  uint32_t size_bytes() const { return size_bytes_; }
  uint32_t num_pages() const { return static_cast<uint32_t>(frames_.size()); }
  const std::vector<FrameId>& frames() const { return frames_; }
  PhysMemory* phys() const { return phys_; }

 private:
  PhysMemory* phys_ = nullptr;
  std::vector<FrameId> frames_;
  uint32_t size_bytes_ = 0;
};

// How a page fault was resolved (for metrics/billing in the kernel).
enum class FaultResolution : uint8_t {
  kDemandZeroFill,   // absent page filled with a zeroed frame
  kCowCopy,          // shared frame copied into a private frame
  kCowAdopt,         // this space was the frame's last owner; no copy needed
  kAlreadyResolved,  // page was present and writable by the time we got here
};

struct PageFaultInfo {
  uint32_t addr = 0;
  bool is_write = false;
};

class AddressSpace {
 public:
  explicit AddressSpace(PhysMemory& phys) : phys_(&phys) {}
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;
  ~AddressSpace();

  // Map `image`'s frames at `base` (page aligned), sharing physical memory.
  // Returns the number of pages mapped.
  Result<uint32_t> MapShared(uint32_t base, const SegmentImage& image, uint8_t prot,
                             std::string name);

  // Map `image`'s frames copy-on-write at `base`: the image's pages are
  // shared until first write; [image pages, size) is demand-zero (bss).
  // `size` covers the whole region (initialized data + bss) and may exceed
  // the image; it is page-aligned up. Returns total pages mapped.
  Result<uint32_t> MapCoW(uint32_t base, const SegmentImage& image, uint32_t size, uint8_t prot,
                          std::string name);

  // Map fresh private frames at `base` initialized from `init` (rest zero).
  Result<uint32_t> MapPrivate(uint32_t base, uint32_t size, std::span<const uint8_t> init,
                              uint8_t prot, std::string name);

  // Map demand-zero pages: no frames are allocated until first touch.
  Result<uint32_t> MapDemandZero(uint32_t base, uint32_t size, uint8_t prot, std::string name);

  // Map zeroed pages (bss, stack, heap). Demand-paged: alias of MapDemandZero.
  Result<uint32_t> MapZero(uint32_t base, uint32_t size, uint8_t prot, std::string name);

  Result<void> Unmap(uint32_t base);

  // Resolve a page fault at `addr`: fill a demand-zero page or break a CoW
  // page for writing. Returns how it was resolved. Errors if `addr` is not
  // mapped (or a fault-injection plan trips the "vm.fault" site).
  Result<FaultResolution> HandleFault(uint32_t addr, bool is_write);

  // Interpose on fault resolution (the kernel installs one per task to bill
  // simulated cycles and count vm.* metrics). The handler must call back
  // into HandleFault() to actually resolve the page.
  using FaultHandler = std::function<Result<void>(const PageFaultInfo&)>;
  void SetFaultHandler(FaultHandler handler) { fault_handler_ = std::move(handler); }

  // Memory access used by the interpreter and the kernel. Checks protection;
  // handles page-crossing transfers; faults in absent/CoW pages as needed.
  Result<void> ReadBytes(uint32_t addr, void* out, uint32_t size) const;
  Result<void> WriteBytes(uint32_t addr, const void* data, uint32_t size);
  Result<uint32_t> Read32(uint32_t addr) const;
  Result<void> Write32(uint32_t addr, uint32_t value);
  Result<uint8_t> Read8(uint32_t addr) const;
  Result<void> Write8(uint32_t addr, uint8_t value);
  // Read a NUL-terminated string (bounded by `max_len`).
  Result<std::string> ReadCString(uint32_t addr, uint32_t max_len = 4096) const;
  // The readable bytes at `addr`, up to `size` of them or the end of the
  // page, whichever comes first; `*len` gets the count. Checks and faults
  // like ReadBytes, with the same errors. The pointer is valid until the
  // space's next map, unmap or fault, so callers scan or copy guest memory
  // in place, one page span at a time.
  Result<const uint8_t*> ReadSpan(uint32_t addr, uint32_t size, uint32_t* len) const;

  // Fetch for execution (checks kProtExec).
  Result<void> FetchBytes(uint32_t addr, void* out, uint32_t size) const;

  // ---- Translation-cache support (src/engine/) ------------------------------
  //
  // Monotonic counter bumped whenever a virtual-to-frame translation could
  // have changed: any map/unmap, and any fault resolution that installs or
  // replaces a frame (demand-zero fill, CoW break/adopt). The execution
  // engine's software TLB and block cache tag their entries with this epoch
  // and self-flush on mismatch — one load+compare instead of callback
  // plumbing through every map site.
  uint64_t map_epoch() const { return map_epoch_; }

  // Snapshot of one page's current translation, for TLB fills. Resolves
  // nothing and bills nothing: an absent (demand-zero) page reports
  // present=false and the caller takes the faulting slow path instead.
  struct PageLookup {
    uint8_t* data = nullptr;  // frame bytes (valid only when present)
    FrameId frame = 0;
    uint8_t prot = 0;
    bool present = false;
    bool cow = false;  // present but still sharing an image frame; writes fault
  };
  bool LookupPage(uint32_t addr, PageLookup* out) const;

  // True if [base, base+size) overlaps an existing region.
  bool Overlaps(uint32_t base, uint32_t size) const;

  // Accounting. Pages move between buckets as faults resolve: a demand-zero
  // fill moves demand→private, a CoW break moves shared→private.
  uint32_t private_pages() const { return private_pages_; }
  uint32_t shared_pages() const { return shared_pages_; }
  uint32_t demand_pages() const { return demand_pages_; }
  uint32_t total_pages() const { return private_pages_ + shared_pages_ + demand_pages_; }

  struct RegionInfo {
    uint32_t base;
    uint32_t size;
    uint8_t prot;
    bool shared;
    std::string name;
    uint32_t cow_pages = 0;     // present, still sharing an image frame
    uint32_t absent_pages = 0;  // demand-zero, not yet touched
  };
  std::vector<RegionInfo> Regions() const;

 private:
  // Per-page state flags (Region::page_flags).
  enum PageFlags : uint8_t {
    kPageCow = 1,     // present; frame shared with an image; copy on write
    kPageShared = 2,  // present; frame shared via MapShared (never broken)
  };

  struct Region {
    uint32_t base = 0;
    uint32_t size = 0;  // page aligned
    uint8_t prot = 0;
    bool shared = false;
    std::string name;
    // Parallel per-page arrays. page_data[i] == nullptr means the page is
    // absent (demand-zero); frames[i] is only meaningful when present. The
    // cached data pointer is safe because PhysMemory never frees frame
    // buffers, only recycles them, and this space holds a ref while mapped.
    std::vector<FrameId> frames;
    std::vector<uint8_t*> page_data;
    std::vector<uint8_t> page_flags;
  };

  const Region* FindRegion(uint32_t addr) const;
  Region* FindRegionMutable(uint32_t addr);
  Result<void> Access(uint32_t addr, void* buf, uint32_t size, bool write, bool exec) const;
  // Checks one access of kind (`write`, `exec`) at `addr` and faults its page
  // in as needed; returns the frame bytes at `addr` and sets `*chunk` to how
  // many of the `size` bytes from `addr` lie in that page.
  Result<uint8_t*> ResolveSpan(uint32_t addr, uint32_t size, bool write, bool exec,
                               uint32_t* chunk) const;
  Result<void> CheckFree(uint32_t base, uint32_t size, std::string_view name) const;
  // Route a fault through the installed handler (kernel billing path) or
  // resolve it inline for bare spaces.
  Result<void> RaiseFault(uint32_t addr, bool is_write);
  void ReleasePages(Region& region);

  PhysMemory* phys_;
  std::map<uint32_t, Region> regions_;  // keyed by base
  FaultHandler fault_handler_;
  uint64_t map_epoch_ = 1;
  mutable const Region* last_region_ = nullptr;
  uint32_t private_pages_ = 0;
  uint32_t shared_pages_ = 0;
  uint32_t demand_pages_ = 0;
};

}  // namespace omos

#endif  // OMOS_SRC_VM_ADDRESS_SPACE_H_
