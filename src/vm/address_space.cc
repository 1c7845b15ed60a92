#include "src/vm/address_space.h"

#include <cstring>

#include "src/support/faultsim.h"
#include "src/support/strings.h"

namespace omos {

SegmentImage::SegmentImage(SegmentImage&& other) noexcept
    : phys_(other.phys_), frames_(std::move(other.frames_)), size_bytes_(other.size_bytes_) {
  other.phys_ = nullptr;
  other.frames_.clear();
  other.size_bytes_ = 0;
}

SegmentImage& SegmentImage::operator=(SegmentImage&& other) noexcept {
  if (this != &other) {
    this->~SegmentImage();
    new (this) SegmentImage(std::move(other));
  }
  return *this;
}

SegmentImage::~SegmentImage() {
  if (phys_ != nullptr) {
    for (FrameId frame : frames_) {
      phys_->Unref(frame);
    }
  }
}

Result<SegmentImage> SegmentImage::Create(PhysMemory& phys, std::span<const uint8_t> bytes) {
  SegmentImage image;
  image.phys_ = &phys;
  image.size_bytes_ = static_cast<uint32_t>(bytes.size());
  uint32_t pages = PageAlignUp(image.size_bytes_) / kPageSize;
  for (uint32_t i = 0; i < pages; ++i) {
    uint32_t offset = i * kPageSize;
    uint32_t chunk = std::min<uint32_t>(kPageSize, image.size_bytes_ - offset);
    // A full page overwrites every byte; a partial tail page needs the
    // allocator's zeroing for the remainder.
    OMOS_TRY(FrameId frame, chunk == kPageSize ? phys.AllocateUninit() : phys.Allocate());
    std::memcpy(phys.FrameData(frame), bytes.data() + offset, chunk);
    image.frames_.push_back(frame);
  }
  return image;
}

AddressSpace::~AddressSpace() {
  for (auto& [base, region] : regions_) {
    ReleasePages(region);
  }
}

void AddressSpace::ReleasePages(Region& region) {
  uint32_t pages = region.size / kPageSize;
  for (uint32_t i = 0; i < pages; ++i) {
    if (region.page_data[i] == nullptr) {
      --demand_pages_;
      continue;
    }
    phys_->Unref(region.frames[i]);
    if ((region.page_flags[i] & (kPageCow | kPageShared)) != 0) {
      --shared_pages_;
    } else {
      --private_pages_;
    }
  }
}

Result<void> AddressSpace::CheckFree(uint32_t base, uint32_t size, std::string_view name) const {
  if (base % kPageSize != 0) {
    return Err(ErrorCode::kInvalidArgument, StrCat("map ", name, ": base not page aligned"));
  }
  if (size == 0) {
    return Err(ErrorCode::kInvalidArgument, StrCat("map ", name, ": empty region"));
  }
  if (Overlaps(base, size)) {
    return Err(ErrorCode::kAlreadyExists,
               StrCat("map ", name, ": [", Hex32(base), ", ", Hex32(base + size), ") overlaps"));
  }
  return OkResult();
}

bool AddressSpace::Overlaps(uint32_t base, uint32_t size) const {
  auto it = regions_.upper_bound(base);
  if (it != regions_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.base + prev->second.size > base) {
      return true;
    }
  }
  if (it != regions_.end() && it->second.base < base + size) {
    return true;
  }
  return false;
}

Result<uint32_t> AddressSpace::MapShared(uint32_t base, const SegmentImage& image, uint8_t prot,
                                         std::string name) {
  uint32_t size = image.num_pages() * kPageSize;
  OMOS_TRY_VOID(CheckFree(base, size, name));
  Region region;
  region.base = base;
  region.size = size;
  region.prot = prot;
  region.shared = true;
  region.name = std::move(name);
  for (FrameId frame : image.frames()) {
    phys_->Ref(frame);
    region.frames.push_back(frame);
    region.page_data.push_back(phys_->FrameData(frame));
    region.page_flags.push_back(kPageShared);
  }
  shared_pages_ += image.num_pages();
  ++map_epoch_;
  last_region_ = nullptr;
  regions_.emplace(base, std::move(region));
  return image.num_pages();
}

Result<uint32_t> AddressSpace::MapCoW(uint32_t base, const SegmentImage& image, uint32_t size,
                                      uint8_t prot, std::string name) {
  size = PageAlignUp(std::max(size, image.num_pages() * kPageSize));
  OMOS_TRY_VOID(CheckFree(base, size, name));
  Region region;
  region.base = base;
  region.size = size;
  region.prot = prot;
  region.shared = false;
  region.name = std::move(name);
  uint32_t pages = size / kPageSize;
  region.frames.resize(pages, 0);
  region.page_data.resize(pages, nullptr);
  region.page_flags.resize(pages, 0);
  for (uint32_t i = 0; i < image.num_pages(); ++i) {
    FrameId frame = image.frames()[i];
    phys_->Ref(frame);
    region.frames[i] = frame;
    region.page_data[i] = phys_->FrameData(frame);
    region.page_flags[i] = kPageCow;
  }
  shared_pages_ += image.num_pages();
  demand_pages_ += pages - image.num_pages();
  ++map_epoch_;
  last_region_ = nullptr;
  regions_.emplace(base, std::move(region));
  return pages;
}

Result<uint32_t> AddressSpace::MapPrivate(uint32_t base, uint32_t size,
                                          std::span<const uint8_t> init, uint8_t prot,
                                          std::string name) {
  size = PageAlignUp(std::max<uint32_t>(size, static_cast<uint32_t>(init.size())));
  OMOS_TRY_VOID(CheckFree(base, size, name));
  Region region;
  region.base = base;
  region.size = size;
  region.prot = prot;
  region.shared = false;
  region.name = std::move(name);
  uint32_t pages = size / kPageSize;
  for (uint32_t i = 0; i < pages; ++i) {
    uint32_t offset = i * kPageSize;
    uint32_t covered =
        offset < init.size() ? std::min<uint32_t>(kPageSize, static_cast<uint32_t>(init.size()) - offset)
                             : 0;
    // Fully-initialized pages skip the allocator's zero fill (every byte is
    // about to be overwritten); partially-covered pages zero only the tail.
    OMOS_TRY(FrameId frame, phys_->AllocateUninit());
    uint8_t* data = phys_->FrameData(frame);
    if (covered > 0) {
      std::memcpy(data, init.data() + offset, covered);
    }
    if (covered < kPageSize) {
      std::memset(data + covered, 0, kPageSize - covered);
    }
    region.frames.push_back(frame);
    region.page_data.push_back(data);
    region.page_flags.push_back(0);
  }
  private_pages_ += pages;
  ++map_epoch_;
  last_region_ = nullptr;
  regions_.emplace(base, std::move(region));
  return pages;
}

Result<uint32_t> AddressSpace::MapDemandZero(uint32_t base, uint32_t size, uint8_t prot,
                                             std::string name) {
  size = PageAlignUp(size);
  OMOS_TRY_VOID(CheckFree(base, size, name));
  Region region;
  region.base = base;
  region.size = size;
  region.prot = prot;
  region.shared = false;
  region.name = std::move(name);
  uint32_t pages = size / kPageSize;
  region.frames.resize(pages, 0);
  region.page_data.resize(pages, nullptr);
  region.page_flags.resize(pages, 0);
  demand_pages_ += pages;
  ++map_epoch_;
  last_region_ = nullptr;
  regions_.emplace(base, std::move(region));
  return pages;
}

Result<uint32_t> AddressSpace::MapZero(uint32_t base, uint32_t size, uint8_t prot,
                                       std::string name) {
  return MapDemandZero(base, size, prot, std::move(name));
}

Result<void> AddressSpace::Unmap(uint32_t base) {
  auto it = regions_.find(base);
  if (it == regions_.end()) {
    return Err(ErrorCode::kNotFound, StrCat("unmap: no region at ", Hex32(base)));
  }
  ReleasePages(it->second);
  ++map_epoch_;
  last_region_ = nullptr;
  regions_.erase(it);
  return OkResult();
}

const AddressSpace::Region* AddressSpace::FindRegion(uint32_t addr) const {
  if (last_region_ != nullptr && addr >= last_region_->base &&
      addr < last_region_->base + last_region_->size) {
    return last_region_;
  }
  auto it = regions_.upper_bound(addr);
  if (it == regions_.begin()) {
    return nullptr;
  }
  --it;
  const Region& region = it->second;
  if (addr >= region.base + region.size) {
    return nullptr;
  }
  last_region_ = &region;
  return &region;
}

AddressSpace::Region* AddressSpace::FindRegionMutable(uint32_t addr) {
  return const_cast<Region*>(FindRegion(addr));
}

Result<FaultResolution> AddressSpace::HandleFault(uint32_t addr, bool is_write) {
  Region* region = FindRegionMutable(addr);
  if (region == nullptr) {
    return Err(ErrorCode::kExecFault, StrCat("page fault outside mapped region at ", Hex32(addr)));
  }
  uint32_t page = (addr - region->base) / kPageSize;
  if (region->page_data[page] == nullptr) {
    // Demand-zero fill (the first touch, read or write, materializes the page).
    if (FaultSim::Trip("vm.fault")) {
      return Err(ErrorCode::kIoError, StrCat("simulated fault during demand-zero fill at ",
                                             Hex32(addr), " in ", region->name));
    }
    OMOS_TRY(FrameId frame, phys_->Allocate());
    region->frames[page] = frame;
    region->page_data[page] = phys_->FrameData(frame);
    --demand_pages_;
    ++private_pages_;
    ++map_epoch_;
    return FaultResolution::kDemandZeroFill;
  }
  if (is_write && (region->page_flags[page] & kPageCow) != 0) {
    FrameId old_frame = region->frames[page];
    if (phys_->RefCount(old_frame) == 1) {
      // We are the frame's last owner (the cached image was evicted); adopt
      // it as private instead of copying. No one else can gain a reference
      // to a frame they don't already hold, so this cannot race.
      region->page_flags[page] &= static_cast<uint8_t>(~kPageCow);
      --shared_pages_;
      ++private_pages_;
      ++map_epoch_;
      return FaultResolution::kCowAdopt;
    }
    if (FaultSim::Trip("vm.fault")) {
      return Err(ErrorCode::kIoError, StrCat("simulated fault during CoW break at ", Hex32(addr),
                                             " in ", region->name));
    }
    OMOS_TRY(FrameId fresh, phys_->AllocateUninit());
    std::memcpy(phys_->FrameData(fresh), phys_->FrameData(old_frame), kPageSize);
    region->frames[page] = fresh;
    region->page_data[page] = phys_->FrameData(fresh);
    region->page_flags[page] &= static_cast<uint8_t>(~kPageCow);
    phys_->Unref(old_frame);
    --shared_pages_;
    ++private_pages_;
    ++map_epoch_;
    return FaultResolution::kCowCopy;
  }
  return FaultResolution::kAlreadyResolved;
}

bool AddressSpace::LookupPage(uint32_t addr, PageLookup* out) const {
  const Region* region = FindRegion(addr);
  if (region == nullptr) {
    return false;
  }
  uint32_t page = (addr - region->base) / kPageSize;
  out->prot = region->prot;
  out->data = region->page_data[page];
  out->present = out->data != nullptr;
  out->frame = region->frames[page];
  out->cow = (region->page_flags[page] & kPageCow) != 0;
  return true;
}

Result<void> AddressSpace::RaiseFault(uint32_t addr, bool is_write) {
  if (fault_handler_) {
    return fault_handler_(PageFaultInfo{addr, is_write});
  }
  OMOS_TRY_VOID(HandleFault(addr, is_write));
  return OkResult();
}

Result<uint8_t*> AddressSpace::ResolveSpan(uint32_t addr, uint32_t size, bool write, bool exec,
                                           uint32_t* chunk) const {
  const Region* region = FindRegion(addr);
  if (region == nullptr) {
    return Err(ErrorCode::kExecFault,
               StrCat(write ? "write" : (exec ? "fetch" : "read"), " fault at ", Hex32(addr)));
  }
  uint8_t needed = write ? kProtWrite : (exec ? kProtExec : kProtRead);
  if ((region->prot & needed) == 0) {
    return Err(ErrorCode::kExecFault,
               StrCat("protection fault at ", Hex32(addr), " in ", region->name));
  }
  uint32_t offset = addr - region->base;
  uint32_t page = offset / kPageSize;
  uint32_t in_page = offset % kPageSize;
  *chunk = std::min(size, kPageSize - in_page);
  uint8_t* frame_data = region->page_data[page];
  if (frame_data == nullptr || (write && (region->page_flags[page] & kPageCow) != 0)) {
    // Fault: absent page (demand-zero) or write to a CoW page. Access is
    // logically const — faulting in a page doesn't change the space's
    // observable contents — so the mutation is routed through a non-const
    // alias of this.
    auto* self = const_cast<AddressSpace*>(this);
    OMOS_TRY_VOID(self->RaiseFault(addr, write));
    frame_data = region->page_data[page];
    if (frame_data == nullptr) {
      return Err(ErrorCode::kExecFault,
                 StrCat("fault handler left page absent at ", Hex32(addr)));
    }
  }
  return frame_data + in_page;
}

Result<void> AddressSpace::Access(uint32_t addr, void* buf, uint32_t size, bool write,
                                  bool exec) const {
  auto* out = static_cast<uint8_t*>(buf);
  uint32_t done = 0;
  while (done < size) {
    uint32_t chunk = 0;
    OMOS_TRY(uint8_t* span, ResolveSpan(addr + done, size - done, write, exec, &chunk));
    if (write) {
      std::memcpy(span, out + done, chunk);
    } else {
      std::memcpy(out + done, span, chunk);
    }
    done += chunk;
  }
  return OkResult();
}

Result<const uint8_t*> AddressSpace::ReadSpan(uint32_t addr, uint32_t size, uint32_t* len) const {
  OMOS_TRY(uint8_t* span, ResolveSpan(addr, size, /*write=*/false, /*exec=*/false, len));
  return span;
}

Result<void> AddressSpace::ReadBytes(uint32_t addr, void* out, uint32_t size) const {
  return Access(addr, out, size, /*write=*/false, /*exec=*/false);
}

Result<void> AddressSpace::WriteBytes(uint32_t addr, const void* data, uint32_t size) {
  return Access(addr, const_cast<void*>(data), size, /*write=*/true, /*exec=*/false);
}

Result<void> AddressSpace::FetchBytes(uint32_t addr, void* out, uint32_t size) const {
  return Access(addr, out, size, /*write=*/false, /*exec=*/true);
}

Result<uint32_t> AddressSpace::Read32(uint32_t addr) const {
  uint8_t buf[4];
  OMOS_TRY_VOID(ReadBytes(addr, buf, 4));
  return static_cast<uint32_t>(buf[0]) | static_cast<uint32_t>(buf[1]) << 8 |
         static_cast<uint32_t>(buf[2]) << 16 | static_cast<uint32_t>(buf[3]) << 24;
}

Result<void> AddressSpace::Write32(uint32_t addr, uint32_t value) {
  uint8_t buf[4] = {static_cast<uint8_t>(value), static_cast<uint8_t>(value >> 8),
                    static_cast<uint8_t>(value >> 16), static_cast<uint8_t>(value >> 24)};
  return WriteBytes(addr, buf, 4);
}

Result<uint8_t> AddressSpace::Read8(uint32_t addr) const {
  uint8_t b = 0;
  OMOS_TRY_VOID(ReadBytes(addr, &b, 1));
  return b;
}

Result<void> AddressSpace::Write8(uint32_t addr, uint8_t value) {
  return WriteBytes(addr, &value, 1);
}

Result<std::string> AddressSpace::ReadCString(uint32_t addr, uint32_t max_len) const {
  std::string out;
  for (uint32_t done = 0; done < max_len;) {
    uint32_t chunk = 0;
    OMOS_TRY(const uint8_t* span, ReadSpan(addr + done, max_len - done, &chunk));
    const void* nul = std::memchr(span, 0, chunk);
    if (nul != nullptr) {
      out.append(reinterpret_cast<const char*>(span),
                 static_cast<const uint8_t*>(nul) - span);
      return out;
    }
    out.append(reinterpret_cast<const char*>(span), chunk);
    done += chunk;
  }
  return Err(ErrorCode::kExecFault, StrCat("unterminated string at ", Hex32(addr)));
}

std::vector<AddressSpace::RegionInfo> AddressSpace::Regions() const {
  std::vector<RegionInfo> out;
  out.reserve(regions_.size());
  for (const auto& [base, region] : regions_) {
    RegionInfo info{region.base, region.size, region.prot, region.shared, region.name};
    for (uint32_t i = 0; i < region.size / kPageSize; ++i) {
      if (region.page_data[i] == nullptr) {
        ++info.absent_pages;
      } else if ((region.page_flags[i] & kPageCow) != 0) {
        ++info.cow_pages;
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace omos
