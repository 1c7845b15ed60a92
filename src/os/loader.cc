#include "src/os/loader.h"

#include "src/support/strings.h"

namespace omos {

namespace {

// Map the data segment (initialized bytes + bss). With a master image the
// initialized pages go copy-on-write and bss demand-zero — per-exec cost is
// page mappings, not byte copies. Without one, initialized bytes are copied
// eagerly (pure bss still maps demand-zero: nothing to copy from).
Result<void> MapData(Kernel& kernel, Task& task, const LinkedImage& image,
                     const SegmentImage* data_master) {
  uint32_t data_total = static_cast<uint32_t>(image.data.size()) + image.bss_size;
  if (data_total > 0) {
    if (data_master != nullptr) {
      OMOS_TRY_VOID(kernel.MapCoW(task, image.data_base, *data_master, data_total,
                                  kProtRead | kProtWrite, image.name + ".data"));
    } else if (image.data.empty()) {
      OMOS_TRY_VOID(kernel.MapDemandZero(task, image.data_base, data_total,
                                         kProtRead | kProtWrite, image.name + ".data"));
    } else {
      OMOS_TRY_VOID(kernel.MapPrivate(task, image.data_base, data_total, image.data,
                                      kProtRead | kProtWrite, image.name + ".data"));
    }
  }
  return OkResult();
}

}  // namespace

Result<void> MapLinkedImage(Kernel& kernel, Task& task, const LinkedImage& image,
                            const std::string& text_cache_key) {
  const SegmentImage* data_master = nullptr;
  if (!text_cache_key.empty() && !image.data.empty()) {
    std::string data_key = text_cache_key + "#data";
    data_master = kernel.PageCacheGet(data_key);
    if (data_master == nullptr) {
      OMOS_TRY(data_master, kernel.PageCachePut(std::move(data_key), image.data));
    }
  }
  if (!image.text.empty()) {
    if (!text_cache_key.empty()) {
      const SegmentImage* cached = kernel.PageCacheGet(text_cache_key);
      if (cached == nullptr) {
        OMOS_TRY(cached, kernel.PageCachePut(text_cache_key, image.text));
      }
      OMOS_TRY_VOID(kernel.MapShared(task, image.text_base, *cached, kProtRead | kProtExec,
                                     image.name + ".text"));
    } else {
      OMOS_TRY_VOID(kernel.MapPrivate(task, image.text_base,
                                      static_cast<uint32_t>(image.text.size()), image.text,
                                      kProtRead | kProtExec, image.name + ".text"));
    }
  }
  return MapData(kernel, task, image, data_master);
}

Result<void> MapImageWithSharedText(Kernel& kernel, Task& task, const LinkedImage& image,
                                    const SegmentImage& text, const SegmentImage* data_master) {
  if (text.size_bytes() > 0) {
    OMOS_TRY_VOID(
        kernel.MapShared(task, image.text_base, text, kProtRead | kProtExec, image.name + ".text"));
  }
  return MapData(kernel, task, image, data_master);
}

Result<void> StartTask(Kernel& kernel, Task& task, uint32_t entry,
                       std::span<const std::string> args) {
  OMOS_TRY_VOID(kernel.SetupStack(task, args));
  task.set_pc(entry);
  return OkResult();
}

}  // namespace omos
