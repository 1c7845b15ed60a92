// Mapping helpers shared by every exec scheme (baseline loaders, OMOS
// bootstrap, OMOS integrated exec).
#ifndef OMOS_SRC_OS_LOADER_H_
#define OMOS_SRC_OS_LOADER_H_

#include <string>

#include "src/linker/image.h"
#include "src/os/kernel.h"
#include "src/support/result.h"

namespace omos {

// Map `image` into `task`:
//  * text  — shared via the kernel page cache under `text_cache_key` when
//            nonempty (first call populates the cache), else private.
//  * data  — copy-on-write against a cached master image when
//            `text_cache_key` is nonempty (cached under key + "#data"; bss
//            is demand-zero), else an eager private copy (bootstrap paths
//            with no cache to share from).
Result<void> MapLinkedImage(Kernel& kernel, Task& task, const LinkedImage& image,
                            const std::string& text_cache_key);

// Map text from an already-built shared SegmentImage (OMOS's cache holds
// these directly; no kernel page cache involved). When `data_master` is
// nonnull the data segment maps copy-on-write against it (bss demand-zero);
// when null, initialized data is copied eagerly and a pure-bss segment maps
// demand-zero.
Result<void> MapImageWithSharedText(Kernel& kernel, Task& task, const LinkedImage& image,
                                    const SegmentImage& text,
                                    const SegmentImage* data_master = nullptr);

// Point the task at `entry` and give it a stack with `args`.
Result<void> StartTask(Kernel& kernel, Task& task, uint32_t entry,
                       std::span<const std::string> args);

}  // namespace omos

#endif  // OMOS_SRC_OS_LOADER_H_
