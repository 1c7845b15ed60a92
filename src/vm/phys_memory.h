// Physical frame pool with reference counting.
//
// The "shared" in shared libraries is, concretely, two tasks' address spaces
// referencing the same physical frames. OMOS's cached images own frames;
// every task that maps a cached segment bumps the frames' refcounts. The
// pool's accounting (frames in use vs. sum of mapped bytes) is how the
// memory-consumption benchmarks measure sharing.
//
// Thread safety: many tasks may run (and fault) concurrently, so the pool is
// internally synchronized. Ref/Unref are lock-free on the fast path (atomic
// refcounts); Allocate and free-list recycling take one mutex. Frame storage
// is a fixed table of lazily-filled blocks, so FrameData pointers — and the
// Frame slots themselves — stay valid without any lock while other threads
// allocate.
//
// A frame may carry one attachment: data derived from its bytes that must
// not outlive them (the execution engine's decoded blocks, src/engine/).
// Unref deletes it when it frees the frame, so a recycled frame starts with
// none.
#ifndef OMOS_SRC_VM_PHYS_MEMORY_H_
#define OMOS_SRC_VM_PHYS_MEMORY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/support/result.h"

namespace omos {

inline constexpr uint32_t kPageSize = 4096;
inline constexpr uint32_t kPageMask = kPageSize - 1;

inline uint32_t PageAlignUp(uint32_t value) { return (value + kPageMask) & ~kPageMask; }
inline uint32_t PageAlignDown(uint32_t value) { return value & ~kPageMask; }

using FrameId = uint32_t;

// Base of what hangs off a frame; see the file comment.
class FrameAttachment {
 public:
  virtual ~FrameAttachment() = default;
};

class PhysMemory {
 public:
  explicit PhysMemory(uint32_t max_frames = 1u << 20);
  ~PhysMemory();

  // Allocate a zeroed frame with refcount 1.
  Result<FrameId> Allocate();
  // Allocate a frame with refcount 1 WITHOUT zeroing it: recycled frames
  // still hold their previous contents. Only for callers that immediately
  // overwrite every byte (private-map initialization, CoW break copies) —
  // this is what removes the redundant zero-fill from the eager exec path.
  Result<FrameId> AllocateUninit();

  void Ref(FrameId frame);
  // Drops a reference; the frame returns to the free list at zero.
  void Unref(FrameId frame);

  uint8_t* FrameData(FrameId frame);
  const uint8_t* FrameData(FrameId frame) const;
  uint32_t RefCount(FrameId frame) const;

  // The frame's attachment, or null. Attach installs `attachment` if the
  // frame has none and returns the one it carries then (a concurrent
  // caller's may win). Both require the caller to hold a reference.
  FrameAttachment* Attachment(FrameId frame) const;
  FrameAttachment* Attach(FrameId frame, std::unique_ptr<FrameAttachment> attachment);

  // Accounting.
  uint32_t frames_in_use() const { return frames_in_use_.load(std::memory_order_relaxed); }
  uint64_t bytes_in_use() const { return static_cast<uint64_t>(frames_in_use()) * kPageSize; }
  uint32_t peak_frames() const { return peak_frames_.load(std::memory_order_relaxed); }
  uint64_t total_allocations() const { return total_allocations_.load(std::memory_order_relaxed); }

 private:
  // 1024 frames (4 MiB of simulated memory) per lazily-allocated block; the
  // block pointer table is sized up front so readers index it without locks.
  static constexpr uint32_t kFramesPerBlock = 1024;

  struct Frame {
    std::unique_ptr<uint8_t[]> data;         // allocated on first use, then stable
    std::atomic<uint32_t> refs{0};
    std::atomic<FrameAttachment*> attachment{nullptr};  // owned; deleted on free
  };

  Result<FrameId> AllocateInternal(bool zero);
  Frame& FrameRef(FrameId frame) const;

  uint32_t max_frames_;
  uint32_t num_blocks_;
  // Fixed-size table of atomic block pointers: installed under mu_ with
  // release stores, read with acquire loads, never resized or freed until
  // destruction.
  std::unique_ptr<std::atomic<Frame*>[]> blocks_;

  mutable std::mutex mu_;  // guards free_list_, next_frame_, block installation
  std::vector<FrameId> free_list_;
  uint32_t next_frame_ = 0;  // frames ever created

  std::atomic<uint32_t> frames_in_use_{0};
  std::atomic<uint32_t> peak_frames_{0};
  std::atomic<uint64_t> total_allocations_{0};
};

}  // namespace omos

#endif  // OMOS_SRC_VM_PHYS_MEMORY_H_
