#include "src/vm/phys_memory.h"

#include <cstring>

#include "src/support/strings.h"

namespace omos {

PhysMemory::PhysMemory(uint32_t max_frames) : max_frames_(max_frames) {
  num_blocks_ = (max_frames_ + kFramesPerBlock - 1) / kFramesPerBlock;
  blocks_ = std::make_unique<std::atomic<Frame*>[]>(num_blocks_);
  for (uint32_t i = 0; i < num_blocks_; ++i) {
    blocks_[i].store(nullptr, std::memory_order_relaxed);
  }
}

PhysMemory::~PhysMemory() {
  for (uint32_t i = 0; i < num_blocks_; ++i) {
    Frame* block = blocks_[i].load(std::memory_order_relaxed);
    for (uint32_t j = 0; block != nullptr && j < kFramesPerBlock; ++j) {
      delete block[j].attachment.load(std::memory_order_relaxed);
    }
    delete[] block;
  }
}

PhysMemory::Frame& PhysMemory::FrameRef(FrameId frame) const {
  Frame* block = blocks_[frame / kFramesPerBlock].load(std::memory_order_acquire);
  return block[frame % kFramesPerBlock];
}

Result<FrameId> PhysMemory::AllocateInternal(bool zero) {
  FrameId id;
  bool recycled = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_list_.empty()) {
      id = free_list_.back();
      free_list_.pop_back();
      recycled = true;
    } else {
      if (next_frame_ >= max_frames_) {
        return Err(ErrorCode::kOutOfRange,
                   StrCat("physical memory exhausted (", max_frames_, " frames)"));
      }
      id = next_frame_++;
      uint32_t block_idx = id / kFramesPerBlock;
      if (blocks_[block_idx].load(std::memory_order_relaxed) == nullptr) {
        blocks_[block_idx].store(new Frame[kFramesPerBlock], std::memory_order_release);
      }
    }
  }
  Frame& f = FrameRef(id);
  if (f.data == nullptr) {
    // make_unique value-initializes, so a fresh buffer is already zeroed.
    f.data = std::make_unique<uint8_t[]>(kPageSize);
  } else if (zero && recycled) {
    std::memset(f.data.get(), 0, kPageSize);
  }
  f.refs.store(1, std::memory_order_relaxed);
  uint32_t in_use = frames_in_use_.fetch_add(1, std::memory_order_relaxed) + 1;
  total_allocations_.fetch_add(1, std::memory_order_relaxed);
  uint32_t peak = peak_frames_.load(std::memory_order_relaxed);
  while (in_use > peak &&
         !peak_frames_.compare_exchange_weak(peak, in_use, std::memory_order_relaxed)) {
  }
  return id;
}

Result<FrameId> PhysMemory::Allocate() { return AllocateInternal(/*zero=*/true); }

Result<FrameId> PhysMemory::AllocateUninit() { return AllocateInternal(/*zero=*/false); }

void PhysMemory::Ref(FrameId frame) {
  FrameRef(frame).refs.fetch_add(1, std::memory_order_relaxed);
}

void PhysMemory::Unref(FrameId frame) {
  Frame& f = FrameRef(frame);
  uint32_t prev = f.refs.load(std::memory_order_relaxed);
  do {
    if (prev == 0) {
      return;  // Double-unref is a bug, but keep the simulator alive.
    }
  } while (!f.refs.compare_exchange_weak(prev, prev - 1, std::memory_order_acq_rel));
  if (prev == 1) {
    // What was derived from the old contents goes before new contents can
    // move in.
    delete f.attachment.exchange(nullptr, std::memory_order_acquire);
    frames_in_use_.fetch_sub(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    free_list_.push_back(frame);
  }
}

uint8_t* PhysMemory::FrameData(FrameId frame) { return FrameRef(frame).data.get(); }

const uint8_t* PhysMemory::FrameData(FrameId frame) const { return FrameRef(frame).data.get(); }

uint32_t PhysMemory::RefCount(FrameId frame) const {
  return FrameRef(frame).refs.load(std::memory_order_relaxed);
}

FrameAttachment* PhysMemory::Attachment(FrameId frame) const {
  return FrameRef(frame).attachment.load(std::memory_order_acquire);
}

FrameAttachment* PhysMemory::Attach(FrameId frame, std::unique_ptr<FrameAttachment> attachment) {
  FrameAttachment* current = nullptr;
  if (FrameRef(frame).attachment.compare_exchange_strong(current, attachment.get(),
                                                          std::memory_order_acq_rel)) {
    return attachment.release();
  }
  return current;
}

}  // namespace omos
