// RAII kernel workspace: one contiguous float blob per kernel call.
//
// Acquisition order: the calling thread's AllocSink (when the executor has
// installed one, scratch comes from the worker's persistent MemArena —
// see src/mem/arena.h), else a cache-line-aligned heap vector. Kernels
// compute their total workspace up front and take it in ONE acquisition,
// then subdivide — a single take keeps the arena bump allocator trivially
// LIFO and means a mid-kernel arena grow can never dangle an earlier
// sub-buffer.
#pragma once

#include <cstddef>
#include <vector>

namespace ramiel::kernels {

class KernelScratch {
 public:
  /// Acquires `numel` floats (zero-length acquisitions hold nothing).
  explicit KernelScratch(std::size_t numel);
  ~KernelScratch();

  KernelScratch(const KernelScratch&) = delete;
  KernelScratch& operator=(const KernelScratch&) = delete;

  float* data() { return ptr_; }
  std::size_t numel() const { return numel_; }

  /// True when the blob came from the thread's AllocSink (arena) rather
  /// than the heap.
  bool from_sink() const { return from_sink_; }

 private:
  float* ptr_ = nullptr;
  std::size_t numel_ = 0;
  bool from_sink_ = false;
  std::vector<float> heap_;
};

}  // namespace ramiel::kernels
