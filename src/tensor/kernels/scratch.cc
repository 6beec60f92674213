#include "tensor/kernels/scratch.h"

#include <cstdint>

#include "obs/metrics.h"
#include "tensor/tensor.h"

namespace ramiel::kernels {
namespace {

struct ScratchMetrics {
  obs::Counter* arena = obs::registry().counter(
      "ramiel_kernel_scratch_arena_total",
      "Kernel scratch acquisitions served by a worker arena");
  obs::Counter* heap = obs::registry().counter(
      "ramiel_kernel_scratch_heap_total",
      "Kernel scratch acquisitions that fell back to the heap");
};

ScratchMetrics& metrics() {
  static ScratchMetrics* m = new ScratchMetrics();
  return *m;
}

}  // namespace

KernelScratch::KernelScratch(std::size_t numel) : numel_(numel) {
  if (numel_ == 0) return;
  if (AllocSink* sink = thread_alloc_sink()) {
    if (float* p = sink->take_scratch(numel_)) {
      ptr_ = p;
      from_sink_ = true;
      metrics().arena->inc();
      return;
    }
  }
  // Cache-line align the heap blob like arena scratch: a 16-byte-aligned
  // vector leaves kernel speed to wherever the allocator lands it (on a
  // 4-core AVX-512 Xeon, 1 KiB more of earlier heap allocations slowed
  // SqueezeNet's heap-only sequential run by ~15%).
  constexpr std::size_t kLineFloats = 64 / sizeof(float);
  heap_.resize(numel_ + kLineFloats - 1);
  const auto addr = reinterpret_cast<std::uintptr_t>(heap_.data());
  ptr_ = heap_.data() + (64 - addr % 64) % 64 / sizeof(float);
  metrics().heap->inc();
}

KernelScratch::~KernelScratch() {
  if (from_sink_) {
    thread_alloc_sink()->release_scratch(ptr_, numel_);
  }
}

}  // namespace ramiel::kernels
