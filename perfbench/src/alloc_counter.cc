// Global operator new/delete replacements that count every allocation in the
// process — program, pool workers, serving threads and benchmark alike — so
// process.allocs_per_round reports real `operator new` calls rather than the
// program's own growth hooks, and track the bytes live on the heap so
// peak_heap_mb is the high-water mark of what the program holds. Each call
// costs a few relaxed atomic operations.

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_peak_bytes{0};

void* Note(void* p) {
  if (p == nullptr) return p;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t size = malloc_usable_size(p);
  const std::uint64_t live =
      g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::uint64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void* Allocate(std::size_t size) {
  return Note(std::malloc(size == 0 ? 1 : size));
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return Note(std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded));
}

void Free(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace perfbench {
std::uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }
void ResetPeakHeap() {
  g_peak_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}
double PeakHeapMb() {
  return static_cast<double>(g_peak_bytes.load(std::memory_order_relaxed)) /
         (1024.0 * 1024.0);
}
}  // namespace perfbench

void* operator new(std::size_t size) {
  void* p = Allocate(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = Allocate(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = AllocateAligned(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = AllocateAligned(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return AllocateAligned(size, align);
}

void operator delete(void* p) noexcept { Free(p); }
void operator delete[](void* p) noexcept { Free(p); }
void operator delete(void* p, std::size_t) noexcept { Free(p); }
void operator delete[](void* p, std::size_t) noexcept { Free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { Free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  Free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  Free(p);
}
