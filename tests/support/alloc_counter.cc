#include "support/alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_operator_news{0};

void* CountedAlloc(std::size_t size) {
  g_operator_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_operator_news.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

// Out of line: GCC flags a free() inlined into a caller of operator new
// (-Wmismatched-new-delete), although both sides here are malloc-backed.
[[gnu::noinline]] void CountedFree(void* p) { std::free(p); }

void* CountedAllocOrThrow(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAllocOrThrow(std::size_t size, std::align_val_t align) {
  void* p = CountedAlignedAlloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

namespace fedrec::test_support {
std::uint64_t OperatorNewCount() {
  return g_operator_news.load(std::memory_order_relaxed);
}
}  // namespace fedrec::test_support

void* operator new(std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new[](std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAllocOrThrow(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAllocOrThrow(size, align);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
