// Traced driver: a global operator new that counts calls and requested
// bytes while counting is switched on. Linked into cluster_bench_traced
// only, so the end-to-end runs never pay for it.

#include <atomic>
#include <cstdlib>
#include <new>

#include "alloc_counter.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_calls.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow forms (std::stable_sort's buffer, among others) route through
// the counting form too, so every allocation is counted and released by
// the matching delete below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace tpart::clusterbench {

bool AllocCountingLinked() { return true; }

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t AllocCalls() { return g_calls.load(std::memory_order_relaxed); }
std::uint64_t AllocBytes() { return g_bytes.load(std::memory_order_relaxed); }

}  // namespace tpart::clusterbench
