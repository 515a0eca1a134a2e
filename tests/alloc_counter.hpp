// Counts heap allocations, for tests that pin a path allocation-free.
//
// Replaces the global operator new/delete of the one test binary that
// includes it (each test source is its own executable), so include it
// from a single translation unit. operator new[] and the standard
// containers route through the replaced operator new and are counted too.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace alloc_counter {
inline std::atomic<std::size_t> count{0};
inline thread_local std::size_t thread_count = 0;

/// Heap allocations made so far by this process.
inline std::size_t allocations() { return count.load(std::memory_order_relaxed); }

/// Heap allocations made so far by the calling thread.
inline std::size_t thread_allocations() { return thread_count; }
}  // namespace alloc_counter

// Kept out of line: GCC 12 would otherwise see malloc() or free() meet a
// pointer from the other family and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
    alloc_counter::count.fetch_add(1, std::memory_order_relaxed);
    ++alloc_counter::thread_count;
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
