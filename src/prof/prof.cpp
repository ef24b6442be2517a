#include "prof/prof.hpp"

#include <atomic>

namespace dsouth::prof {

// Allocation counters. The interposing operator new/delete pair lives in a
// separate TU (alloc_hook.cpp) that targets opt into compiling in; these
// counters exist unconditionally so readers never need to know whether the
// hook is present. Relaxed atomics: the counters are monotonic tallies read
// only between runs, never synchronization points.

namespace alloc_hook {
namespace {
std::atomic<bool> g_available{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::uint64_t> g_frees{0};
}  // namespace

bool available() { return g_available.load(std::memory_order_relaxed); }
std::uint64_t allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}
std::uint64_t bytes() { return g_bytes.load(std::memory_order_relaxed); }
std::uint64_t frees() { return g_frees.load(std::memory_order_relaxed); }

namespace detail {
void note_alloc(std::uint64_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
}
void note_free() { g_frees.fetch_add(1, std::memory_order_relaxed); }
void set_available() { g_available.store(true, std::memory_order_relaxed); }
}  // namespace detail
}  // namespace alloc_hook

}  // namespace dsouth::prof
