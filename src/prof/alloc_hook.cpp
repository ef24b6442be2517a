/// \file alloc_hook.cpp
/// Interposing global operator new/delete pair feeding the
/// prof::alloc_hook counters. NOT part of the dsouth_prof library: a
/// replacement operator new only takes effect when its object file is
/// linked into the final binary, and pulling a no-undefined-symbol object
/// out of a static archive is linker-dependent — so targets opt in by
/// compiling this TU directly via `dsouth_enable_alloc_tracking(target)`
/// (src/prof/CMakeLists.txt). bench/scaling and the tests that count
/// allocations do.
///
/// The replacement pair routes through malloc/posix_memalign + free,
/// which is consistent, but GCC cannot see that once it inlines the
/// operators into callers and warns about new/free mismatches.

#include <algorithm>
#include <cstdlib>
#include <new>

#include "prof/prof.hpp"

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
// Flips alloc_hook::available() exactly once, before main.
const bool g_hook_registered = [] {
  dsouth::prof::alloc_hook::detail::set_available();
  return true;
}();
}  // namespace

void* operator new(std::size_t n) {
  dsouth::prof::alloc_hook::detail::note_alloc(n);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  dsouth::prof::alloc_hook::detail::note_alloc(n);
  const std::size_t align =
      std::max(static_cast<std::size_t>(al), sizeof(void*));
  void* p = nullptr;
  if (::posix_memalign(&p, align, n ? n : 1) == 0) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
// The nothrow forms must come from this pair too: under a sanitizer
// runtime they would otherwise be the runtime's, and the free() below
// would release memory it allocated.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  dsouth::prof::alloc_hook::detail::note_alloc(n);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void operator delete(void* p) noexcept {
  dsouth::prof::alloc_hook::detail::note_free();
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
