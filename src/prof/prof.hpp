#pragma once

/// \file prof.hpp
/// `dsouth::prof::alloc_hook` — the repository's one heap-allocation
/// counter. It answers a host-side question the deterministic trace
/// cannot: how many operator-new calls a piece of the simulator makes.
/// bench/scaling gates its `allocs_per_step` record field on it, and
/// tests assert with it that the warm solver step allocates nothing and
/// that the binary reader and `CsrMatrix::extract` allocate no more than
/// they must.
///
/// The counters are process-wide tallies, nondeterministic in general, so
/// nothing may feed them back into the simulation. Per-layer host *time*
/// is the benchmark suite's span ledger (bench/suite/README.md), not this
/// module's.

#include <cstdint>

namespace dsouth::prof {

/// Process-wide allocation counters, live only when the interposing
/// operator new/delete pair (src/prof/alloc_hook.cpp) was compiled into
/// the binary — see `dsouth_enable_alloc_tracking()` in
/// src/prof/CMakeLists.txt. Without the hook every counter stays 0 and
/// `available()` is false, so callers can always read them.
namespace alloc_hook {
bool available();
std::uint64_t allocations();  ///< operator new calls so far
std::uint64_t bytes();        ///< bytes requested from operator new
std::uint64_t frees();        ///< operator delete calls so far
namespace detail {
void note_alloc(std::uint64_t n);  ///< called by the interposed operator new
void note_free();                  ///< called by the interposed operator delete
void set_available();              ///< called once by the hook TU's initializer
}  // namespace detail
}  // namespace alloc_hook

}  // namespace dsouth::prof
