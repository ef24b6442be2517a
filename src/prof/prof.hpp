#pragma once

/// \file prof.hpp
/// `dsouth::prof` — host-side wall-clock profiling for the simulator
/// itself. The observability stack (docs/observability.md) attributes
/// *modeled* α–β–γ seconds; this layer answers the orthogonal question of
/// where the **host** spends real time running the simulation (fence
/// merging, delivery draws, solver phases, trace analysis), which is what
/// the ROADMAP's "push P into the hundreds" item needs profiled.
///
/// Design rules, mirroring the tracer (docs/observability.md):
///
/// * **Attach by pointer, zero-cost when off.** `Runtime::set_profiler`
///   holds a nullable `prof::Profiler*`; every timing hook is a
///   `ScopedPhase` whose constructor is an inlined null test. With no
///   profiler attached the simulation's traces, metrics, and bench
///   records are byte-identical to a build that never heard of profiling
///   (enforced by tests/test_prof.cpp). Building with
///   `-DDSOUTH_PROF_DISABLED` compiles every hook out entirely.
/// * **Deterministic-safe.** Profiling reads `std::chrono::steady_clock`
///   and process-wide allocation counters — both nondeterministic — so
///   nothing it measures may feed back into the simulation, and every
///   exporter treats its numbers as *advisory* (never gated bit-exactly;
///   the one deterministic product, allocations per warm solver step, is
///   measured by bench/scaling on a dedicated sequential window).
/// * **One lane per rank plus a runtime lane.** Like the metrics
///   registry, lane p is only written by the thread driving rank p
///   mid-epoch, and lane P (the runtime lane) only by the single-threaded
///   fence/driver/analysis code — so aggregation needs no atomics and
///   adds no synchronization to the threaded backend.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace dsouth::prof {

/// The host phases the simulator attributes wall time to. Per-rank lanes
/// use the solver phases (absorb/relax/encode/stage); the runtime lane
/// carries the rest — a lane discipline `dsouth-analyze -check` verifies
/// against a prof record, along with the nesting invariants: every
/// rank-lane span lies inside a driver `kStep` span, and
/// `kDeliveryPolicy`/`kNodePrepass` spans nest inside `kFence` spans.
/// (`kRelax` covers the shared sweep prologue only, so a solver's `kEncode`
/// span follows its relax span instead of nesting inside it.)
enum class PhaseId : int {
  kStep = 0,        ///< one full solver parallel step (driver, runtime lane)
  kAbsorb,          ///< solver rank_absorb (per-rank lane)
  kRelax,           ///< relax_subdomain: snapshot + sweep (per-rank lane)
  kEncode,          ///< wire-record encode + channel staging loops (per-rank lane)
  kStage,           ///< Runtime::stage payload handoff (per-rank lane)
  kFence,           ///< Runtime::fence merge + maturation (runtime lane)
  kDeliveryPolicy,  ///< event-driven latency draws + clamping (nested in fence)
  kNodePrepass,     ///< node-aware hop pre-pass (nested in fence)
  kAnalysis,        ///< trace analysis (dsouth::analysis, runtime lane)
};

inline constexpr int kNumPhases = 9;

/// Stable lower-case phase name ("step", "absorb", ...), used by every
/// exporter and by the prof-record cross-rules.
const char* phase_name(PhaseId phase);

/// log2-nanosecond histogram width: bucket i counts spans whose duration
/// in ns has bit-width i (bucket 0 = 0 ns, bucket 40 ≈ 18 minutes).
inline constexpr int kNumHistBuckets = 41;

/// Aggregate for one (lane, phase) slot.
struct PhaseStats {
  std::uint64_t count = 0;     ///< spans recorded
  std::uint64_t total_ns = 0;  ///< summed wall duration
  std::uint64_t max_ns = 0;    ///< worst single span
  std::array<std::uint64_t, kNumHistBuckets> hist{};  ///< log2-ns histogram
};

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

/// Wall-clock aggregation for one run: `num_ranks + 1` lanes × kNumPhases
/// slots of PhaseStats, an optional bounded per-lane span log (for the
/// Chrome/Perfetto exporter), and the run's allocation-counter window.
///
/// Thread contract (same as trace::MetricsRegistry): `record` on lane p
/// may run concurrently with `record` on lane q ≠ p; the runtime lane is
/// only written single-threaded (fence/driver/analysis). Everything else
/// — construction, snapshots, the alloc window — happens outside epochs.
class Profiler {
 public:
  /// One span kept by the span log (Chrome exporter input). Start is
  /// nanoseconds since the profiler's construction, on steady_clock.
  struct Span {
    PhaseId phase;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
  };

  /// `span_capacity` bounds the per-lane span log (0 disables it; spans
  /// past the bound are dropped and counted, aggregates still update).
  explicit Profiler(int num_ranks, std::size_t span_capacity = 1 << 14);

  int num_ranks() const { return num_ranks_; }
  /// The extra lane fence/driver/analysis phases record into.
  int runtime_lane() const { return num_ranks_; }
  int num_lanes() const { return num_ranks_ + 1; }

  /// Fold one finished span into (lane, phase); called by ~ScopedPhase.
  void record(int lane, PhaseId phase, std::uint64_t start_ns,
              std::uint64_t dur_ns);

  /// Nanoseconds from the profiler's construction to `tp`.
  std::uint64_t since_origin_ns(
      std::chrono::steady_clock::time_point tp) const;

  const PhaseStats& stats(int lane, PhaseId phase) const;
  /// Aggregate of `stats` over every lane (count/total/max/hist summed;
  /// max is the max over lanes).
  PhaseStats lane_sum(PhaseId phase) const;

  const std::vector<Span>& spans(int lane) const;
  std::uint64_t dropped_spans() const {
    return dropped_spans_.load(std::memory_order_relaxed);
  }

  /// Allocation window: `begin_alloc_window` snapshots the process-wide
  /// counters, `end_alloc_window` stores the deltas (0/0/0 when the hook
  /// is not linked). The driver brackets the run with these.
  void begin_alloc_window();
  void end_alloc_window();
  bool alloc_tracking() const { return alloc_tracking_; }
  std::uint64_t allocs_total() const { return allocs_total_; }
  std::uint64_t allocs_bytes() const { return allocs_bytes_; }
  std::uint64_t frees_total() const { return frees_total_; }

 private:
  int num_ranks_;
  std::size_t span_capacity_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<PhaseStats> slots_;        ///< lane-major, kNumPhases per lane
  std::vector<std::vector<Span>> spans_; ///< per lane, bounded
  std::atomic<std::uint64_t> dropped_spans_{0};  ///< shared across lanes
  bool alloc_tracking_ = false;
  std::uint64_t alloc_base_allocs_ = 0, alloc_base_bytes_ = 0,
                alloc_base_frees_ = 0;
  std::uint64_t allocs_total_ = 0, allocs_bytes_ = 0, frees_total_ = 0;
};

/// RAII phase timer. With a null profiler the constructor and destructor
/// are each one branch — the hooks stay in the hot paths unconditionally,
/// matching the tracer's zero-cost-when-off idiom. Non-copyable; returned
/// by value only through guaranteed elision (dist/solver_base.hpp).
class ScopedPhase {
 public:
#ifdef DSOUTH_PROF_DISABLED
  ScopedPhase(Profiler*, int, PhaseId) {}
#else
  ScopedPhase(Profiler* prof, int lane, PhaseId phase)
      : prof_(prof), lane_(lane), phase_(phase) {
    if (prof_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedPhase() {
    if (prof_ == nullptr) return;
    const auto end = std::chrono::steady_clock::now();
    const auto dur = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         end - start_)
                         .count();
    prof_->record(lane_, phase_, prof_->since_origin_ns(start_),
                  dur > 0 ? static_cast<std::uint64_t>(dur) : 0);
  }
#endif
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
#ifndef DSOUTH_PROF_DISABLED
  Profiler* prof_ = nullptr;
  int lane_ = 0;
  PhaseId phase_ = PhaseId::kStep;
  std::chrono::steady_clock::time_point start_{};
#endif
};

}  // namespace dsouth::prof
