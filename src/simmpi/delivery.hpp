#pragma once

/// \file delivery.hpp
/// Asynchronous delivery for the simulated runtime (DESIGN.md §12).
///
/// By default the fence *is* the delivery semantics: every put staged in
/// epoch e lands in its destination window at the fence closing e — the
/// bulk-synchronous superstep of the paper's MPI formulation. An
/// AsyncDelivery value attached with Runtime::set_async_delivery instead
/// matures each message on a deterministic virtual clock: a per-message
/// latency draw of `min..max` extra epochs, clamped so no message is
/// delivered more than `max_staleness` epochs after it was staged — the
/// bounded-staleness asynchronous regime of Hong's D-iteration and the
/// Zou & Magoulès synchronization-reduction survey (PAPERS.md).
///
/// Determinism contract (same as src/faults): every latency draw is a
/// *stateless* hash of (seed, salt, epoch, src, dst, seq) (util::draw).
/// A message's key is assigned identically whichever execution backend
/// staged it, so asynchronous runs are bit-identical across the sequential
/// and threaded backends, and the draws are independent of the fault
/// hashes (distinct salt).

#include <cstdint>

namespace dsouth::simmpi {

/// Event-driven delivery settings. Defaults give a mildly asynchronous
/// fabric: uniform 0..3 extra epochs of latency, staleness capped at 4.
struct AsyncDelivery {
  std::uint64_t seed = 0xA51CULL;
  /// Latency draw bounds (epochs), inclusive: 0 <= min <= max.
  int min_latency_epochs = 0;
  int max_latency_epochs = 3;
  /// Bound the runtime enforces on non-fault delay: a message staged in
  /// epoch e is delivered no later than the fence closing epoch
  /// e + max_staleness. (Fault-injection reordering and stalls compose on
  /// top and may exceed it — a fault is allowed to be worse than the
  /// fabric model, see docs/resilience.md.) 0 collapses the setting to
  /// bulk-synchronous delivery outright: the Runtime then treats the run
  /// as BSP (no deliver events, no async metrics, solvers keep their
  /// fenced stepping), byte-identical to never attaching it — the
  /// reduction tests rely on this.
  std::uint64_t max_staleness = 4;

  /// Extra epochs of fabric latency for the message (src -> dst) with
  /// per-source send counter `seq`, staged in `epoch`: a stateless uniform
  /// draw in [min_latency_epochs, max_latency_epochs], before the
  /// runtime's staleness clamp.
  std::uint64_t extra_latency(std::uint64_t epoch, int src, int dst,
                              std::uint64_t seq) const;
};

}  // namespace dsouth::simmpi
