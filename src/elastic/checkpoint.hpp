#pragma once

/// \file checkpoint.hpp
/// Versioned byte-buffer checkpoint codec for elastic restart
/// (docs/resilience.md "Permanent failure and recovery", DESIGN.md §15).
///
/// A checkpoint holds exactly what recovery restores, captured between
/// parallel steps: the runtime's cursors — epochs, model time, last-epoch
/// seconds, arrival counter, per-source send counters and CommStats
/// (simmpi::RuntimeState) — and the per-rank iterate x
/// (dist::DistStationarySolver::SolverState). Nothing else is needed: the
/// fresh solver generation recovery builds re-derives every residual and
/// every per-neighbor estimate (Γ, Γ̃, ghost layers, resilient caches) from
/// x in its setup exchange, and traffic in flight at a failure is lost.
/// Because every captured field is bit-identical across execution
/// backends (the fence-merge guarantee), the encoded buffer is too.
///
/// Wire format (all integers little-endian u64, all floating-point fields
/// bit-cast to u64 — values round-trip exactly, including NaN payloads):
///
///   header:  magic, version, payload words, checksum,
///            num_ranks, method id, epoch, step
///   payload: epochs, model time, last-epoch seconds, arrival counter,
///            lane_seq (length-prefixed), CommStats words
///            (length-prefixed), then the iterate: a rank count and one
///            length-prefixed block per rank.
///
/// The checksum is wire::checksum64 over every word after it: the header
/// fields num_ranks, method, epoch and step and the payload. Any change
/// confined to one of those words is detected, so every single-bit flip
/// anywhere in the buffer is refused. decode() also checks every length
/// prefix and element count against the words left and range-checks each
/// field it narrows, so a truncated, bit-flipped or inconsistent buffer
/// fails loudly instead of resuming from garbage. Encoder and decoder each
/// make one pass over the buffer, copying arrays in bulk. `method` records
/// the solver that captured the state; run_elastic restores into the
/// solver it is running and does not consult it.

#include <cstdint>
#include <span>
#include <vector>

#include "dist/solver_base.hpp"
#include "simmpi/runtime.hpp"

namespace dsouth::elastic {

using sparse::index_t;

/// Current encoder version (decode() rejects anything else, v4 included:
/// it carried the residuals, solver caches and in-flight messages).
inline constexpr std::uint64_t kCheckpointVersion = 5;

/// One decoded (or to-be-encoded) checkpoint.
struct Checkpoint {
  int num_ranks = 0;
  int method = 0;           ///< dist::DistMethod as int
  /// Runtime::epochs_completed() at capture; must equal runtime.epochs
  /// (encode and decode refuse a checkpoint where the two differ).
  std::uint64_t epoch = 0;
  index_t step = 0;         ///< parallel steps completed at capture

  simmpi::RuntimeState runtime{1};
  dist::DistStationarySolver::SolverState solver;
};

/// Serialize to the versioned byte buffer described above.
std::vector<std::uint8_t> encode(const Checkpoint& c);

/// Parse and verify (magic, version, checksum, every length prefix and
/// element count, header epoch == payload epochs) a buffer produced by
/// encode(). Malformed input is checked fatal — a checkpoint is trusted
/// state, not a network input, so corruption means the experiment itself
/// is broken.
Checkpoint decode(std::span<const std::uint8_t> bytes);

}  // namespace dsouth::elastic
