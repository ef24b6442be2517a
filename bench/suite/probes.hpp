#pragma once

/// \file probes.hpp
/// Direct calls into single layers on the workload's own data, for the
/// per-layer costs the solve does not expose: the relax kernel, the wire
/// codec, incremental repartitioning and the checkpoint codec. Each timed
/// call runs inside a span named after the layer operation; the caller
/// reads the times back from the spans.

#include <cstdint>
#include <span>

#include "dist/layout.hpp"
#include "elastic/checkpoint.hpp"
#include "graph/partition.hpp"
#include "timing.hpp"

namespace dsouth::suite {

/// Work in one "kernels.gs_sweep" span: one Gauss–Seidel sweep over every
/// rank's a_local. Bytes are computed from array sizes (each matrix entry,
/// row pointer and x/r element read or written once), not measured.
struct SweepWork {
  std::uint64_t nnz = 0;
  std::uint64_t rows = 0;
  double flops = 0.0;
  double bytes = 0.0;
};
SweepWork probe_gs_sweep(const dist::DistLayout& layout,
                         std::span<const sparse::value_t> x0,
                         double budget_s, Spans& spans);

/// Doubles in one "wire.encode" / "wire.decode" span: one DS solve record
/// (kSolveUpdate) per directed channel of the CommPlan, at its width.
std::uint64_t probe_wire(const dist::DistLayout& layout,
                         std::span<const sparse::value_t> x0, double budget_s,
                         Spans& spans);

/// `reps` "graph.repartition" spans: repartition_after_failure with ranks
/// 3 and 11 dead (the elastic workload's kills) on the workload partition.
void probe_repartition(const sparse::CsrMatrix& a,
                       const graph::Partition& part, int reps, Spans& spans);

/// `reps` "elastic.ckpt_encode" and "elastic.ckpt_decode" spans on `state`;
/// returns the encoded size in bytes.
std::uint64_t probe_checkpoint(const elastic::Checkpoint& state, int reps,
                               Spans& spans);

}  // namespace dsouth::suite
