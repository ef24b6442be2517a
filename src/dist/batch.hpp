#pragma once

/// \file batch.hpp
/// Batched multi-tenant serving: run B independent systems ("tenants" —
/// same sparsity, different right-hand sides and/or coefficients) through
/// ONE simulated runtime, sharing epochs, fences, and physical messages
/// (DESIGN.md §14, docs/serving.md).
///
/// Why batching wins: the machine model charges per-message latency (α)
/// and a per-epoch synchronization term per fence. B solo runs pay both B
/// times; a batched run pays one fence per epoch for all tenants, and
/// co-scheduled tenants that stage to the same neighbor in the same epoch
/// share a single physical put (a wire tenant frame, wire.hpp), so the
/// physical message count drops below B × solo while every tenant's
/// *logical* record count is exactly its solo count. bench/throughput
/// measures both and gates on them.
///
/// Scheduling: each parallel step runs every non-converged tenant through
/// run_parallel_step (solver_base.hpp), the one step schedule a solo
/// step() runs too. The coordinator plugs in two rank phases: "ship"
/// merges what the tenants' ChannelSets buffered into one tenant frame per
/// (peer, tag) (wire::ChannelSet::ship_batch), and the "demux absorb"
/// walks each received frame, dispatching every entry to its tenant's
/// absorb_payload. Tenants only share the wire — no solver state crosses
/// tenants — so each tenant's iterates, absorb order, and floating-point
/// operation order are exactly its solo run's, and the per-tenant
/// trajectories are bit-identical to B solo runs under the default
/// bulk-synchronous configuration (tests/test_batch.cpp).
///
/// Convergence and dropout: tenants converge at different steps. A tenant
/// whose residual reaches its target stops scheduling (no begin_step, no
/// sends — it drops out of the frames) but keeps absorbing anything still
/// in flight to it (event-driven runs mature messages late), so survivors
/// are not perturbed: their per-tenant record streams are unchanged by a
/// neighbor tenant's exit. A tenant whose initial residual already meets
/// its target takes 0 steps.
///
/// B = 1 runs the same loop over run_distributed's own stack (no tenant
/// accounting, no batch staging), absorbing with the solver's rank_absorb
/// and shipping nothing, so a single-tenant batch is byte-identical to
/// run_distributed — iterates, traces, totals — by construction, and every
/// BatchRunResult field means the same for every B. (run_distributed
/// always takes a first step; a tenant already at its target takes none.)
///
/// Composes with batching (tests/test_batch.cpp): async delivery, node
/// topology, tracing, fault injection with resilience, and kill plans — a
/// killed rank goes silent for every tenant at once, exactly as in each
/// tenant's solo run (every phase runs through for_each_live_rank).
/// Unsupported for every B (checked): watchdog and divergence_abort
/// (observer policies defined on a single trajectory).

#include <memory>
#include <vector>

#include "dist/harness.hpp"

namespace dsouth::dist {

/// Per-tenant outcome of a batched run.
struct TenantResult {
  /// ‖r‖₂ after k parallel steps of THIS tenant's schedule; index 0 = the
  /// initial state. A tenant that dropped out at step s has s + 1 entries.
  std::vector<double> residual_norm;
  /// Steps this tenant was scheduled for (== residual_norm.size() - 1).
  index_t steps = 0;
  /// True when the tenant reached its stop_at_residual target.
  bool converged = false;
  double final_residual = 0.0;
  std::vector<value_t> final_x;
  /// Row relaxations this tenant performed (cumulative).
  std::uint64_t relaxations = 0;
  /// Logical wire records shipped on the tenant's behalf — equal to the
  /// logical message count of the tenant's solo run (CommStats tenant
  /// tallies, or the run's logical totals when B = 1; tests pin the
  /// invariance).
  std::uint64_t wire_records = 0;
  /// Payload doubles shipped on the tenant's behalf (its share of the
  /// shared frames, excluding frame headers).
  std::uint64_t wire_doubles = 0;
};

/// Whole-batch outcome: shared-wire totals plus per-tenant results.
struct BatchRunResult {
  std::string method;
  int num_ranks = 0;
  index_t n = 0;            ///< rows per tenant system
  std::size_t batch = 0;    ///< B
  std::string backend;
  int num_threads = 1;
  double wall_seconds = 0.0;

  std::vector<TenantResult> tenants;

  /// Exact end-of-run CommStats totals for the SHARED wire (physical
  /// messages are shared frames; logical records sum the tenants').
  DistRunResult::CommTotals comm_totals;
  /// Modeled seconds for the whole batch, an async run's drain included.
  double model_time = 0.0;
  index_t steps_taken = 0;  ///< parallel steps until all tenants finished
  std::uint64_t epochs = 0; ///< runtime epochs the batch closed (drain too)
  /// Tenant frames the demux rejected as malformed under fault injection
  /// (a bad header, length or tenant id). Entries before the bad field
  /// stay applied; the rest are lost to their tenants and recovered by
  /// the resilient refresh path.
  std::uint64_t frames_rejected = 0;
  /// Merged trace when opt.trace.enabled, else null.
  std::shared_ptr<const trace::TraceLog> trace_log;
};

/// Run `specs.size()` tenants of `method` batched through one runtime.
/// `layouts` holds either ONE layout (all tenants share the matrix — the
/// different-RHS case) or one per tenant (different coefficients, same
/// sparsity); all layouts must share the rank count and communication
/// structure, which proxy-suite tenant sweeps guarantee by construction
/// (sparse/proxy_suite.hpp).
BatchRunResult run_distributed_batch(DistMethod method,
                                     std::span<const DistLayout* const> layouts,
                                     std::span<const TenantSpec> specs,
                                     const DistRunOptions& opt = {});

}  // namespace dsouth::dist
