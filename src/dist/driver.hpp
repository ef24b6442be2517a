#pragma once

/// \file driver.hpp
/// Experiment driver for the distributed solvers: runs parallel steps,
/// records the exact metric series the paper's tables and figures are made
/// of (residual norm, modeled wall-clock, communication cost by category,
/// relaxations, active ranks), and extracts target-residual summaries with
/// the paper's log10 interpolation rule (Table 2 caption).

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/distributed_southwell.hpp"
#include "dist/solver_base.hpp"
#include "faults/fault_plan.hpp"
#include "graph/partition.hpp"
#include "simmpi/execution.hpp"
#include "simmpi/machine_model.hpp"
#include "trace/trace.hpp"

namespace dsouth::dist {

enum class DistMethod {
  kBlockJacobi,
  kParallelSouthwell,
  kDistributedSouthwell,
  /// Multicolor Block Gauss-Seidel (paper §1's classical alternative);
  /// one parallel step per subdomain color.
  kMulticolorBlockGs,
};

const char* method_name(DistMethod m);
const char* method_abbrev(DistMethod m);  // BJ / PS / DS, as in the tables

/// The watchdog's divergence bound: ‖r‖ above this multiple of the initial
/// residual counts as diverged.
inline constexpr double kWatchdogGrowthFactor = 1e3;

/// Divergence watchdog (docs/resilience.md): observer-side checks on the
/// recorded residual series that stop a faulted run deterministically
/// instead of letting it hang or overflow. Fires are reported, never
/// thrown — histories keep everything recorded up to the stop.
///
/// An enabled watchdog always fires when ‖r‖ is NaN/Inf, or when it exceeds
/// kWatchdogGrowthFactor × the initial residual.
struct WatchdogOptions {
  bool enabled = false;
  /// Fire when the best residual seen has not improved for this many
  /// consecutive steps (0 disables the stall check).
  index_t stall_steps = 0;
};

struct WatchdogReport {
  bool fired = false;
  std::string reason;  ///< human-readable cause ("" unless fired)
  index_t step = 0;    ///< parallel step at which the watchdog fired
};

/// End-of-run fault/recovery accounting, present iff a nonzero FaultPlan
/// was attached (so zero-plan records stay identical to fault-free runs).
/// Injection counts come from the runtime's CommStats; rejection/refresh
/// counts from the solver's resilient receive path (zero when resilience
/// was off).
struct FaultSummary {
  std::uint64_t msgs_dropped = 0;
  std::uint64_t msgs_duplicated = 0;
  std::uint64_t msgs_corrupted = 0;  ///< bit-flipped or truncated
  /// Messages swallowed because an endpoint was permanently dead
  /// (faults::RankKill — staged, in-flight, or addressed to a dead rank).
  std::uint64_t msgs_dead_dropped = 0;
  std::uint64_t rejected_corrupt = 0;
  std::uint64_t rejected_stale = 0;
  std::uint64_t refreshes_sent = 0;
};

/// End-of-run physical-hop accounting on the two-level network, present
/// iff a non-flat node topology was attached (DistRunOptions::
/// ranks_per_node). Counts come from the runtime's CommStats;
/// all integers, deterministic across backends.
struct NodeTotals {
  std::uint64_t msgs_intra = 0;   ///< intra-node physical hops
  std::uint64_t bytes_intra = 0;  ///< modeled bytes on the intra tier
  std::uint64_t msgs_inter = 0;   ///< inter-node physical hops
  std::uint64_t bytes_inter = 0;  ///< modeled bytes on the inter tier
  /// Leader->leader physical messages (bare or framed; routing on only).
  std::uint64_t forward_frames = 0;
  /// Logical wire records those messages carried.
  std::uint64_t forwarded_records = 0;
};

/// End-of-run asynchronous-delivery accounting, present iff the run used
/// async delivery (`DistRunOptions::async`). Counts come from the
/// runtime's CommStats; all integers, deterministic across backends.
struct AsyncTotals {
  std::uint64_t delivered = 0;      ///< messages matured after a latency draw
  std::uint64_t staleness_sum = 0;  ///< Σ (deliver epoch − staged epoch)
  std::uint64_t staleness_max = 0;  ///< worst observed staleness, in epochs
  std::uint64_t epochs = 0;         ///< total epochs the run closed
};

struct DistRunOptions {
  index_t max_parallel_steps = 50;  ///< the paper runs 50 everywhere
  /// Stop as soon as the recorded residual reaches this value (0 = run all
  /// steps; Table 2 post-processes full histories instead).
  value_t stop_at_residual = 0.0;
  /// Abort early if the residual exceeds this (divergence guard for the
  /// strong-scaling sweeps; 0 disables). Histories keep what was recorded.
  value_t divergence_abort = 0.0;
  simmpi::MachineModel machine{};
  /// Event-driven (asynchronous) delivery: set simmpi::AsyncDelivery on
  /// the runtime and switch every solver to its relax-on-arrival step
  /// (one fused epoch per parallel step). Latency draws are stateless
  /// SplitMix64 hashes, so async runs are bit-identical across execution
  /// backends. Resilience is auto-enabled (async arrival is out-of-order
  /// by construction, and the seq-gated absolute-x receive path is what
  /// keeps DS's Γ̃ bookkeeping correct); this inherits resilience's
  /// incompatibility with DS send_threshold.
  bool async = false;
  /// Seed for the per-edge latency draws (async only).
  std::uint64_t async_seed = 0xA51CULL;
  /// Uniform extra-latency window, in epochs, for async message
  /// maturation: each message draws from [min, max] (async only).
  int async_min_latency = 0;
  int async_max_latency = 3;
  /// Hard bound enforced by the runtime on message staleness: a message
  /// staged at epoch e is delivered no later than the fence closing epoch
  /// e + max_staleness, whatever the latency draw said. 0 degenerates to
  /// bulk-synchronous delivery outright (BSP solver stepping, no deliver
  /// events, no async totals) — the run is then byte-identical to a
  /// non-async run with resilience enabled. Async only.
  std::uint64_t max_staleness = 4;
  DistributedSouthwellOptions ds{};
  /// Parallel Southwell ablation: disable explicit residual updates
  /// (the deadlock-prone Ref. [18] scheme).
  bool ps_explicit_residual_updates = true;
  /// Which ExecutionBackend runs the per-rank phases. Results are
  /// bit-identical across backends (the fence merge is deterministic);
  /// the thread pool only changes real wall-clock time.
  simmpi::BackendKind backend = simmpi::BackendKind::kSequential;
  /// Thread count for the thread-pool backend (0 = hardware concurrency).
  int num_threads = 0;
  /// Node-aware two-level topology (simmpi/node_topology.hpp, DESIGN.md
  /// §13, docs/communication.md). `ranks_per_node > 0` groups ranks into
  /// consecutive blocks of that size (rank r lives on node r /
  /// ranks_per_node) and attaches the topology to the runtime for the
  /// whole run; 0 (the default) — or 1, a flat topology — leaves the
  /// runtime single-level and byte-identical to pre-node-aware builds. The
  /// topology only changes what the simulated wire *costs* (tiered
  /// machine-model charges, kHop trace events, NodeTotals), never what it
  /// delivers: solver iterates and residual histories are bit-identical
  /// with the feature on or off.
  int ranks_per_node = 0;
  /// Route inter-node records through one leader rank per node (fan-in /
  /// fan-out aggregation — Runtime::set_node_topology). When false the
  /// topology only classifies traffic into tiers: the "direct" baseline
  /// the node-aware bench compares routing against. Ignored without a
  /// topology.
  bool node_route = true;
  /// Structured tracing (src/trace). `trace.enabled = true` attaches a
  /// tracer to the runtime for the whole run; the merged event log and
  /// metric totals come back in DistRunResult::trace_log. The trace stream
  /// is deterministic, every field of it: byte-identical across backends
  /// and thread counts (events carry modeled time only; host time is
  /// DistRunResult::wall_seconds). Disabled tracing has zero effect on
  /// results or stats.
  trace::TraceOptions trace{};
  /// Deterministic fault injection (src/faults). A schedule is compiled
  /// and attached to the runtime only when the plan is nonzero
  /// (`faults.any()`), so the default path is byte-identical to a
  /// fault-free build. Injected faults are bit-reproducible across
  /// execution backends.
  faults::FaultPlan faults{};
  /// Solver-side recovery (solver_base.hpp). make_dist_solver refuses it
  /// with a positive ds.send_threshold for DS.
  ResilienceOptions resilience{};
  /// Observer-side divergence watchdog; fires stop the run loop early and
  /// are reported in DistRunResult::watchdog.
  WatchdogOptions watchdog{};
};

/// Per-run series; index k = state after k parallel steps (index 0 = the
/// initial state). All cumulative except `active_ranks`.
struct DistRunResult {
  std::string method;
  int num_ranks = 0;
  index_t n = 0;
  std::string backend;   ///< execution backend the run used
  int num_threads = 1;   ///< threads the backend ran with
  /// Real wall-clock seconds of the solve loop (host time, NOT the machine
  /// model — that is `model_time`). This is what the backend knob changes.
  double wall_seconds = 0.0;

  /// Exact end-of-run CommStats totals (integers, deterministic across
  /// backends) — the quantities the bench `-json` records gate on.
  struct CommTotals {
    std::uint64_t msgs = 0;           ///< all (physical) messages sent
    std::uint64_t bytes = 0;          ///< all modeled bytes sent
    std::uint64_t msgs_solve = 0;     ///< MsgTag::kSolve messages
    std::uint64_t msgs_residual = 0;  ///< MsgTag::kResidual messages
    std::uint64_t msgs_other = 0;     ///< MsgTag::kOther messages
    /// Wire records carried (== msgs except in batched runs, whose tenant
    /// frames carry one record per tenant; see wire/comm_plan.hpp).
    std::uint64_t msgs_logical = 0;
    std::uint64_t msgs_logical_solve = 0;
    std::uint64_t msgs_logical_residual = 0;
  };
  CommTotals comm_totals;

  std::vector<double> residual_norm;  ///< ‖r‖₂ (exact, observer-side)
  /// Modeled seconds, cumulative. The last entry is the runtime's clock
  /// at the end of the run, an async run's drain epochs included.
  std::vector<double> model_time;
  std::vector<double> comm_cost;      ///< total msgs / P, cumulative
  std::vector<double> solve_comm;     ///< solve-message cost, cumulative
  std::vector<double> res_comm;       ///< explicit-residual cost, cumulative
  std::vector<double> relaxations;    ///< row relaxations, cumulative
  std::vector<index_t> active_ranks;  ///< per step (size = #steps)
  std::vector<value_t> final_x;       ///< gathered iterate after the run
  /// Merged event log + metric totals when opt.trace.enabled, else null.
  /// Export with trace::write_jsonl / trace::write_chrome_trace.
  std::shared_ptr<const trace::TraceLog> trace_log;
  /// Fault/recovery totals iff a nonzero FaultPlan was attached.
  std::optional<FaultSummary> fault_summary;
  /// Async-delivery totals iff the run used async delivery.
  std::optional<AsyncTotals> async_totals;
  /// Two-tier hop totals iff a non-flat node topology was attached.
  std::optional<NodeTotals> node_totals;
  /// Watchdog outcome (default-constructed / not fired unless enabled).
  WatchdogReport watchdog;

  std::size_t steps_taken() const { return active_ranks.size(); }

  /// Summary at the first crossing of `target` (log10-interpolated,
  /// as in Table 2). nullopt = the paper's †.
  struct AtTarget {
    double steps = 0;
    double model_time = 0;
    double comm_cost = 0;
    double solve_comm = 0;
    double res_comm = 0;
    double relaxations_per_n = 0;
    double active_fraction = 0;  ///< mean over the steps up to the crossing
  };
  std::optional<AtTarget> at_target(double target) const;

  /// Table-4 style per-step means over the whole run.
  double mean_step_time() const;
  double mean_step_comm() const;
  double mean_active_fraction() const;
};

/// Build a solver (tests use this to poke at solver internals). Every
/// RunHarness solver is built here, so this is where DS option rules live:
/// it throws CheckError, naming the options, for a negative
/// ds.heartbeat_period or ds.send_threshold, a heartbeat with
/// ds.enable_corrections off, and a positive send_threshold with
/// resilience or async.
std::unique_ptr<DistStationarySolver> make_dist_solver(
    DistMethod method, const DistLayout& layout, simmpi::Runtime& rt,
    std::span<const value_t> b, std::span<const value_t> x0,
    const DistRunOptions& opt);

/// Partition + layout + run in one call (the bench harness entry point).
DistRunResult run_distributed(DistMethod method, const CsrMatrix& a,
                              const graph::Partition& partition,
                              std::span<const value_t> b,
                              std::span<const value_t> x0,
                              const DistRunOptions& opt = {});

/// Run against a pre-built layout (reuse across methods — the benches run
/// BJ/PS/DS on the same partition, as the paper's scripts do).
DistRunResult run_distributed(DistMethod method, const DistLayout& layout,
                              std::span<const value_t> b,
                              std::span<const value_t> x0,
                              const DistRunOptions& opt = {});

}  // namespace dsouth::dist
