#pragma once

/// \file harness.hpp
/// RunHarness — the assembly half of the experiment driver, factored out of
/// run_distributed so every driver that runs a distributed solver (the
/// classic driver.cpp loop, the batched serving loop in batch.cpp, the
/// elastic checkpoint/restart driver in src/elastic) constructs and
/// attaches the exact same stack in the exact same order:
///
///   runtime → async delivery → node topology → tracer → fault schedule →
///   tenants → backend → solver(s) → batch staging → resilience
///
/// The order is load-bearing: async delivery must precede the solver
/// (every step of the run must see one delivery mode), and so must the
/// tracer (DS's constructor registers its ds.* metrics). Sharing the assembly makes the elastic driver's
/// fault-free runs byte-identical to run_distributed, and lets batched
/// runs compose with every feature the way solo runs do, *by construction*
/// rather than by parallel maintenance (tests/test_elastic.cpp and
/// tests/test_batch.cpp pin it).

#include <memory>

#include "dist/driver.hpp"

namespace dsouth::dist {

/// One tenant's system for a multi-solver (batched) harness: right-hand
/// side, initial guess, and an optional per-tenant convergence target. The
/// spans must outlive the run.
struct TenantSpec {
  std::span<const value_t> b;
  std::span<const value_t> x0;
  /// Stop scheduling this tenant when its ‖r‖₂ reaches this value;
  /// 0 inherits DistRunOptions::stop_at_residual (0 there too = run all
  /// steps). Read by run_distributed_batch, not by the harness.
  value_t stop_at_residual = 0.0;
};

class RunHarness {
 public:
  /// Build the full stack over `layout` per `opt` (see driver.hpp for the
  /// knob semantics). The layout must outlive the harness.
  RunHarness(DistMethod method, const DistLayout& layout,
             std::span<const value_t> b, std::span<const value_t> x0,
             const DistRunOptions& opt);

  /// Multi-solver stack: one runtime and one set of attachments driving
  /// one solver per spec. `layouts` holds either ONE layout shared by every
  /// solver or one per spec; all must agree on rank count, row count and
  /// communication structure (checked). With two or more solvers the
  /// runtime accounts per tenant and every solver stages in batch mode
  /// (wire::ChannelSet::ship_batch merges their records into shared tenant
  /// frames). A single spec builds exactly the five-argument stack. The
  /// layouts must outlive the harness.
  RunHarness(DistMethod method, std::span<const DistLayout* const> layouts,
             std::span<const TenantSpec> specs, const DistRunOptions& opt);
  ~RunHarness();

  RunHarness(const RunHarness&) = delete;
  RunHarness& operator=(const RunHarness&) = delete;

  simmpi::Runtime& runtime() { return rt_; }
  const simmpi::Runtime& runtime() const { return rt_; }
  /// The first (for a solo harness: the only) solver.
  DistStationarySolver& solver() { return *solvers_.front(); }
  DistStationarySolver& solver(std::size_t i) { return *solvers_[i]; }
  simmpi::ExecutionBackend& backend() { return *backend_; }
  trace::Tracer* tracer() { return tracer_.get(); }
  /// Null when the plan was all-zero (the fault-free fast path).
  const faults::FaultSchedule* fault_schedule() const {
    return fault_schedule_.get();
  }

  /// Fill the run-identification fields (method/num_ranks/n/backend).
  void init_result(DistRunResult& result) const;

  /// Append one series entry (residual, model time, comm costs, carried
  /// relaxations).
  void record_state(DistRunResult& result) const;

  /// Run one solver().step() and record it: its host seconds into
  /// wall_seconds, its active-rank count, one record_state entry, and its
  /// relaxed rows added to relaxations.back().
  void step_and_record(DistRunResult& result);

  /// Asynchronous epilogue: deliver everything still maturing and absorb
  /// it, so final_x and the totals describe a fully-drained run. No-op
  /// under bulk-synchronous delivery (including the staleness-0
  /// degeneracy).
  void drain_if_async();

  /// The end-of-run CommStats totals.
  DistRunResult::CommTotals comm_totals() const;

  /// Copy comm_totals() and the conditional summaries (fault / async /
  /// node) into `result`, and end its model_time series at the runtime's
  /// clock, so a drain's epochs count (bulk-synchronous runs read the same
  /// value).
  void fill_totals(DistRunResult& result) const;

  /// End-of-run teardown: flush the tracer and detach it from the runtime.
  /// Returns the merged trace (null when untraced). Call once, last.
  std::shared_ptr<const trace::TraceLog> finish();

  /// finish(), storing the trace in result.trace_log.
  void finish(DistRunResult& result) { result.trace_log = finish(); }

 private:
  const DistRunOptions* opt_;
  simmpi::Runtime rt_;
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<faults::FaultSchedule> fault_schedule_;
  std::unique_ptr<simmpi::ExecutionBackend> backend_;
  std::vector<std::unique_ptr<DistStationarySolver>> solvers_;
};

/// The observer-side stop rules of the stepping drivers (run_distributed
/// and the elastic driver), applied after each recorded step:
/// DistRunOptions::stop_at_residual, divergence_abort, and the divergence
/// watchdog's non-finite, growth and stall checks.
class StopRules {
 public:
  /// `result` holds the initial state (residual_norm.front() is the growth
  /// check's reference).
  StopRules(const DistRunOptions& opt, const DistRunResult& result);

  /// Apply the rules to the last recorded step of `result`. Returns true
  /// when the run must stop; a watchdog fire is also written to
  /// result.watchdog, stamped with result.steps_taken().
  bool stop(DistRunResult& result);

  /// Roll the stall bookkeeping back with a series rolled back to a
  /// checkpoint: the best residual becomes the minimum of the kept series,
  /// and the stall count restarts.
  void rewind(const DistRunResult& result);

 private:
  const DistRunOptions* opt_;
  double r0_;
  double best_rn_;
  index_t steps_since_best_ = 0;
};

}  // namespace dsouth::dist
