#pragma once

/// \file elastic.hpp
/// Elastic ranks: checkpoint/restart and live repartitioning after
/// permanent rank failure (docs/resilience.md "Permanent failure and
/// recovery", DESIGN.md §15).
///
/// run_elastic wraps the classic experiment loop (dist/driver.cpp) with
/// three responsibilities:
///
///   1. **Checkpoint.** Every `checkpoint_every` parallel steps it captures
///      what recovery restores — the simmpi::Runtime cursors (epoch, model
///      time, send counters, CommStats) and the solver's per-rank iterate —
///      into a versioned byte buffer (elastic/checkpoint.hpp). Capture is
///      observer-side: a fault-free elastic run is byte-identical to
///      run_distributed, series for series and trace for trace.
///
///   2. **Detect.** After each step it asks the fault schedule which ranks
///      are permanently dead (faults::RankKill / RandomKills — the runtime
///      has already silenced them; peers only observed missing messages).
///
///   3. **Recover.** On a detected death it rolls the recorded series back
///      to the last checkpoint, redistributes the dead rank's rows over the
///      survivors with graph::repartition_after_failure (incremental: the
///      surviving assignment is kept except for FM boundary polish), builds
///      a fresh DistLayout/CommPlan/solver generation over the new
///      partition, restores the runtime cursors (epoch, model time,
///      CommStats, send counters) from the checkpoint — in-flight traffic is
///      dropped, exactly what a real failover loses — and resumes from the
///      checkpointed global iterate. The fresh solver's setup re-derives
///      the residuals and re-seeds every per-neighbor estimate (Γ, Γ̃,
///      ghost layers) exactly; MCBGS restarts its color rotation at color
///      0, and DS's correction/deferral counters restart at 0.
///
/// Determinism: every ingredient (kill draws, checkpoint bytes,
/// repartition, rebuilt layout, resumed stepping) is deterministic and
/// backend-independent, so an elastic run — including its recoveries — is
/// bit-reproducible across the sequential and thread-pool backends.

#include <cstdint>
#include <span>
#include <vector>

#include "dist/driver.hpp"
#include "graph/partition.hpp"

namespace dsouth::elastic {

using sparse::CsrMatrix;
using sparse::index_t;
using sparse::value_t;

/// Elastic-driver knobs, mirroring the shape of ResilienceOptions.
struct RecoveryOptions {
  /// Parallel steps between checkpoints. A checkpoint is always taken
  /// before step 1 and immediately after every recovery (the stored buffer
  /// must match the *current* partition generation); this period paces the
  /// ones in between. 0 keeps only those mandatory checkpoints.
  index_t checkpoint_every = 8;
};

/// One detected death and the recovery that followed.
struct RecoveryEvent {
  int dead_rank = -1;
  std::uint64_t kill_epoch = 0;   ///< epoch the rank died at (schedule)
  index_t detected_step = 0;      ///< parallel step after which detected
  index_t resumed_step = 0;       ///< checkpoint step the run rolled back to
  index_t rows_moved = 0;         ///< rows redistributed off the dead rank
  std::uint64_t checkpoint_bytes = 0;  ///< size of the restored buffer
};

/// run_distributed's result plus the elastic bookkeeping.
struct ElasticRunResult {
  /// Series/totals of the run as finally recorded: on recovery the series
  /// roll back to the checkpoint step and continue, so index k is "state
  /// after k surviving parallel steps" exactly as in a plain run. Totals
  /// and fault summary describe the final generation (whose CommStats were
  /// restored from the checkpoint, i.e. they are cumulative minus the
  /// rolled-back work). The trace log is the final generation's too, except
  /// that the elastic events (checkpoints, kills, restores, repartitions)
  /// are journaled across generations and replayed into each fresh tracer,
  /// so the full recovery story survives in order.
  dist::DistRunResult run;
  /// One entry per dead rank, in detection order.
  std::vector<RecoveryEvent> recoveries;
  index_t checkpoints_taken = 0;
  std::uint64_t last_checkpoint_bytes = 0;
  /// The partition the run finished on (dead parts empty).
  graph::Partition final_partition;
};

/// Run `method` on (a, partition, b, x0) under `opt` with elastic
/// checkpoint/restart per `rec`. Takes the matrix (not a prebuilt layout)
/// because recovery rebuilds the layout from a new partition.
ElasticRunResult run_elastic(dist::DistMethod method, const CsrMatrix& a,
                             const graph::Partition& partition,
                             std::span<const value_t> b,
                             std::span<const value_t> x0,
                             const dist::DistRunOptions& opt = {},
                             const RecoveryOptions& rec = {});

}  // namespace dsouth::elastic
