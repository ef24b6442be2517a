#pragma once

/// \file workload.hpp
/// The four benchmark workloads (README.md says why each exists): inputs
/// generated from the seed, the timed set-up, the solve through the public
/// entry point of each workload, and the output checks.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/driver.hpp"
#include "dist/layout.hpp"
#include "elastic/elastic.hpp"
#include "graph/partition.hpp"
#include "sparse/csr.hpp"
#include "timing.hpp"

namespace dsouth::suite {

using sparse::CsrMatrix;
using sparse::index_t;
using sparse::value_t;

enum class Kind { kSolo, kBatch, kElastic };

struct Workload {
  const char* name;
  const char* matrix;
  double size_factor;
  int procs;
  Kind kind;
  double target;         ///< ‖r‖₂ every solve (every tenant) must reach
  std::size_t tenants;   ///< systems per solve (B; 1 unless batched)
  /// Seeded instances per run; the end-to-end metrics average over them.
  std::size_t instances;
};

/// Lookup by name; throws CheckError for an unknown one.
const Workload& find_workload(const std::string& name);

/// One seeded instance of a workload: an initial guess per tenant, and the
/// solve options carrying its latency and fault seeds.
struct Instance {
  std::vector<std::vector<value_t>> x0s;
  dist::DistRunOptions opt;
};

/// Everything a solve needs; built by setup().
struct Inputs {
  CsrMatrix a;
  std::vector<value_t> b;  ///< all zeros (paper §4.2)
  graph::Partition part;
  std::unique_ptr<dist::DistLayout> layout;
  /// Per tenant (one entry unless batched): matrix and layout. Odd batch
  /// tenants own a coefficient variant; the rest alias `a` and `layout`.
  std::vector<std::unique_ptr<CsrMatrix>> variant_mats;
  std::vector<std::unique_ptr<dist::DistLayout>> variant_layouts;
  std::vector<const CsrMatrix*> mats;
  std::vector<const dist::DistLayout*> layouts;
  std::vector<Instance> instances;  ///< Workload::instances of them
  elastic::RecoveryOptions rec;
};

/// make_proxy, partition, DistLayout, tenant variants and their layouts
/// when batched, and every instance's x⁰ — the work `setup_s` times. Spans
/// go to `spans` when non-null. Heap-allocated: `mats` points into it.
std::unique_ptr<Inputs> setup(const Workload& w, std::uint64_t seed,
                              Spans* spans);

/// Solve options without the permanent kills (the elastic workload's
/// message faults and event-driven delivery stay): what the phase-table
/// replay and its run_distributed reference run.
dist::DistRunOptions kill_free(const dist::DistRunOptions& opt);

/// What one public-entry solve produced, reduced to what the metrics and
/// the checks need.
struct SolveOutcome {
  double model_s = 0.0;
  std::uint64_t msgs = 0;          ///< physical messages
  std::uint64_t msgs_logical = 0;  ///< wire records
  index_t steps = 0;               ///< kept parallel steps (batch: shared)
  std::uint64_t digest = 0;        ///< hash of every deterministic output
  // Elastic bookkeeping (zero elsewhere, where executed_steps == steps).
  std::uint64_t recoveries = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t rows_moved = 0;
  std::uint64_t executed_steps = 0;  ///< kept + rolled back
  std::shared_ptr<const trace::TraceLog> trace_log;
  std::vector<std::string> failures;  ///< empty when every check passed
};

/// One solve of instance `inst` through the workload's public entry point
/// (run_distributed, run_distributed_batch or run_elastic), with the
/// program's tracer on when `traced`, followed by the output checks.
SolveOutcome solve(const Workload& w, const Inputs& in, const Instance& inst,
                   bool traced);

/// Check ‖b − A·x‖₂, recomputed from `x`, against the target and, when
/// `exact` (bulk-synchronous runs), against the reported residual; appends
/// a description of any miss to `failures`. Event-driven runs get a looser
/// target (see kAsyncSlack in workload.cpp).
void check_residual(const CsrMatrix& a, const std::vector<value_t>& x,
                    double reported, double target, bool exact,
                    const std::string& what,
                    std::vector<std::string>& failures);

}  // namespace dsouth::suite
