#pragma once

/// \file partition.hpp
/// K-way graph partitioning — the library's METIS stand-in (DESIGN.md §1).
/// The distributed experiments partition each matrix's adjacency graph into
/// one subdomain per simulated rank; partition quality (balance, edge cut)
/// controls both load balance and the number of neighbor messages, so the
/// partitioner is a first-class substrate here.
///
/// Method: recursive bisection. Each bisection grows one side by BFS from a
/// pseudo-peripheral vertex until the target weight is reached, then runs a
/// bounded Fiduccia–Mattheyses refinement (gain heap, vertex locking,
/// best-prefix rollback) to reduce the cut while keeping balance.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace dsouth::graph {

/// A k-way partition: `part[v]` in [0, num_parts).
struct Partition {
  index_t num_parts = 0;
  std::vector<index_t> part;

  std::vector<index_t> part_sizes() const;
  bool is_valid(index_t num_vertices) const;
};

/// Quality metrics.
struct PartitionQuality {
  index_t edge_cut = 0;      ///< edges with endpoints in different parts
  double imbalance = 0.0;    ///< max part size / ideal part size
  index_t empty_parts = 0;
};

PartitionQuality evaluate_partition(const Graph& g, const Partition& p);

/// The FM pass count, its early-exit streak and the balance tolerance are
/// constants in partition.cpp; only the BFS seed varies.
struct PartitionOptions {
  /// Seeds the random start-vertex probes of each bisection's BFS growth.
  std::uint64_t seed = 0x5041525449ULL;
};

/// Recursive-bisection k-way partitioning. Requires 1 <= k <= |V|.
/// Deterministic for fixed options.
Partition partition_recursive_bisection(const Graph& g, index_t k,
                                        const PartitionOptions& opt = {});

/// Incremental repartition after permanent part failure (src/elastic,
/// docs/resilience.md). Every vertex of a part in `dead_parts` is adopted
/// by a surviving part — preferring the survivor owning the most adjacent
/// edges, waves of adoption handling enclaves, smallest-survivor fallback
/// for disconnected orphans — then a bounded pairwise FM refinement (the
/// same gain-heap/locking/best-prefix machinery the bisection partitioner
/// uses) polishes the cut around every recipient part. The result keeps
/// `num_parts` unchanged: dead parts simply end up EMPTY (DistLayout
/// permits empty parts), so rank numbering survives the failure.
///
/// Deterministic for fixed inputs, and *incremental*: surviving parts keep
/// their vertices except where FM trades boundary vertices, so the
/// rebuild cost after a failure is proportional to the failed region, not
/// the graph. Requires at least one surviving part.
Partition repartition_after_failure(const Graph& g, const Partition& p,
                                    std::span<const index_t> dead_parts);

/// Simple baseline: k seeds grown breadth-first in round-robin (no
/// refinement). Used in tests as a sanity comparator and in the
/// partitioning example.
Partition partition_greedy_growing(const Graph& g, index_t k,
                                   std::uint64_t seed = 0x47524f57ULL);

/// Trivial contiguous-range partition of [0, n) into k nearly equal blocks
/// (what you get with no partitioner at all; ablation baseline).
Partition partition_contiguous_blocks(index_t n, index_t k);

}  // namespace dsouth::graph
