#pragma once

/// \file node_topology.hpp
/// Two-level (node × rank) machine topology for the simulated runtime.
///
/// Real machines are not flat: P MPI ranks live on P/c nodes of c cores
/// each, and an inter-node message costs an order of magnitude more than
/// an intra-node one. NodeTopology is the rank → node map the runtime and
/// the layout share (DESIGN.md §13, docs/communication.md): it fixes, per
/// node, one *leader* rank — deterministically the lowest rank id on the
/// node — through which node-aware routing funnels all inter-node traffic
/// (fan-in at the source node's leader, one aggregated message between
/// leaders, fan-out at the destination node's leader), the aggregation of
/// Bienz/Gropp/Olson's *Node Aware SpMV* (PAPERS.md) applied to the same
/// ghost-exchange pattern.
///
/// The topology is two numbers, (num_ranks, ranks_per_node): rank r lives
/// on node r / ranks_per_node, and every query is O(1) arithmetic. A
/// *flat* topology — every node holding exactly one rank — carries no
/// information (every message is inter-node, no aggregation is possible),
/// and the runtime treats it exactly like no topology at all, which is
/// what keeps flat-topology runs byte-identical to topology-free ones (the
/// same degeneracy contract as staleness-0 async delivery,
/// simmpi/delivery.hpp).

namespace dsouth::simmpi {

class NodeTopology {
 public:
  /// Pack `num_ranks` ranks onto nodes of `ranks_per_node` consecutive
  /// ranks each (the common contiguous-blocks mapping of real MPI
  /// launchers): rank r lives on node r / ranks_per_node. The last node
  /// may be partially filled. Requires num_ranks >= 1 and
  /// 1 <= ranks_per_node.
  static NodeTopology ranks_per_node(int num_ranks, int ranks_per_node);

  int num_ranks() const { return num_ranks_; }
  int num_nodes() const {
    return (num_ranks_ + ranks_per_node_ - 1) / ranks_per_node_;
  }

  /// The node rank `r` lives on.
  int node_of(int r) const { return r / ranks_per_node_; }

  /// The node's leader: deterministically the lowest rank id on the node
  /// (so leader election never depends on construction or backend order).
  int leader_of(int node) const { return node * ranks_per_node_; }

  bool same_node(int a, int b) const { return node_of(a) == node_of(b); }

  /// True when every node holds exactly one rank: one rank per node, or
  /// one rank in all. Degenerate: no message is intra-node and no
  /// aggregation is possible; the runtime treats a flat topology exactly
  /// like no topology (byte-identity contract).
  bool is_flat() const { return ranks_per_node_ == 1 || num_ranks_ == 1; }

 private:
  NodeTopology(int num_ranks, int ranks_per_node)
      : num_ranks_(num_ranks), ranks_per_node_(ranks_per_node) {}

  int num_ranks_;
  int ranks_per_node_;
};

}  // namespace dsouth::simmpi
