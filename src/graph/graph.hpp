#pragma once

/// \file graph.hpp
/// Undirected adjacency graphs derived from sparse-matrix structure.
/// Substrate for multicoloring (Multicolor Gauss–Seidel), partitioning
/// (replaces METIS) and repartitioning after a rank failure.

#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/types.hpp"

namespace dsouth::graph {

using sparse::index_t;

/// CSR-style undirected graph (self-loops excluded, neighbor lists sorted).
class Graph {
 public:
  Graph() = default;

  /// Adjacency of a square matrix: edge (i, j) iff a_ij or a_ji stored,
  /// i != j. For the (structurally symmetric) matrices in this project the
  /// symmetrization is a no-op but it is applied defensively. Cost:
  /// O(rows + nnz): each row is merged with the same row of the structural
  /// transpose, built by counting sort. Every row's columns must strictly
  /// ascend (CheckError otherwise). Equals from_edges over the stored
  /// off-diagonal pairs.
  static Graph from_matrix_structure(const sparse::CsrMatrix& a);

  /// Build from an explicit edge list (u, v pairs in any order; duplicates
  /// and self-loops removed). Cost: O(E log E) for one sort of the pairs.
  static Graph from_edges(index_t num_vertices,
                          std::span<const std::pair<index_t, index_t>> edges);

  index_t num_vertices() const { return n_; }
  index_t num_edges() const { return static_cast<index_t>(adj_.size()) / 2; }

  std::span<const index_t> neighbors(index_t v) const;
  index_t degree(index_t v) const { return ptr_[v + 1] - ptr_[v]; }
  index_t max_degree() const;

  /// BFS from `start` over vertices with mask[v] != 0 (empty mask = all);
  /// returns visit order.
  std::vector<index_t> bfs_order(index_t start,
                                 std::span<const char> mask = {}) const;

  /// Component id per vertex, ids dense from 0; returns the count.
  index_t connected_components(std::vector<index_t>& component) const;

  bool is_connected() const;

  /// A vertex of minimum degree among those furthest from `hint` — a good
  /// peripheral starting point for RCM and region growing.
  index_t pseudo_peripheral_vertex(index_t hint = 0) const;

 private:
  index_t n_ = 0;
  std::vector<index_t> ptr_;
  std::vector<index_t> adj_;
};

}  // namespace dsouth::graph
