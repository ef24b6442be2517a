#pragma once

/// \file layout.hpp
/// Distributed data layout: how a global SPD matrix is split across ranks.
///
/// Given a matrix and a k-way partition (DESIGN.md: one subdomain per
/// simulated MPI rank, partition from our METIS-substitute), this computes
/// for every rank p:
///   - its global rows (ascending; the paper's δ_p offsets generalized to
///     non-contiguous row sets),
///   - the local diagonal block A_pp,
///   - per neighbor q: the coupling blocks and index lists that the solvers
///     need to exchange boundary updates and maintain residual ghost layers.
///
/// Index conventions for a neighbor pair (p, q):
///   ghost_rows — q's rows coupled to p, ascending global order. This set
///     is simultaneously (a) the support of p's residual ghost layer z_q,
///     (b) the rows whose Δx q sends to p, and (c) q's "boundary rows
///     w.r.t. p" on the sending side — so one ordering serves both ends of
///     the channel and messages need no index payload.
///   send_rows_local — p's rows coupled to q (local indices, ascending):
///     the Δx and boundary-residual values p sends to q, in exactly the
///     order of q's ghost_rows list for p.
///   a_pq — |send_rows_local| × |ghost_rows| block: p's boundary rows
///     toward q vs. q's coupled rows. Stored row i is local row
///     send_rows_local[i]; no other row of p couples to q, so applying an
///     incoming update r_p -= A_pq · Δx_q touches only those rows
///     (subtract_coupling) and costs O(boundary), not O(subdomain).
///   a_qp — |ghost_rows| × |rows_p| block, a_pqᵀ under the send_rows_local
///     row map (its columns are p's local rows, of which only boundary rows
///     toward q are stored): lets p update its ghost layer
///     z_q -= a_qp · Δx_p with purely local data ("the process responsible
///     for row i stores column i of A", §3).
///   boundary_rows (per rank) — the sorted union of every neighbor's
///     send_rows_local: the only local rows whose Δx any message or a_qp
///     product ever reads, so a relax snapshots x on those rows alone.

#include <span>
#include <vector>

#include "graph/partition.hpp"
#include "sparse/csr.hpp"
#include "sparse/types.hpp"
#include "wire/comm_plan.hpp"

namespace dsouth::dist {

using sparse::CsrMatrix;
using sparse::index_t;
using sparse::value_t;

struct NeighborBlock {
  int rank = -1;
  std::vector<index_t> ghost_rows;       ///< q's coupled rows (global, asc)
  std::vector<index_t> send_rows_local;  ///< p's coupled rows (local, asc)
  CsrMatrix a_pq;  ///< send_rows_local × ghost_rows coupling block
  CsrMatrix a_qp;  ///< ghost_rows × rows_p coupling block (a_pqᵀ)

  /// r_p -= a_pq · x_q, with x_q ordered by ghost_rows and r_p the full
  /// local vector. Stored row i accumulates into r_p[send_rows_local[i]]
  /// with CsrMatrix::spmv_acc(-1.0, ...)'s exact per-row arithmetic; the
  /// rows a full-height block would add add only -0.0, an identity.
  void subtract_coupling(std::span<const value_t> x_q,
                         std::span<value_t> r_p) const;
};

struct RankData {
  std::vector<index_t> rows;  ///< global rows owned (ascending)
  CsrMatrix a_local;          ///< diagonal block (local indices)
  std::vector<NeighborBlock> neighbors;  ///< ascending by rank id
  /// Sorted union of every neighbor's send_rows_local (local indices).
  std::vector<index_t> boundary_rows;

  index_t num_rows() const { return static_cast<index_t>(rows.size()); }
  /// Index into `neighbors` for a given rank id, or -1.
  int neighbor_index(int rank) const;
};

class DistLayout {
 public:
  /// Requires a square, structurally symmetric matrix and a valid partition
  /// of its rows; throws CheckError, naming the two ranks, where the
  /// coupling blocks of a neighbor pair are not each other's transpose in
  /// structure. Empty parts are allowed (their ranks just idle).
  DistLayout(const CsrMatrix& a, const graph::Partition& partition);

  int num_ranks() const { return static_cast<int>(ranks_.size()); }
  index_t global_rows() const { return n_; }
  const RankData& rank(int p) const;

  int rank_of_row(index_t global_row) const;
  index_t local_of_row(index_t global_row) const;

  /// Scatter a global vector into per-rank local vectors.
  std::vector<std::vector<value_t>> scatter(
      std::span<const value_t> global) const;

  /// Gather per-rank local vectors back into a global vector.
  std::vector<value_t> gather(
      const std::vector<std::vector<value_t>>& local) const;

  /// Structural self-check (used by tests): row ownership, block
  /// dimensions, mirrored ghost/send lists, a_local and a_pq values
  /// against A, a_qp == a_pqᵀ under the send_rows_local row map, the
  /// blocks' nonzeros partitioning A, and boundary_rows.
  bool validate(const CsrMatrix& a) const;

  /// The wire-level communication plan precomputed from the neighbor
  /// blocks: for each rank, one Peer per NeighborBlock (same order), with
  /// send_width = |send_rows_local| (values shipped to that neighbor) and
  /// recv_width = |ghost_rows| (values arriving from it). The two differ
  /// in general — the channel is directed.
  const wire::CommPlan& comm_plan() const { return plan_; }

 private:
  /// q = nb.rank's ghost rows for p are p's send rows toward q, in order,
  /// and q's a_pq toward p has the pattern of nb.a_qp.
  bool mirrored(int p, const NeighborBlock& nb) const;

  index_t n_ = 0;
  std::vector<RankData> ranks_;
  wire::CommPlan plan_;
  std::vector<int> rank_of_;       // global row -> rank
  std::vector<index_t> local_of_;  // global row -> local index
};

}  // namespace dsouth::dist
