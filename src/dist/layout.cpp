#include "dist/layout.hpp"

#include <algorithm>

#include "sparse/coo.hpp"
#include "util/error.hpp"

namespace dsouth::dist {

int RankData::neighbor_index(int rank) const {
  // Neighbor lists are short (mesh-like graphs); linear scan with the
  // ascending-id invariant.
  for (std::size_t k = 0; k < neighbors.size(); ++k) {
    if (neighbors[k].rank == rank) return static_cast<int>(k);
    if (neighbors[k].rank > rank) break;
  }
  return -1;
}

void NeighborBlock::subtract_coupling(std::span<const value_t> x_q,
                                      std::span<value_t> r_p) const {
  DSOUTH_CHECK(x_q.size() == static_cast<std::size_t>(a_pq.cols()));
  const auto row_ptr = a_pq.row_ptr();
  const auto col_idx = a_pq.col_idx();
  const auto vals = a_pq.values();
  for (std::size_t i = 0; i < send_rows_local.size(); ++i) {
    value_t sum = 0.0;
    for (index_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      sum += vals[k] * x_q[static_cast<std::size_t>(col_idx[k])];
    }
    r_p[static_cast<std::size_t>(send_rows_local[i])] += -1.0 * sum;
  }
}

namespace {

/// a_pqᵀ with its columns mapped from boundary-row index to local row
/// (the map is ascending, so rows stay sorted). Local rows lie below
/// local_rows, which the local block's own row count bounds, so each
/// mapped column fits csr_index_t.
CsrMatrix transpose_to_local_cols(const CsrMatrix& a_pq,
                                  std::span<const index_t> send_rows_local,
                                  index_t local_rows) {
  const CsrMatrix t = a_pq.transpose();
  std::vector<sparse::csr_index_t> cols(t.col_idx().size());
  for (std::size_t k = 0; k < cols.size(); ++k) {
    cols[k] = static_cast<sparse::csr_index_t>(
        send_rows_local[static_cast<std::size_t>(t.col_idx()[k])]);
  }
  return CsrMatrix(t.rows(), local_rows,
                   {t.row_ptr().begin(), t.row_ptr().end()}, std::move(cols),
                   {t.values().begin(), t.values().end()});
}

}  // namespace

DistLayout::DistLayout(const CsrMatrix& a, const graph::Partition& partition) {
  DSOUTH_CHECK(a.rows() == a.cols());
  DSOUTH_CHECK(partition.is_valid(a.rows()));
  n_ = a.rows();
  const int num_parts = static_cast<int>(partition.num_parts);
  ranks_.resize(static_cast<std::size_t>(num_parts));
  rank_of_.resize(static_cast<std::size_t>(n_));
  local_of_.assign(static_cast<std::size_t>(n_), -1);

  for (index_t i = 0; i < n_; ++i) {
    const auto p = static_cast<int>(partition.part[static_cast<std::size_t>(i)]);
    rank_of_[static_cast<std::size_t>(i)] = p;
    auto& rows = ranks_[static_cast<std::size_t>(p)].rows;
    local_of_[static_cast<std::size_t>(i)] =
        static_cast<index_t>(rows.size());
    rows.push_back(i);  // ascending because i ascends
  }

  // Per-rank assembly. Collect local-block entries and per-neighbor
  // coupling entries in one pass over the owned rows. slot[q] indexes
  // rank p's neighbor q in `nbs` while p is being built (-1 otherwise).
  std::vector<int> slot(static_cast<std::size_t>(num_parts), -1);
  for (int p = 0; p < num_parts; ++p) {
    RankData& rd = ranks_[static_cast<std::size_t>(p)];
    const auto m = static_cast<index_t>(rd.rows.size());

    // Pass 1: discover neighbor ranks, their coupled (ghost) rows, and p's
    // boundary rows toward each (ascending because li ascends).
    std::vector<NeighborBlock>& nbs = rd.neighbors;
    for (index_t li = 0; li < m; ++li) {
      const index_t gi = rd.rows[static_cast<std::size_t>(li)];
      for (index_t gj : a.row_cols(gi)) {
        const int q = rank_of_[static_cast<std::size_t>(gj)];
        if (q == p) continue;
        int& k = slot[static_cast<std::size_t>(q)];
        if (k < 0) {
          k = static_cast<int>(nbs.size());
          nbs.emplace_back().rank = q;
        }
        auto& nb = nbs[static_cast<std::size_t>(k)];
        nb.ghost_rows.push_back(gj);
        auto& sr = nb.send_rows_local;
        if (sr.empty() || sr.back() != li) sr.push_back(li);
      }
    }
    std::sort(nbs.begin(), nbs.end(),
              [](const NeighborBlock& x, const NeighborBlock& y) {
                return x.rank < y.rank;
              });
    for (std::size_t k = 0; k < nbs.size(); ++k) {
      slot[static_cast<std::size_t>(nbs[k].rank)] = static_cast<int>(k);
      auto& ghosts = nbs[k].ghost_rows;
      std::sort(ghosts.begin(), ghosts.end());
      ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
    }

    // Pass 2: build the local block and the per-neighbor a_pq blocks over
    // p's boundary rows toward q.
    sparse::CooBuilder local(m, m);
    std::vector<sparse::CooBuilder> pq;  // per neighbor, same order as nbs
    pq.reserve(nbs.size());
    for (const auto& nb : nbs) {
      pq.emplace_back(static_cast<index_t>(nb.send_rows_local.size()),
                      static_cast<index_t>(nb.ghost_rows.size()));
    }
    for (index_t li = 0; li < m; ++li) {
      const index_t gi = rd.rows[static_cast<std::size_t>(li)];
      auto cols = a.row_cols(gi);
      auto vals = a.row_vals(gi);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        const index_t gj = cols[k];
        const int q = rank_of_[static_cast<std::size_t>(gj)];
        if (q == p) {
          local.add(li, local_of_[static_cast<std::size_t>(gj)], vals[k]);
          continue;
        }
        const auto n =
            static_cast<std::size_t>(slot[static_cast<std::size_t>(q)]);
        const auto& ghosts = nbs[n].ghost_rows;
        const auto g = std::lower_bound(ghosts.begin(), ghosts.end(), gj);
        DSOUTH_ASSERT(g != ghosts.end() && *g == gj);
        const auto& sr = nbs[n].send_rows_local;
        const auto s = std::lower_bound(sr.begin(), sr.end(), li);
        DSOUTH_ASSERT(s != sr.end() && *s == li);
        pq[n].add(s - sr.begin(), g - ghosts.begin(), vals[k]);
      }
    }

    rd.a_local = local.to_csr();
    for (std::size_t k = 0; k < nbs.size(); ++k) {
      auto& nb = nbs[k];
      nb.a_pq = pq[k].to_csr();
      nb.a_qp = transpose_to_local_cols(nb.a_pq, nb.send_rows_local, m);
      rd.boundary_rows.insert(rd.boundary_rows.end(),
                              nb.send_rows_local.begin(),
                              nb.send_rows_local.end());
      slot[static_cast<std::size_t>(nb.rank)] = -1;
    }
    std::sort(rd.boundary_rows.begin(), rd.boundary_rows.end());
    rd.boundary_rows.erase(
        std::unique(rd.boundary_rows.begin(), rd.boundary_rows.end()),
        rd.boundary_rows.end());
  }

  // Derive the wire CommPlan from the neighbor blocks, one Peer per
  // NeighborBlock in the same (ascending-rank) order so solvers can index
  // channels and neighbors with the same k.
  std::vector<std::vector<wire::CommPlan::Peer>> peers(ranks_.size());
  for (std::size_t p = 0; p < ranks_.size(); ++p) {
    peers[p].reserve(ranks_[p].neighbors.size());
    for (const auto& nb : ranks_[p].neighbors) {
      peers[p].emplace_back(nb.rank, nb.send_rows_local.size(),
                            nb.ghost_rows.size());
    }
  }
  plan_ = wire::CommPlan(std::move(peers));
}

const RankData& DistLayout::rank(int p) const {
  DSOUTH_CHECK(p >= 0 && p < num_ranks());
  return ranks_[static_cast<std::size_t>(p)];
}

int DistLayout::rank_of_row(index_t global_row) const {
  DSOUTH_CHECK(global_row >= 0 && global_row < n_);
  return rank_of_[static_cast<std::size_t>(global_row)];
}

index_t DistLayout::local_of_row(index_t global_row) const {
  DSOUTH_CHECK(global_row >= 0 && global_row < n_);
  return local_of_[static_cast<std::size_t>(global_row)];
}

std::vector<std::vector<value_t>> DistLayout::scatter(
    std::span<const value_t> global) const {
  DSOUTH_CHECK(global.size() == static_cast<std::size_t>(n_));
  std::vector<std::vector<value_t>> out(ranks_.size());
  for (std::size_t p = 0; p < ranks_.size(); ++p) {
    const auto& rows = ranks_[p].rows;
    out[p].resize(rows.size());
    for (std::size_t li = 0; li < rows.size(); ++li) {
      out[p][li] = global[static_cast<std::size_t>(rows[li])];
    }
  }
  return out;
}

std::vector<value_t> DistLayout::gather(
    const std::vector<std::vector<value_t>>& local) const {
  DSOUTH_CHECK(local.size() == ranks_.size());
  std::vector<value_t> out(static_cast<std::size_t>(n_));
  for (std::size_t p = 0; p < ranks_.size(); ++p) {
    const auto& rows = ranks_[p].rows;
    DSOUTH_CHECK(local[p].size() == rows.size());
    for (std::size_t li = 0; li < rows.size(); ++li) {
      out[static_cast<std::size_t>(rows[li])] = local[p][li];
    }
  }
  return out;
}

bool DistLayout::validate(const CsrMatrix& a) const {
  // Row ownership is a partition of [0, n).
  std::vector<char> seen(static_cast<std::size_t>(n_), 0);
  index_t block_nnz = 0;
  for (int p = 0; p < num_ranks(); ++p) {
    const RankData& rd = rank(p);
    for (index_t g : rd.rows) {
      if (g < 0 || g >= n_ || seen[static_cast<std::size_t>(g)]) return false;
      seen[static_cast<std::size_t>(g)] = 1;
      if (rank_of_row(g) != p) return false;
    }
    // Block shapes.
    if (rd.a_local.rows() != rd.num_rows() ||
        rd.a_local.cols() != rd.num_rows()) {
      return false;
    }
    block_nnz += rd.a_local.nnz();
    std::vector<char> boundary(rd.rows.size(), 0);
    for (const auto& nb : rd.neighbors) {
      if (nb.rank == p || nb.rank < 0 || nb.rank >= num_ranks()) return false;
      const auto width = static_cast<index_t>(nb.ghost_rows.size());
      if (nb.a_pq.rows() != static_cast<index_t>(nb.send_rows_local.size()) ||
          nb.a_pq.cols() != width || nb.a_qp.rows() != width ||
          nb.a_qp.cols() != rd.num_rows() ||
          nb.a_qp.nnz() != nb.a_pq.nnz()) {
        return false;
      }
      block_nnz += nb.a_pq.nnz();
      for (std::size_t s = 0; s < nb.send_rows_local.size(); ++s) {
        const index_t li = nb.send_rows_local[s];
        if (li < 0 || li >= rd.num_rows()) return false;
        if (s > 0 && li <= nb.send_rows_local[s - 1]) return false;
        boundary[static_cast<std::size_t>(li)] = 1;
      }
      // Mirrored channel lists: q's send rows == p's ghost rows for q.
      const RankData& qd = rank(nb.rank);
      const int back = qd.neighbor_index(p);
      if (back < 0) return false;
      const auto& qnb = qd.neighbors[static_cast<std::size_t>(back)];
      if (qnb.ghost_rows.size() != nb.send_rows_local.size()) return false;
      for (std::size_t k = 0; k < nb.send_rows_local.size(); ++k) {
        if (qnb.ghost_rows[k] !=
            rd.rows[static_cast<std::size_t>(nb.send_rows_local[k])]) {
          return false;
        }
      }
      // Every stored a_pq row is a coupled row (nonempty), its values match
      // A, and a_qp holds the same entry transposed under the row map.
      for (index_t s = 0; s < nb.a_pq.rows(); ++s) {
        auto cols = nb.a_pq.row_cols(s);
        auto vals = nb.a_pq.row_vals(s);
        if (cols.empty()) return false;
        const index_t li = nb.send_rows_local[static_cast<std::size_t>(s)];
        const index_t gi = rd.rows[static_cast<std::size_t>(li)];
        for (std::size_t k = 0; k < cols.size(); ++k) {
          const index_t gj = nb.ghost_rows[static_cast<std::size_t>(cols[k])];
          if (a.at(gi, gj) != vals[k]) return false;
          if (nb.a_qp.at(cols[k], li) != vals[k]) return false;
        }
      }
    }
    // boundary_rows is the sorted union of the send lists.
    std::size_t next = 0;
    for (std::size_t li = 0; li < boundary.size(); ++li) {
      if (!boundary[li]) continue;
      if (next >= rd.boundary_rows.size() ||
          rd.boundary_rows[next] != static_cast<index_t>(li)) {
        return false;
      }
      ++next;
    }
    if (next != rd.boundary_rows.size()) return false;
  }
  for (char s : seen) {
    if (!s) return false;
  }
  // Every entry of A lands in exactly one block.
  return block_nnz == a.nnz();
}

}  // namespace dsouth::dist
