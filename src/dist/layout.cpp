#include "dist/layout.hpp"

#include <algorithm>
#include <numeric>

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

  // slot[q] indexes rank p's neighbor q in `nbs` while p's pass 1 runs (-1
  // otherwise). col_map is -1 outside the one cut that is using it.
  std::vector<int> slot(static_cast<std::size_t>(num_parts), -1);
  std::vector<index_t> col_map(static_cast<std::size_t>(n_), -1);
  // A(rows_sel, cols) for ascending global cols: column cols[k] becomes
  // block column k. The map ascends, so each row keeps A's entry order.
  const auto cut = [&a, &col_map](std::span<const index_t> rows_sel,
                                  std::span<const index_t> cols) {
    for (std::size_t k = 0; k < cols.size(); ++k) {
      col_map[static_cast<std::size_t>(cols[k])] = static_cast<index_t>(k);
    }
    CsrMatrix block =
        a.extract(rows_sel, col_map, static_cast<index_t>(cols.size()));
    for (const index_t j : cols) col_map[static_cast<std::size_t>(j)] = -1;
    return block;
  };
  std::vector<index_t> cut_rows;  // one coupling block's rows, in A or a_pqᵀ
  for (int p = 0; p < num_parts; ++p) {
    RankData& rd = ranks_[static_cast<std::size_t>(p)];
    const auto m = static_cast<index_t>(rd.rows.size());

    // Pass 1: discover neighbor ranks, their coupled (ghost) rows, p's
    // rows coupled to each and to any (ascending because li ascends).
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
        auto& br = rd.boundary_rows;
        if (br.empty() || br.back() != li) br.push_back(li);
      }
    }
    for (const auto& nb : nbs) slot[static_cast<std::size_t>(nb.rank)] = -1;
    std::sort(nbs.begin(), nbs.end(),
              [](const NeighborBlock& x, const NeighborBlock& y) {
                return x.rank < y.rank;
              });

    // Pass 2: cut the blocks.
    rd.a_local = cut(rd.rows, rd.rows);
    for (auto& nb : nbs) {
      auto& ghosts = nb.ghost_rows;
      std::sort(ghosts.begin(), ghosts.end());
      ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
      cut_rows.clear();
      for (const index_t li : nb.send_rows_local) {
        cut_rows.push_back(rd.rows[static_cast<std::size_t>(li)]);
      }
      nb.a_pq = cut(cut_rows, ghosts);
      // a_qp = a_pqᵀ, its columns mapped from boundary-row index to local
      // row through send_rows_local.
      cut_rows.resize(ghosts.size());
      std::iota(cut_rows.begin(), cut_rows.end(), index_t{0});
      nb.a_qp = nb.a_pq.transpose().extract(cut_rows, nb.send_rows_local, m);
    }
  }

  // Derive the wire CommPlan from the neighbor blocks, one Peer per
  // NeighborBlock in the same (ascending-rank) order so solvers can index
  // channels and neighbors with the same k. Each channel's two ends must
  // agree on its rows and entries, which structural symmetry guarantees.
  std::vector<std::vector<wire::CommPlan::Peer>> peers(ranks_.size());
  for (std::size_t p = 0; p < ranks_.size(); ++p) {
    peers[p].reserve(ranks_[p].neighbors.size());
    for (const auto& nb : ranks_[p].neighbors) {
      DSOUTH_CHECK_MSG(mirrored(static_cast<int>(p), nb),
                       "DistLayout: the matrix is not structurally symmetric "
                       "between rank " << p << " and rank " << nb.rank);
      peers[p].emplace_back(nb.rank, nb.send_rows_local.size(),
                            nb.ghost_rows.size());
    }
  }
  plan_ = wire::CommPlan(std::move(peers));
}

bool DistLayout::mirrored(int p, const NeighborBlock& nb) const {
  const RankData& qd = ranks_[static_cast<std::size_t>(nb.rank)];
  const int back = qd.neighbor_index(p);
  if (back < 0) return false;
  const NeighborBlock& qnb = qd.neighbors[static_cast<std::size_t>(back)];
  const auto& rows = ranks_[static_cast<std::size_t>(p)].rows;
  const auto& send = nb.send_rows_local;
  const auto global = [&rows](index_t li) {
    return rows[static_cast<std::size_t>(li)];
  };
  // q's block toward p has a_qp's pattern; a_qp names p's rows by local
  // index, q's block by position in send_rows_local.
  const auto local = [&send](sparse::csr_index_t s) {
    const auto k = static_cast<std::size_t>(s);
    return k < send.size() ? send[k] : index_t{-1};
  };
  return std::ranges::equal(qnb.ghost_rows, send, {}, {}, global) &&
         std::ranges::equal(qnb.a_pq.row_ptr(), nb.a_qp.row_ptr()) &&
         std::ranges::equal(qnb.a_pq.col_idx(), nb.a_qp.col_idx(), {}, local);
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
    // a_local's values match A.
    for (index_t li = 0; li < rd.num_rows(); ++li) {
      auto cols = rd.a_local.row_cols(li);
      auto vals = rd.a_local.row_vals(li);
      const index_t gi = rd.rows[static_cast<std::size_t>(li)];
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (cols[k] < 0 || cols[k] >= rd.num_rows()) return false;
        const index_t gj = rd.rows[static_cast<std::size_t>(cols[k])];
        if (a.at(gi, gj) != vals[k]) return false;
      }
    }
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
      if (!mirrored(p, nb)) return false;
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
