#include "graph/graph.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <iterator>
#include <numeric>

#include "util/error.hpp"

namespace dsouth::graph {

Graph Graph::from_matrix_structure(const sparse::CsrMatrix& a) {
  DSOUTH_CHECK(a.rows() == a.cols());
  const index_t n = a.rows();
  const auto nn = static_cast<std::size_t>(n);
  for (index_t i = 0; i < n; ++i) {
    const auto cols = a.row_cols(i);
    DSOUTH_CHECK_MSG(std::adjacent_find(cols.begin(), cols.end(),
                                        std::greater_equal<>()) == cols.end(),
                     "row " << i << " columns do not strictly ascend");
    DSOUTH_CHECK(cols.empty() || (cols.front() >= 0 && cols.back() < n));
  }
  // Structural transpose by counting sort: rows are scanned in ascending
  // order, so each transposed row comes out strictly ascending too.
  std::vector<index_t> tptr(nn + 1, 0);
  for (index_t j : a.col_idx()) ++tptr[static_cast<std::size_t>(j) + 1];
  std::partial_sum(tptr.begin(), tptr.end(), tptr.begin());
  std::vector<index_t> tadj(static_cast<std::size_t>(a.nnz()));
  for (index_t i = 0; i < n; ++i) {
    for (index_t j : a.row_cols(i)) {
      tadj[static_cast<std::size_t>(tptr[static_cast<std::size_t>(j)]++)] = i;
    }
  }
  // The scatter advanced each start to the next row's; shift them back.
  for (std::size_t j = nn; j > 0; --j) tptr[j] = tptr[j - 1];
  tptr[0] = 0;

  // Neighbors of i: the union of row i and column i, minus i itself.
  Graph g;
  g.n_ = n;
  g.ptr_.assign(nn + 1, 0);
  g.adj_.reserve(static_cast<std::size_t>(a.nnz()));
  for (index_t i = 0; i < n; ++i) {
    const auto row = a.row_cols(i);
    const auto first = static_cast<std::ptrdiff_t>(g.adj_.size());
    std::set_union(row.begin(), row.end(),
                   tadj.begin() + tptr[static_cast<std::size_t>(i)],
                   tadj.begin() + tptr[static_cast<std::size_t>(i) + 1],
                   std::back_inserter(g.adj_));
    const auto self = std::find(g.adj_.begin() + first, g.adj_.end(), i);
    if (self != g.adj_.end()) g.adj_.erase(self);
    g.ptr_[static_cast<std::size_t>(i) + 1] =
        static_cast<index_t>(g.adj_.size());
  }
  return g;
}

Graph Graph::from_edges(index_t num_vertices,
                        std::span<const std::pair<index_t, index_t>> edges) {
  DSOUTH_CHECK(num_vertices >= 0);
  std::vector<std::pair<index_t, index_t>> e;
  e.reserve(edges.size());
  for (auto [u, v] : edges) {
    DSOUTH_CHECK(u >= 0 && u < num_vertices && v >= 0 && v < num_vertices);
    if (u == v) continue;
    e.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(e.begin(), e.end());
  e.erase(std::unique(e.begin(), e.end()), e.end());

  Graph g;
  g.n_ = num_vertices;
  std::vector<index_t> deg(static_cast<std::size_t>(num_vertices), 0);
  for (auto [u, v] : e) {
    ++deg[static_cast<std::size_t>(u)];
    ++deg[static_cast<std::size_t>(v)];
  }
  g.ptr_.assign(static_cast<std::size_t>(num_vertices) + 1, 0);
  for (index_t i = 0; i < num_vertices; ++i) {
    g.ptr_[static_cast<std::size_t>(i) + 1] =
        g.ptr_[static_cast<std::size_t>(i)] + deg[static_cast<std::size_t>(i)];
  }
  g.adj_.resize(static_cast<std::size_t>(g.ptr_.back()));
  std::vector<index_t> cursor(g.ptr_.begin(), g.ptr_.end() - 1);
  for (auto [u, v] : e) {
    g.adj_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] = v;
    g.adj_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++)] = u;
  }
  // e is sorted by (u, v): every u-list fills in ascending v, and every
  // v-list fills in ascending u, so neighbor lists come out sorted.
  return g;
}

std::span<const index_t> Graph::neighbors(index_t v) const {
  DSOUTH_ASSERT(v >= 0 && v < n_);
  auto b = static_cast<std::size_t>(ptr_[v]);
  auto e = static_cast<std::size_t>(ptr_[v + 1]);
  return {adj_.data() + b, e - b};
}

index_t Graph::max_degree() const {
  index_t m = 0;
  for (index_t v = 0; v < n_; ++v) m = std::max(m, degree(v));
  return m;
}

std::vector<index_t> Graph::bfs_order(index_t start,
                                      std::span<const char> mask) const {
  DSOUTH_CHECK(start >= 0 && start < n_);
  DSOUTH_CHECK(mask.empty() || mask.size() == static_cast<std::size_t>(n_));
  auto allowed = [&](index_t v) {
    return mask.empty() || mask[static_cast<std::size_t>(v)] != 0;
  };
  DSOUTH_CHECK(allowed(start));
  std::vector<char> seen(static_cast<std::size_t>(n_), 0);
  std::vector<index_t> order;
  std::deque<index_t> queue;
  queue.push_back(start);
  seen[static_cast<std::size_t>(start)] = 1;
  while (!queue.empty()) {
    index_t v = queue.front();
    queue.pop_front();
    order.push_back(v);
    for (index_t w : neighbors(v)) {
      if (!seen[static_cast<std::size_t>(w)] && allowed(w)) {
        seen[static_cast<std::size_t>(w)] = 1;
        queue.push_back(w);
      }
    }
  }
  return order;
}

index_t Graph::connected_components(std::vector<index_t>& component) const {
  component.assign(static_cast<std::size_t>(n_), -1);
  index_t count = 0;
  for (index_t s = 0; s < n_; ++s) {
    if (component[static_cast<std::size_t>(s)] >= 0) continue;
    std::deque<index_t> queue{s};
    component[static_cast<std::size_t>(s)] = count;
    while (!queue.empty()) {
      index_t v = queue.front();
      queue.pop_front();
      for (index_t w : neighbors(v)) {
        if (component[static_cast<std::size_t>(w)] < 0) {
          component[static_cast<std::size_t>(w)] = count;
          queue.push_back(w);
        }
      }
    }
    ++count;
  }
  return count;
}

bool Graph::is_connected() const {
  if (n_ == 0) return true;
  std::vector<index_t> comp;
  return connected_components(comp) == 1;
}

index_t Graph::pseudo_peripheral_vertex(index_t hint) const {
  DSOUTH_CHECK(n_ > 0);
  DSOUTH_CHECK(hint >= 0 && hint < n_);
  // Alternating BFS sweeps: move to a min-degree vertex in the last BFS
  // level until the eccentricity stops growing (George–Liu heuristic).
  index_t current = hint;
  index_t last_ecc = -1;
  for (int iter = 0; iter < 8; ++iter) {
    std::vector<index_t> level(static_cast<std::size_t>(n_), -1);
    std::deque<index_t> queue{current};
    level[static_cast<std::size_t>(current)] = 0;
    index_t ecc = 0;
    std::vector<index_t> frontier;
    while (!queue.empty()) {
      index_t v = queue.front();
      queue.pop_front();
      if (level[static_cast<std::size_t>(v)] > ecc) {
        ecc = level[static_cast<std::size_t>(v)];
        frontier.clear();
      }
      if (level[static_cast<std::size_t>(v)] == ecc) frontier.push_back(v);
      for (index_t w : neighbors(v)) {
        if (level[static_cast<std::size_t>(w)] < 0) {
          level[static_cast<std::size_t>(w)] =
              level[static_cast<std::size_t>(v)] + 1;
          queue.push_back(w);
        }
      }
    }
    if (ecc <= last_ecc) break;
    last_ecc = ecc;
    index_t best = frontier.front();
    for (index_t v : frontier) {
      if (degree(v) < degree(best)) best = v;
    }
    current = best;
  }
  return current;
}

}  // namespace dsouth::graph
