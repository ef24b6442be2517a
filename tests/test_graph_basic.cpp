#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sparse/coo.hpp"
#include "sparse/stencils.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsouth::graph {
namespace {

TEST(Graph, FromEdgesDedupsAndDropsSelfLoops) {
  std::vector<std::pair<index_t, index_t>> edges{
      {0, 1}, {1, 0}, {1, 1}, {1, 2}, {2, 1}};
  auto g = Graph::from_edges(3, edges);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(0), 1);
}

TEST(Graph, NeighborListsAreSorted) {
  std::vector<std::pair<index_t, index_t>> edges{{3, 0}, {3, 2}, {3, 1}};
  auto g = Graph::from_edges(4, edges);
  auto nb = g.neighbors(3);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
}

TEST(Graph, FromMatrixStructureMatchesStencil) {
  auto a = sparse::poisson2d_5pt(3, 3);
  auto g = Graph::from_matrix_structure(a);
  EXPECT_EQ(g.num_vertices(), 9);
  // 5-pt on 3x3: 6 horizontal + 6 vertical edges.
  EXPECT_EQ(g.num_edges(), 12);
  EXPECT_EQ(g.degree(4), 4);  // center
  EXPECT_EQ(g.degree(0), 2);  // corner
  EXPECT_EQ(g.max_degree(), 4);
}

void expect_same_graph(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.num_vertices(), want.num_vertices());
  EXPECT_EQ(got.num_edges(), want.num_edges());
  for (index_t v = 0; v < got.num_vertices(); ++v) {
    EXPECT_TRUE(std::ranges::equal(got.neighbors(v), want.neighbors(v)))
        << "vertex " << v;
  }
}

TEST(Graph, FromMatrixStructureEqualsFromEdgesOnUnsymmetricStructure) {
  // Seeded patterns with one-sided entries, missing diagonals, empty rows
  // and columns, and a dense row: the merge of each row with the same row
  // of the transpose must give from_edges' sorted, deduplicated lists.
  util::Rng rng(0x6a7b);
  for (index_t n : {1, 2, 9, 40, 150}) {
    sparse::CooBuilder coo(n, n);
    std::vector<std::pair<index_t, index_t>> edges;
    const auto draws = static_cast<std::size_t>(3 * n);
    for (std::size_t k = 0; k < draws; ++k) {
      const auto i = static_cast<index_t>(
          rng.next_below(static_cast<std::uint64_t>((n + 1) / 2)));
      const auto j =
          static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(n)));
      coo.add(i, j, 1.0);
      edges.emplace_back(i, j);
    }
    for (index_t j = 0; j < n; j += 2) {  // row n-1 couples to every other
      coo.add(n - 1, j, 1.0);
      edges.emplace_back(n - 1, j);
    }
    const auto a = coo.to_csr();
    if (n > 2) {
      ASSERT_FALSE(a.is_symmetric()) << n;
    }
    expect_same_graph(Graph::from_matrix_structure(a),
                      Graph::from_edges(n, edges));
  }
}

TEST(Graph, FromMatrixStructureRejectsUnsortedRows) {
  // Row 1 lists column 2 before column 0; the merge needs ascending rows.
  const sparse::CsrMatrix unsorted(3, 3, {0, 1, 3, 4}, {0, 2, 0, 2},
                                   {1.0, 1.0, 1.0, 1.0});
  EXPECT_THROW(Graph::from_matrix_structure(unsorted), util::CheckError);
  // A repeated column is not strictly ascending either.
  const sparse::CsrMatrix repeated(2, 2, {0, 2, 3}, {1, 1, 1},
                                   {1.0, 1.0, 1.0});
  EXPECT_THROW(Graph::from_matrix_structure(repeated), util::CheckError);
}

TEST(Graph, OutOfRangeEdgeThrows) {
  std::vector<std::pair<index_t, index_t>> edges{{0, 5}};
  EXPECT_THROW(Graph::from_edges(3, edges), util::CheckError);
}

TEST(Graph, BfsVisitsComponentInLevelOrder) {
  // Path 0-1-2-3.
  std::vector<std::pair<index_t, index_t>> edges{{0, 1}, {1, 2}, {2, 3}};
  auto g = Graph::from_edges(4, edges);
  auto order = g.bfs_order(1);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 1);
  // Levels: {0, 2} then {3}.
  EXPECT_EQ(order[3], 3);
}

TEST(Graph, BfsRespectsMask) {
  std::vector<std::pair<index_t, index_t>> edges{{0, 1}, {1, 2}, {2, 3}};
  auto g = Graph::from_edges(4, edges);
  std::vector<char> mask{1, 1, 0, 1};  // block vertex 2
  auto order = g.bfs_order(0, mask);
  std::set<index_t> visited(order.begin(), order.end());
  EXPECT_TRUE(visited.count(0));
  EXPECT_TRUE(visited.count(1));
  EXPECT_FALSE(visited.count(2));
  EXPECT_FALSE(visited.count(3));  // unreachable through the mask
}

TEST(Graph, ConnectedComponents) {
  std::vector<std::pair<index_t, index_t>> edges{{0, 1}, {2, 3}, {3, 4}};
  auto g = Graph::from_edges(6, edges);
  std::vector<index_t> comp;
  EXPECT_EQ(g.connected_components(comp), 3);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[5], comp[0]);
  EXPECT_FALSE(g.is_connected());
  EXPECT_TRUE(
      Graph::from_matrix_structure(sparse::poisson2d_5pt(4, 4)).is_connected());
}

TEST(Graph, PseudoPeripheralOnPathFindsAnEnd) {
  std::vector<std::pair<index_t, index_t>> edges;
  for (index_t i = 0; i + 1 < 20; ++i) edges.emplace_back(i, i + 1);
  auto g = Graph::from_edges(20, edges);
  index_t v = g.pseudo_peripheral_vertex(10);
  EXPECT_TRUE(v == 0 || v == 19);
}

TEST(Graph, EmptyGraphBehaves) {
  auto g = Graph::from_edges(0, {});
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_TRUE(g.is_connected());
}

}  // namespace
}  // namespace dsouth::graph
