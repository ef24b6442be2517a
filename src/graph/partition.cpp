#include "graph/partition.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>

#include "util/error.hpp"
#include "util/indexed_heap.hpp"
#include "util/rng.hpp"

namespace dsouth::graph {

std::vector<index_t> Partition::part_sizes() const {
  std::vector<index_t> sizes(static_cast<std::size_t>(num_parts), 0);
  for (index_t p : part) {
    DSOUTH_CHECK(p >= 0 && p < num_parts);
    ++sizes[static_cast<std::size_t>(p)];
  }
  return sizes;
}

bool Partition::is_valid(index_t num_vertices) const {
  if (static_cast<index_t>(part.size()) != num_vertices) return false;
  for (index_t p : part) {
    if (p < 0 || p >= num_parts) return false;
  }
  return true;
}

PartitionQuality evaluate_partition(const Graph& g, const Partition& p) {
  DSOUTH_CHECK(p.is_valid(g.num_vertices()));
  PartitionQuality q;
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    for (index_t w : g.neighbors(v)) {
      if (w > v && p.part[static_cast<std::size_t>(v)] !=
                       p.part[static_cast<std::size_t>(w)]) {
        ++q.edge_cut;
      }
    }
  }
  auto sizes = p.part_sizes();
  index_t max_size = 0;
  for (index_t s : sizes) {
    max_size = std::max(max_size, s);
    if (s == 0) ++q.empty_parts;
  }
  const double ideal = static_cast<double>(g.num_vertices()) /
                       static_cast<double>(p.num_parts);
  q.imbalance = ideal > 0.0 ? static_cast<double>(max_size) / ideal : 0.0;
  return q;
}

namespace {

/// FM refinement passes per bisection.
constexpr int kFmPasses = 2;
/// A pass aborts after this many consecutive non-improving moves (bounds
/// FM cost on large subdomains; classic FM would move every vertex once).
constexpr int kFmNegativeStreakLimit = 100;
/// Allowed deviation of each side from its target size, as a fraction (at
/// least one vertex of slack is always allowed). Kept tight because
/// per-level drift compounds down the bisection tree: 0.005 yields final
/// imbalance ≈ 1.25 at 8192 parts on mesh graphs, vs ≈ 1.9 at 0.03, at ≈ 2%
/// extra edge cut.
constexpr double kBalanceTolerance = 0.005;

/// State for one bisection over a vertex subset of the global graph.
/// Local indices index into `verts`.
struct Bisection {
  const Graph& g;
  const std::vector<index_t>& verts;          // subset (global ids)
  std::vector<index_t> local_of;              // global -> local or -1
  std::vector<char> side;                     // local -> 0/1
  index_t size0 = 0;

  Bisection(const Graph& graph, const std::vector<index_t>& subset,
            std::vector<index_t>& scratch_local_of)
      : g(graph), verts(subset), local_of(), side(subset.size(), 1) {
    // scratch_local_of is a persistent n-sized map reused across
    // bisections to avoid O(n) clears; we record touched entries.
    local_of.swap(scratch_local_of);
    for (std::size_t l = 0; l < verts.size(); ++l) {
      local_of[static_cast<std::size_t>(verts[l])] = static_cast<index_t>(l);
    }
  }

  void release(std::vector<index_t>& scratch_local_of) {
    for (index_t v : verts) local_of[static_cast<std::size_t>(v)] = -1;
    scratch_local_of.swap(local_of);
  }

  /// Grow side 0 by BFS from a peripheral-ish vertex until it holds
  /// `target0` vertices.
  void grow_side0(index_t target0, util::Rng& rng) {
    DSOUTH_CHECK(target0 >= 0 &&
                 target0 <= static_cast<index_t>(verts.size()));
    std::vector<char> seen(verts.size(), 0);
    index_t grown = 0;
    std::size_t scan = 0;  // restart cursor for disconnected subsets
    while (grown < target0) {
      // Pick an unseen start: first try a random probe (cheap diversity),
      // then scan.
      index_t start_local = -1;
      for (int probe = 0; probe < 4 && start_local < 0; ++probe) {
        auto cand = static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(verts.size())));
        if (!seen[cand]) start_local = static_cast<index_t>(cand);
      }
      while (start_local < 0) {
        DSOUTH_ASSERT(scan < verts.size());
        if (!seen[scan]) start_local = static_cast<index_t>(scan);
        ++scan;
      }
      // Walk to a peripheral vertex of the unseen region (two BFS sweeps).
      start_local = far_vertex(far_vertex(start_local, seen), seen);
      std::deque<index_t> queue{start_local};
      seen[static_cast<std::size_t>(start_local)] = 1;
      while (!queue.empty() && grown < target0) {
        index_t l = queue.front();
        queue.pop_front();
        side[static_cast<std::size_t>(l)] = 0;
        ++grown;
        for (index_t w : g.neighbors(verts[static_cast<std::size_t>(l)])) {
          index_t lw = local_of[static_cast<std::size_t>(w)];
          if (lw >= 0 && !seen[static_cast<std::size_t>(lw)]) {
            seen[static_cast<std::size_t>(lw)] = 1;
            queue.push_back(lw);
          }
        }
      }
    }
    size0 = grown;
  }

  /// Local BFS returning the last vertex reached among unseen vertices.
  index_t far_vertex(index_t start_local, const std::vector<char>& seen) {
    std::vector<char> visited(verts.size(), 0);
    std::deque<index_t> queue{start_local};
    visited[static_cast<std::size_t>(start_local)] = 1;
    index_t last = start_local;
    while (!queue.empty()) {
      index_t l = queue.front();
      queue.pop_front();
      last = l;
      for (index_t w : g.neighbors(verts[static_cast<std::size_t>(l)])) {
        index_t lw = local_of[static_cast<std::size_t>(w)];
        if (lw >= 0 && !visited[static_cast<std::size_t>(lw)] &&
            !seen[static_cast<std::size_t>(lw)]) {
          visited[static_cast<std::size_t>(lw)] = 1;
          queue.push_back(lw);
        }
      }
    }
    return last;
  }

  /// Gain of moving local vertex l to the other side: (cut edges removed)
  /// − (cut edges created), counting only edges inside the subset.
  index_t gain(index_t l) const {
    const char s = side[static_cast<std::size_t>(l)];
    index_t external = 0, internal = 0;
    for (index_t w : g.neighbors(verts[static_cast<std::size_t>(l)])) {
      index_t lw = local_of[static_cast<std::size_t>(w)];
      if (lw < 0) continue;
      if (side[static_cast<std::size_t>(lw)] == s) {
        ++internal;
      } else {
        ++external;
      }
    }
    return external - internal;
  }

  index_t cut() const {
    index_t c = 0;
    for (std::size_t l = 0; l < verts.size(); ++l) {
      for (index_t w : g.neighbors(verts[l])) {
        index_t lw = local_of[static_cast<std::size_t>(w)];
        if (lw >= 0 && static_cast<std::size_t>(lw) > l &&
            side[static_cast<std::size_t>(lw)] != side[l]) {
          ++c;
        }
      }
    }
    return c;
  }

  /// One bounded FM pass. Side-0 size is kept within [min_size0, max_size0]
  /// ∩ [target0 - slack, target0 + slack]. Returns true if the cut improved.
  bool fm_pass(index_t target0, index_t min_size0, index_t max_size0) {
    const auto n_local = static_cast<index_t>(verts.size());
    const auto slack = std::max<index_t>(
        1, static_cast<index_t>(std::ceil(kBalanceTolerance *
                                          static_cast<double>(n_local))));
    const index_t lo = std::max(min_size0, target0 - slack);
    const index_t hi = std::min(max_size0, target0 + slack);
    util::IndexedMaxHeap<index_t> heap(static_cast<std::size_t>(n_local));
    std::vector<char> locked(verts.size(), 0);
    // Seed the heap with boundary vertices only (interior moves always have
    // non-positive gain initially; they enter when a neighbor moves).
    for (index_t l = 0; l < n_local; ++l) {
      bool boundary = false;
      for (index_t w : g.neighbors(verts[static_cast<std::size_t>(l)])) {
        index_t lw = local_of[static_cast<std::size_t>(w)];
        if (lw >= 0 && side[static_cast<std::size_t>(lw)] !=
                           side[static_cast<std::size_t>(l)]) {
          boundary = true;
          break;
        }
      }
      if (boundary) heap.push(static_cast<std::size_t>(l), gain(l));
    }

    const index_t initial_cut = cut();
    index_t current_cut = initial_cut;
    index_t best_cut = initial_cut;
    std::vector<index_t> moves;  // in application order
    std::size_t best_prefix = 0;
    int negative_streak = 0;

    while (!heap.empty() && negative_streak < kFmNegativeStreakLimit) {
      const auto l = static_cast<index_t>(heap.pop());
      if (locked[static_cast<std::size_t>(l)]) continue;
      // Balance check: moving from side s shrinks side s.
      const char s = side[static_cast<std::size_t>(l)];
      const index_t new_size0 = size0 + (s == 0 ? -1 : +1);
      if (new_size0 < lo || new_size0 > hi) continue;
      const index_t g_l = gain(l);
      // Apply the move.
      side[static_cast<std::size_t>(l)] = static_cast<char>(1 - s);
      size0 = new_size0;
      locked[static_cast<std::size_t>(l)] = 1;
      current_cut -= g_l;
      moves.push_back(l);
      if (current_cut < best_cut) {
        best_cut = current_cut;
        best_prefix = moves.size();
        negative_streak = 0;
      } else {
        ++negative_streak;
      }
      // Update neighbor gains.
      for (index_t w : g.neighbors(verts[static_cast<std::size_t>(l)])) {
        index_t lw = local_of[static_cast<std::size_t>(w)];
        if (lw < 0 || locked[static_cast<std::size_t>(lw)]) continue;
        heap.push_or_update(static_cast<std::size_t>(lw), gain(lw));
      }
    }
    // Roll back to the best prefix.
    for (std::size_t k = moves.size(); k > best_prefix; --k) {
      const index_t l = moves[k - 1];
      const char s = side[static_cast<std::size_t>(l)];
      side[static_cast<std::size_t>(l)] = static_cast<char>(1 - s);
      size0 += (s == 0) ? -1 : +1;
    }
    return best_cut < initial_cut;
  }
};

void bisect_recursive(const Graph& g, const std::vector<index_t>& verts,
                      index_t first_part, index_t k, util::Rng& rng,
                      std::vector<index_t>& scratch_local_of,
                      std::vector<index_t>& out_part) {
  DSOUTH_CHECK(k >= 1);
  if (k == 1) {
    for (index_t v : verts) {
      out_part[static_cast<std::size_t>(v)] = first_part;
    }
    return;
  }
  const index_t k0 = (k + 1) / 2;  // parts on side 0
  const index_t k1 = k - k0;
  const auto n_local = static_cast<index_t>(verts.size());
  DSOUTH_CHECK_MSG(n_local >= k, "cannot split " << n_local << " vertices into "
                                                 << k << " parts");
  // Target proportional to the number of parts on each side.
  const index_t target0 = static_cast<index_t>(
      std::llround(static_cast<double>(n_local) * static_cast<double>(k0) /
                   static_cast<double>(k)));
  const index_t target0_clamped =
      std::clamp<index_t>(target0, k0, n_local - k1);

  Bisection bis(g, verts, scratch_local_of);
  bis.grow_side0(target0_clamped, rng);
  for (int pass = 0; pass < kFmPasses; ++pass) {
    if (!bis.fm_pass(target0_clamped, k0, n_local - k1)) break;
  }

  std::vector<index_t> verts0, verts1;
  verts0.reserve(static_cast<std::size_t>(bis.size0));
  verts1.reserve(verts.size() - static_cast<std::size_t>(bis.size0));
  for (std::size_t l = 0; l < verts.size(); ++l) {
    (bis.side[l] == 0 ? verts0 : verts1).push_back(verts[l]);
  }
  bis.release(scratch_local_of);
  // FM may have drifted sizes inside the slack; sides can't be smaller than
  // their part counts though.
  DSOUTH_CHECK(static_cast<index_t>(verts0.size()) >= k0);
  DSOUTH_CHECK(static_cast<index_t>(verts1.size()) >= k1);
  bisect_recursive(g, verts0, first_part, k0, rng, scratch_local_of,
                   out_part);
  bisect_recursive(g, verts1, first_part + k0, k1, rng, scratch_local_of,
                   out_part);
}

}  // namespace

Partition partition_recursive_bisection(const Graph& g, index_t k,
                                        const PartitionOptions& opt) {
  DSOUTH_CHECK(k >= 1 && k <= std::max<index_t>(1, g.num_vertices()));
  Partition p;
  p.num_parts = k;
  p.part.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  if (k == 1 || g.num_vertices() == 0) return p;
  std::vector<index_t> all(static_cast<std::size_t>(g.num_vertices()));
  std::iota(all.begin(), all.end(), index_t{0});
  std::vector<index_t> scratch(static_cast<std::size_t>(g.num_vertices()), -1);
  util::Rng rng(opt.seed);
  bisect_recursive(g, all, 0, k, rng, scratch, p.part);
  return p;
}

Partition repartition_after_failure(const Graph& g, const Partition& p,
                                    std::span<const index_t> dead_parts) {
  DSOUTH_CHECK(p.is_valid(g.num_vertices()));
  const index_t k = p.num_parts;
  std::vector<char> dead(static_cast<std::size_t>(k), 0);
  for (index_t d : dead_parts) {
    DSOUTH_CHECK(d >= 0 && d < k);
    dead[static_cast<std::size_t>(d)] = 1;
  }
  index_t num_survivors = 0;
  for (index_t q = 0; q < k; ++q) {
    if (!dead[static_cast<std::size_t>(q)]) ++num_survivors;
  }
  DSOUTH_CHECK_MSG(num_survivors >= 1, "no surviving parts");

  Partition out = p;
  auto sizes = out.part_sizes();
  const auto smallest_survivor = [&]() {
    index_t best = -1;
    for (index_t q = 0; q < k; ++q) {
      if (dead[static_cast<std::size_t>(q)]) continue;
      if (best < 0 || sizes[static_cast<std::size_t>(q)] <
                          sizes[static_cast<std::size_t>(best)]) {
        best = q;
      }
    }
    return best;
  };

  // --- Adoption: hand each dead part's vertex to a surviving neighbor
  // part, in waves so enclaves deep inside a dead region reach a survivor
  // through already-adopted vertices. Ascending vertex order per wave and
  // deterministic tie-breaks (most adjacent edges, then smaller current
  // size, then smaller part id) keep the result reproducible.
  std::vector<index_t> orphans;
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    if (dead[static_cast<std::size_t>(out.part[static_cast<std::size_t>(v)])]) {
      orphans.push_back(v);
      out.part[static_cast<std::size_t>(v)] = -1;  // unassigned marker
      --sizes[static_cast<std::size_t>(p.part[static_cast<std::size_t>(v)])];
    }
  }
  std::vector<index_t> edge_count(static_cast<std::size_t>(k), 0);
  std::vector<index_t> next_wave;
  while (!orphans.empty()) {
    next_wave.clear();
    bool progressed = false;
    for (index_t v : orphans) {
      std::fill(edge_count.begin(), edge_count.end(), 0);
      index_t best = -1;
      for (index_t w : g.neighbors(v)) {
        const index_t q = out.part[static_cast<std::size_t>(w)];
        if (q < 0 || dead[static_cast<std::size_t>(q)]) continue;
        const auto uq = static_cast<std::size_t>(q);
        ++edge_count[uq];
        if (best < 0 || edge_count[uq] > edge_count[static_cast<std::size_t>(best)] ||
            (edge_count[uq] == edge_count[static_cast<std::size_t>(best)] &&
             (sizes[uq] < sizes[static_cast<std::size_t>(best)] ||
              (sizes[uq] == sizes[static_cast<std::size_t>(best)] &&
               q < best)))) {
          best = q;
        }
      }
      if (best >= 0) {
        out.part[static_cast<std::size_t>(v)] = best;
        ++sizes[static_cast<std::size_t>(best)];
        progressed = true;
      } else {
        next_wave.push_back(v);
      }
    }
    if (!progressed && !next_wave.empty()) {
      // Fully disconnected orphan: the smallest survivor takes it.
      const index_t v = next_wave.front();
      const index_t q = smallest_survivor();
      out.part[static_cast<std::size_t>(v)] = q;
      ++sizes[static_cast<std::size_t>(q)];
      next_wave.erase(next_wave.begin());
    }
    orphans.swap(next_wave);
  }

  // --- Incremental FM polish: around every recipient part, refine each
  // (recipient, touching-survivor) pair with the bisection partitioner's
  // bounded FM pass. The pair subset is the two parts' vertices; the pass
  // equalizes the pair (target = half) within the usual slack, locking and
  // best-prefix rollback bounding the work to the boundary region.
  std::vector<char> recipient(static_cast<std::size_t>(k), 0);
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    if (dead[static_cast<std::size_t>(p.part[static_cast<std::size_t>(v)])]) {
      recipient[static_cast<std::size_t>(
          out.part[static_cast<std::size_t>(v)])] = 1;
    }
  }
  // Touching survivor pairs (a < b) with at least one recipient end, in
  // ascending order.
  std::vector<std::pair<index_t, index_t>> pairs;
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    const index_t a = out.part[static_cast<std::size_t>(v)];
    for (index_t w : g.neighbors(v)) {
      if (w <= v) continue;
      const index_t b = out.part[static_cast<std::size_t>(w)];
      if (a == b) continue;
      if (!recipient[static_cast<std::size_t>(a)] &&
          !recipient[static_cast<std::size_t>(b)]) {
        continue;
      }
      pairs.emplace_back(std::min(a, b), std::max(a, b));
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  std::vector<index_t> scratch(static_cast<std::size_t>(g.num_vertices()),
                               -1);
  std::vector<index_t> subset;
  for (const auto& [a, b] : pairs) {
    subset.clear();
    for (index_t v = 0; v < g.num_vertices(); ++v) {
      const index_t q = out.part[static_cast<std::size_t>(v)];
      if (q == a || q == b) subset.push_back(v);
    }
    const auto n_local = static_cast<index_t>(subset.size());
    if (n_local < 2) continue;
    Bisection bis(g, subset, scratch);
    index_t size0 = 0;
    for (std::size_t l = 0; l < subset.size(); ++l) {
      if (out.part[static_cast<std::size_t>(subset[l])] == a) {
        bis.side[l] = 0;
        ++size0;
      }
    }
    bis.size0 = size0;
    const index_t target0 = (n_local + 1) / 2;
    for (int pass = 0; pass < kFmPasses; ++pass) {
      if (!bis.fm_pass(target0, 1, n_local - 1)) break;
    }
    for (std::size_t l = 0; l < subset.size(); ++l) {
      out.part[static_cast<std::size_t>(subset[l])] =
          bis.side[l] == 0 ? a : b;
    }
    bis.release(scratch);
  }
  return out;
}

Partition partition_greedy_growing(const Graph& g, index_t k,
                                   std::uint64_t seed) {
  DSOUTH_CHECK(k >= 1 && k <= std::max<index_t>(1, g.num_vertices()));
  const index_t n = g.num_vertices();
  Partition p;
  p.num_parts = k;
  p.part.assign(static_cast<std::size_t>(n), -1);
  if (n == 0) return p;
  util::Rng rng(seed);
  // Distinct random seeds, one frontier per part, grown round-robin.
  auto seeds = rng.sample_without_replacement(static_cast<std::size_t>(n),
                                              static_cast<std::size_t>(k));
  std::vector<std::deque<index_t>> frontier(static_cast<std::size_t>(k));
  index_t assigned = 0;
  for (index_t part = 0; part < k; ++part) {
    const auto v = static_cast<index_t>(seeds[static_cast<std::size_t>(part)]);
    p.part[static_cast<std::size_t>(v)] = part;
    frontier[static_cast<std::size_t>(part)].push_back(v);
    ++assigned;
  }
  std::size_t scan = 0;
  while (assigned < n) {
    bool progressed = false;
    for (index_t part = 0; part < k && assigned < n; ++part) {
      auto& q = frontier[static_cast<std::size_t>(part)];
      while (!q.empty()) {
        index_t v = q.front();
        bool claimed = false;
        for (index_t w : g.neighbors(v)) {
          if (p.part[static_cast<std::size_t>(w)] < 0) {
            p.part[static_cast<std::size_t>(w)] = part;
            q.push_back(w);
            ++assigned;
            claimed = true;
            progressed = true;
            break;
          }
        }
        if (claimed) break;
        q.pop_front();
      }
    }
    if (!progressed) {
      // Disconnected remainder: hand the next orphan to the smallest part.
      while (scan < static_cast<std::size_t>(n) && p.part[scan] >= 0) ++scan;
      DSOUTH_ASSERT(scan < static_cast<std::size_t>(n));
      auto sizes = std::vector<index_t>(static_cast<std::size_t>(k), 0);
      for (index_t q2 : p.part) {
        if (q2 >= 0) ++sizes[static_cast<std::size_t>(q2)];
      }
      index_t smallest = 0;
      for (index_t part = 1; part < k; ++part) {
        if (sizes[static_cast<std::size_t>(part)] <
            sizes[static_cast<std::size_t>(smallest)]) {
          smallest = part;
        }
      }
      p.part[scan] = smallest;
      frontier[static_cast<std::size_t>(smallest)].push_back(
          static_cast<index_t>(scan));
      ++assigned;
    }
  }
  return p;
}

Partition partition_contiguous_blocks(index_t n, index_t k) {
  DSOUTH_CHECK(n >= 0 && k >= 1);
  Partition p;
  p.num_parts = k;
  p.part.resize(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    // Block b owns rows [b*n/k, (b+1)*n/k).
    p.part[static_cast<std::size_t>(i)] =
        std::min<index_t>(k - 1, (i * k) / std::max<index_t>(1, n));
  }
  return p;
}

}  // namespace dsouth::graph
