#pragma once

/// \file multicolor_block_gs.hpp
/// Multicolor Block Gauss–Seidel in distributed memory — the classical
/// alternative the paper's introduction discusses ("Gauss-Seidel can be
/// parallelized by using block multicoloring, but a large number of colors
/// may be needed for irregular problems [3]").
///
/// The subdomain graph (ranks as vertices, coupling as edges) is greedily
/// colored; each parallel step relaxes every subdomain of ONE color and
/// exchanges boundary updates, so one full sweep costs `num_colors`
/// parallel steps. Within a color the subdomains are independent, which is
/// what gives the method Gauss–Seidel-grade convergence (and guaranteed
/// SPD convergence, unlike Block Jacobi) at the price of `num_colors`×
/// the synchronization.
///
/// It is Block Jacobi with a color gate: an on-color rank relaxes and
/// sends exactly as Block Jacobi does, an off-color rank does nothing.

#include "dist/block_jacobi.hpp"
#include "graph/coloring.hpp"

namespace dsouth::dist {

class MulticolorBlockGs final : public BlockJacobi {
 public:
  MulticolorBlockGs(const DistLayout& layout, simmpi::Runtime& rt,
                    std::span<const value_t> b, std::span<const value_t> x0);

  /// One parallel step = relax the next color. A full sweep over all
  /// subdomains takes num_colors() steps.
  const char* name() const override { return "MulticolorBlockGs"; }

  int num_colors() const { return static_cast<int>(coloring_.num_colors); }
  int current_color() const { return next_color_; }

  // Stepping hooks (solver_base.hpp): begin_step rotates the color; the
  // send phase is a no-op for off-color ranks, so running it for every
  // rank is byte-identical to a color-restricted dispatch.
  void begin_step() override;
  void rank_send(int e, simmpi::RankContext& ctx, int p) override;

 private:
  graph::Coloring coloring_;  // colors over ranks
  int next_color_ = 0;
  int step_color_ = 0;  // the color this step relaxes (set by begin_step)
};

}  // namespace dsouth::dist
