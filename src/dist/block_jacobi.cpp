#include "dist/block_jacobi.hpp"

#include "util/error.hpp"

namespace dsouth::dist {

BlockJacobi::BlockJacobi(const DistLayout& layout, simmpi::Runtime& rt,
                         std::span<const value_t> b,
                         std::span<const value_t> x0)
    : DistStationarySolver(layout, rt, b, x0) {}

void BlockJacobi::rank_relax(simmpi::RankContext& ctx, int p) {
  const RankData& rd = layout_->rank(p);
  if (rd.num_rows() == 0) return;
  const auto dx = relax_subdomain(ctx, p);
  const auto& xp = x_[static_cast<std::size_t>(p)];
  auto& ch = channels_[static_cast<std::size_t>(p)];
  for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
    const auto& nb = rd.neighbors[k];
    auto rec = ch.open(ctx, k, wire::RecordType::kGhostDelta);
    for (std::size_t s = 0; s < nb.send_rows_local.size(); ++s) {
      const auto li = static_cast<std::size_t>(nb.send_rows_local[s]);
      // Resilient mode ships absolute boundary x (self-healing across
      // message loss — solver_base.hpp); default mode ships the delta.
      rec.dx[s] = resilient() ? xp[li] : dx[li];
    }
  }
  ch.flush();
}

void BlockJacobi::absorb_payload(simmpi::RankContext& ctx, int p,
                                 std::size_t nbi,
                                 std::span<const double> payload) {
  const auto body = accept_record(ctx, p, nbi, payload);
  if (!body) return;
  const std::size_t width = layout_->rank(p).neighbors[nbi].ghost_rows.size();
  const auto rec = wire::decode_record(wire::Family::kDelta, *body, width);
  absorb_boundary_x(ctx, p, nbi, rec.dx);
}

void BlockJacobi::rank_send(int /*e*/, simmpi::RankContext& ctx, int p) {
  rank_relax(ctx, p);
}

void BlockJacobi::rank_async_send(simmpi::RankContext& ctx, int p) {
  rank_relax(ctx, p);
}

}  // namespace dsouth::dist
