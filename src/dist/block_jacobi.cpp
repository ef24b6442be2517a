#include "dist/block_jacobi.hpp"

namespace dsouth::dist {

BlockJacobi::BlockJacobi(const DistLayout& layout, simmpi::Runtime& rt,
                         std::span<const value_t> b,
                         std::span<const value_t> x0)
    : DistStationarySolver(layout, rt, b, x0, wire::Family::kDelta) {}

void BlockJacobi::rank_send(int /*e*/, simmpi::RankContext& ctx, int p) {
  const RankData& rd = layout_->rank(p);
  if (rd.num_rows() == 0) return;
  const auto dx = relax_subdomain(ctx, p);
  auto& ch = channels_[static_cast<std::size_t>(p)];
  for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
    write_boundary_x(p, k, dx,
                     ch.open(ctx, k, wire::RecordType::kGhostDelta).dx);
  }
  ch.flush();
}

}  // namespace dsouth::dist
