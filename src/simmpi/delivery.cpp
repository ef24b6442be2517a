#include "simmpi/delivery.hpp"

#include "util/rng.hpp"

namespace dsouth::simmpi {

namespace {

/// Salt for the latency draw (util::draw); distinct from every kSalt* in
/// fault_plan.cpp, so latencies are independent of every fault draw.
constexpr std::uint64_t kSaltLatency = 0x1A7EULL;

}  // namespace

std::uint64_t AsyncDelivery::extra_latency(std::uint64_t epoch, int src,
                                           int dst, std::uint64_t seq) const {
  const auto lo = static_cast<std::uint64_t>(min_latency_epochs);
  const auto hi = static_cast<std::uint64_t>(max_latency_epochs);
  if (lo == hi) return lo;  // degenerate range: no draw needed
  const std::uint64_t h =
      util::draw(seed, kSaltLatency, epoch, src, dst, seq);
  return lo + h % (hi - lo + 1);
}

}  // namespace dsouth::simmpi
