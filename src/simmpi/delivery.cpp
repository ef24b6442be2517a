#include "simmpi/delivery.hpp"

namespace dsouth::simmpi {

namespace {

/// SplitMix64 output function — the same avalanche src/faults uses for its
/// stateless draws, duplicated here because the delivery layer must not
/// depend on the fault subsystem (it is the other way around: both hang
/// off the runtime).
inline std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Hash of (seed, salt, epoch, src, dst, seq) — the fault subsystem's key
/// scheme, so latency draws are independent of every fault draw (distinct
/// salt).
inline std::uint64_t draw(std::uint64_t seed, std::uint64_t salt,
                          std::uint64_t epoch, int src, int dst,
                          std::uint64_t seq) {
  std::uint64_t h = mix(seed ^ salt);
  h = mix(h ^ epoch);
  h = mix(h ^ ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                << 32) |
               static_cast<std::uint32_t>(dst)));
  h = mix(h ^ seq);
  return h;
}

/// Salt for the latency draw; distinct from every kSalt* in fault_plan.cpp.
constexpr std::uint64_t kSaltLatency = 0x1A7EULL;

}  // namespace

std::uint64_t AsyncDelivery::extra_latency(std::uint64_t epoch, int src,
                                           int dst, std::uint64_t seq) const {
  const auto lo = static_cast<std::uint64_t>(min_latency_epochs);
  const auto hi = static_cast<std::uint64_t>(max_latency_epochs);
  if (lo == hi) return lo;  // degenerate range: no draw needed
  const std::uint64_t h = draw(seed, kSaltLatency, epoch, src, dst, seq);
  return lo + h % (hi - lo + 1);
}

}  // namespace dsouth::simmpi
