#include "faults/fault_plan.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsouth::faults {

namespace {

using util::draw;

/// Map a hash to a uniform double in [0, 1) (the top 53 bits).
inline double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Per-fault-type salts (arbitrary distinct constants).
constexpr std::uint64_t kSaltDrop = 0xD409ULL;
constexpr std::uint64_t kSaltDuplicate = 0xD0B1ULL;
constexpr std::uint64_t kSaltReorder = 0x4E04ULL;
constexpr std::uint64_t kSaltCorrupt = 0xC042ULL;
constexpr std::uint64_t kSaltTruncate = 0x7420ULL;
constexpr std::uint64_t kSaltKill = 0xDEADULL;

inline void check_probability(double p) { DSOUTH_CHECK(p >= 0.0 && p <= 1.0); }

}  // namespace

bool FaultPlan::any() const {
  if (defaults.any()) return true;
  for (const auto& s : stalls) {
    if (s.epochs > 0) return true;
  }
  if (!kills.empty()) return true;
  if (random_kills.probability > 0.0 && random_kills.max_kill_epoch > 0) {
    return true;
  }
  return false;
}

FaultSchedule::FaultSchedule(const FaultPlan& plan, int num_ranks)
    : plan_(plan),
      num_ranks_(num_ranks),
      stalls_(static_cast<std::size_t>(num_ranks)),
      kill_epochs_(static_cast<std::size_t>(num_ranks), kNeverKilled) {
  DSOUTH_CHECK(num_ranks > 0);
  DSOUTH_CHECK(plan.max_reorder_epochs >= 1);
  const EdgeFaults& probs = plan.defaults;
  check_probability(probs.drop_probability);
  check_probability(probs.duplicate_probability);
  check_probability(probs.reorder_probability);
  check_probability(probs.corrupt_probability);
  check_probability(probs.truncate_probability);
  for (const auto& s : plan.stalls) {
    DSOUTH_CHECK(s.rank >= 0 && s.rank < num_ranks);
    stalls_[static_cast<std::size_t>(s.rank)].push_back(s);
  }
  for (auto& per_rank : stalls_) {
    std::sort(per_rank.begin(), per_rank.end(),
              [](const Stall& a, const Stall& b) {
                return a.first_epoch < b.first_epoch;
              });
  }
  // Permanent failures: explicit overrides first (earliest epoch wins) ...
  for (const auto& k : plan.kills) {
    DSOUTH_CHECK(k.rank >= 0 && k.rank < num_ranks);
    auto& e = kill_epochs_[static_cast<std::size_t>(k.rank)];
    e = std::min(e, k.epoch);
  }
  // ... then the seeded per-(rank, epoch) draws, precomputed so fence-time
  // queries are lookups. The draw key deliberately matches the documented
  // (seed, salt, epoch, rank) shape: src == dst == rank, seq == 0.
  const RandomKills& rk = plan.random_kills;
  check_probability(rk.probability);
  if (rk.probability > 0.0) {
    for (int r = 0; r < num_ranks; ++r) {
      auto& e = kill_epochs_[static_cast<std::size_t>(r)];
      for (std::uint64_t epoch = 0;
           epoch < rk.max_kill_epoch && epoch < e; ++epoch) {
        if (unit(draw(plan.seed, kSaltKill, epoch, r, r, /*seq=*/0)) <
            rk.probability) {
          e = epoch;
          break;
        }
      }
    }
  }
  for (auto e : kill_epochs_) {
    if (e != kNeverKilled) any_kills_ = true;
  }
}

std::uint64_t FaultSchedule::kill_epoch(int rank) const {
  DSOUTH_ASSERT(rank >= 0 && rank < num_ranks_);
  return kill_epochs_[static_cast<std::size_t>(rank)];
}

FaultDecision FaultSchedule::decide(std::uint64_t epoch, int src, int dst,
                                    std::uint64_t seq,
                                    std::size_t payload_doubles) const {
  DSOUTH_ASSERT(src >= 0 && src < num_ranks_);
  DSOUTH_ASSERT(dst >= 0 && dst < num_ranks_);
  const EdgeFaults& e = plan_.defaults;
  const std::uint64_t seed = plan_.seed;
  FaultDecision d;
  if (e.drop_probability > 0.0 &&
      unit(draw(seed, kSaltDrop, epoch, src, dst, seq)) <
          e.drop_probability) {
    d.drop = true;
    return d;  // a dropped message suffers no further faults
  }
  if (e.duplicate_probability > 0.0 &&
      unit(draw(seed, kSaltDuplicate, epoch, src, dst, seq)) <
          e.duplicate_probability) {
    d.duplicate = true;
  }
  if (e.reorder_probability > 0.0 &&
      unit(draw(seed, kSaltReorder, epoch, src, dst, seq)) <
          e.reorder_probability) {
    d.reorder_extra =
        1 + static_cast<int>(
                draw(seed, kSaltReorder, epoch, src, dst, seq, /*lane=*/1) %
                static_cast<std::uint64_t>(plan_.max_reorder_epochs));
  }
  if (payload_doubles > 0 && e.corrupt_probability > 0.0 &&
      unit(draw(seed, kSaltCorrupt, epoch, src, dst, seq)) <
          e.corrupt_probability) {
    d.corrupt = true;
    d.corrupt_index = static_cast<std::size_t>(
        draw(seed, kSaltCorrupt, epoch, src, dst, seq, /*lane=*/1) %
        static_cast<std::uint64_t>(payload_doubles));
    d.corrupt_bit = static_cast<int>(
        draw(seed, kSaltCorrupt, epoch, src, dst, seq, /*lane=*/2) % 64);
  }
  if (payload_doubles > 0 && e.truncate_probability > 0.0 &&
      unit(draw(seed, kSaltTruncate, epoch, src, dst, seq)) <
          e.truncate_probability) {
    d.truncate = true;
    d.truncate_len = static_cast<std::size_t>(
        draw(seed, kSaltTruncate, epoch, src, dst, seq, /*lane=*/1) %
        static_cast<std::uint64_t>(payload_doubles));
    d.corrupt = false;  // truncation supersedes the bit flip
  }
  return d;
}

std::uint64_t FaultSchedule::hold_until(int rank, std::uint64_t epoch) const {
  DSOUTH_ASSERT(rank >= 0 && rank < num_ranks_);
  std::uint64_t until = epoch;
  for (const auto& s : stalls_[static_cast<std::size_t>(rank)]) {
    if (s.first_epoch > epoch) break;  // sorted by start; none can cover
    const std::uint64_t end = s.first_epoch + s.epochs;
    if (epoch < end) until = std::max(until, end);
  }
  return until;
}

}  // namespace dsouth::faults
