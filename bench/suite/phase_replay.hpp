#pragma once

/// \file phase_replay.hpp
/// The traced solve: run_distributed's loop rebuilt from outside on the
/// public dist::RunHarness and the solver's phase table (begin_step,
/// rank_send / rank_async_send, Runtime::fence, rank_absorb,
/// merge_rank_stats), with a span around every call. Sequential order
/// only — the ranks run in ascending order, as SequentialBackend does — so
/// the result must equal run_distributed's bit for bit; the caller checks
/// that with first_difference().

#include <span>
#include <string>

#include "dist/driver.hpp"
#include "dist/layout.hpp"
#include "elastic/checkpoint.hpp"
#include "timing.hpp"

namespace dsouth::suite {

using sparse::index_t;
using sparse::value_t;

struct ReplayRun {
  dist::DistRunResult result;
  dist::ResilienceStats resilience;
  std::uint64_t epochs = 0;
  /// Runtime and solver state after the last step (the checkpoint probe
  /// encodes and decodes it).
  elastic::Checkpoint state;
};

/// Distributed Southwell over `layout` under `opt` (no kills, no watchdog,
/// sequential backend), spans rooted at one "dist.solve" span tagged
/// `solve_id`.
ReplayRun replay(const dist::DistLayout& layout, std::span<const value_t> b,
                 std::span<const value_t> x0, const dist::DistRunOptions& opt,
                 Spans& spans, int solve_id);

/// Empty when `a` and `b` agree bit for bit on every series, the final
/// iterate and every total; otherwise names the first field that differs.
std::string first_difference(const dist::DistRunResult& a,
                             const dist::DistRunResult& b);

}  // namespace dsouth::suite
