#pragma once

/// \file run_trace.hpp
/// The analysis layer's view of one traced run: the deterministic event
/// stream plus the end-of-run metric totals, either taken straight from an
/// in-memory trace::TraceLog or read back from a JSON Lines capture file
/// (the `-trace foo.jsonl` output of the benches). Both construction paths
/// yield identical RunTrace contents for the same run, so every analyzer
/// report is a pure function of the deterministic trace fields — and
/// therefore byte-identical across execution backends. Events live in a
/// trace::EventLog either way; adopting an in-memory log shares its
/// chunks instead of copying events.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.hpp"

namespace dsouth::analysis {

/// One named metric with its per-rank end-of-run values.
struct MetricSeries {
  std::string name;
  trace::MetricKind kind = trace::MetricKind::kCounter;
  std::vector<double> per_rank;

  double total() const;
};

/// One traced run, ready for analysis.
struct RunTrace {
  std::string label;  ///< the bench's run label ("bone010p P=13 DS", …)
  int num_ranks = 0;
  trace::EventLog events;  ///< an event's seq is its index
  std::vector<MetricSeries> metrics;

  /// Metric lookup by exact name; nullptr when absent.
  const MetricSeries* find_metric(std::string_view name) const;
};

/// Adopt an in-memory trace log (no serialization round trip). The events
/// are shared with `log`, not copied; the metric values are copied.
RunTrace from_trace_log(const trace::TraceLog& log, std::string label);

/// Parse a JSON Lines capture (possibly holding several runs — one header
/// line each, see docs/observability.md). A header whose version is not
/// trace::kTraceVersion, an unknown event kind, or an event field the
/// analyzers could not use safely is rejected with CheckError naming the
/// line: an event's seq must be its index within its run, times and
/// details must be finite, every field an analyzer casts to an integer
/// must be integral, non-negative and in range (an epoch below 2^32, a tag
/// below 128: the widths trace::Event stores), ranks and peers must name
/// ranks of the run, and a delivery's staleness cannot exceed its epoch or
/// the epochs the run has fenced so far. A run with no metric line is
/// rejected too: only a metric's per-rank slots confirm the header's
/// num_ranks, which sizes the analyzers' tables. Events lacking optional
/// fields (`peer`, `tag`) get the in-memory defaults, so
/// parse(write_jsonl(log)) == from_trace_log(log) field for field.
std::vector<RunTrace> parse_jsonl(std::string_view text);

/// parse_jsonl over a file, read one line at a time through the same line
/// parser (the file is never held in memory whole).
std::vector<RunTrace> read_jsonl_file(const std::string& path);

}  // namespace dsouth::analysis
