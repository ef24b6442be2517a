#include "analysis/run_trace.hpp"

#include <cmath>
#include <fstream>
#include <utility>

#include "analysis/analyzer.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace dsouth::analysis {

using util::JsonValue;

double MetricSeries::total() const {
  double t = 0.0;
  for (double v : per_rank) t += v;
  return t;
}

const MetricSeries* RunTrace::find_metric(std::string_view name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

RunTrace from_trace_log(const trace::TraceLog& log, std::string label) {
  RunTrace run;
  run.label = std::move(label);
  run.num_ranks = log.num_ranks;
  run.events = log.events;  // shares the chunks; no event is copied
  const trace::MetricsRegistry& reg = log.metrics;
  run.metrics.reserve(reg.size());
  for (std::size_t i = 0; i < reg.size(); ++i) {
    const auto id = static_cast<trace::MetricId>(i);
    run.metrics.push_back(
        MetricSeries{reg.name(id), reg.kind(id), reg.per_rank(id)});
  }
  return run;
}

namespace {

trace::EventKind parse_kind(const std::string& name) {
  for (int k = 0; k < trace::kNumEventKinds; ++k) {
    const auto kind = static_cast<trace::EventKind>(k);
    if (name == trace::event_kind_name(kind)) return kind;
  }
  DSOUTH_CHECK_MSG(false, "unknown event kind '" << name << "'");
  return trace::EventKind::kPut;  // unreachable
}

trace::MetricKind parse_metric_kind(const std::string& name) {
  if (name == trace::metric_kind_name(trace::MetricKind::kCounter)) {
    return trace::MetricKind::kCounter;
  }
  if (name == trace::metric_kind_name(trace::MetricKind::kGauge)) {
    return trace::MetricKind::kGauge;
  }
  DSOUTH_CHECK_MSG(false, "unknown metric kind '" << name << "'");
  return trace::MetricKind::kCounter;  // unreachable
}

constexpr double kUint64End = 18446744073709551616.0;  // 2^64
constexpr double kIntEnd = 2147483648.0;               // 2^31

/// `v` as an integer in [0, end), checked before any cast: casting a
/// fractional, negative, non-finite or too-large double to an integer type
/// is undefined behaviour, and the analyzers size tables from these fields.
double checked_count(double v, double end, const char* field) {
  DSOUTH_CHECK_MSG(v >= 0.0 && v < end && std::trunc(v) == v,
                   "field '" << field << "' = " << v
                             << " is not an integer in [0, " << end << ")");
  return v;
}

double count_field(const JsonValue& v, const char* key, double end) {
  return checked_count(v.at(key).as_number(), end, key);
}

/// Exclusive upper bounds for the (a0, a1) fields an analyzer casts to an
/// integer type (trace.hpp documents each kind's fields); 0 marks a field
/// no analyzer casts.
std::pair<double, double> count_bounds(const trace::Event& e) {
  switch (e.kind) {
    case trace::EventKind::kPut:    // a1 = bytes
    case trace::EventKind::kFence:  // a1 = epoch messages
      return {0.0, kUint64End};
    case trace::EventKind::kRelax:    // a0 = rows
    case trace::EventKind::kAbsorb:   // a0 = messages
    case trace::EventKind::kDeliver:  // a0 = staleness
      return {kUint64End, 0.0};
    case trace::EventKind::kHop:  // a0 = bytes, a1 = records
      return {kUint64End, kUint64End};
    case trace::EventKind::kElastic:  // a kill's a0 is the dead rank (int)
      return {e.tag == ElasticReport::kKill ? kIntEnd : kUint64End,
              kUint64End};
    case trace::EventKind::kCompute:
    case trace::EventKind::kFault:
      break;
  }
  return {0.0, 0.0};
}

trace::Event parse_event(const JsonValue& v, const RunTrace& run,
                         std::uint64_t fences_so_far) {
  const double ranks = run.num_ranks;
  trace::Event e;
  e.kind = parse_kind(v.at("kind").as_string());
  // No Event field holds the seq: it is the event's index in its run.
  const double seq = v.at("seq").as_number();
  const std::size_t index = run.events.size();
  DSOUTH_CHECK_MSG(seq == static_cast<double>(index),
                   "event seq " << seq << " is not its index " << index
                                << " in the run");
  e.epoch = static_cast<std::uint32_t>(
      count_field(v, "epoch", static_cast<double>(trace::kEpochEnd)));
  // Fences are runtime-wide (rank -1); every other event names a rank of
  // the run, which the analyzers index per-rank tables with.
  const double rank = v.at("rank").as_number();
  if (e.kind == trace::EventKind::kFence) {
    DSOUTH_CHECK_MSG(rank == -1.0, "fence event has rank " << rank);
    e.rank = -1;
  } else {
    e.rank = static_cast<std::int32_t>(checked_count(rank, ranks, "rank"));
  }
  if (const JsonValue* peer = v.find("peer")) {
    e.peer = static_cast<std::int32_t>(
        checked_count(peer->as_number(), ranks, "peer"));
  }
  if (const JsonValue* tag = v.find("tag")) {
    e.tag = static_cast<std::int8_t>(
        checked_count(tag->as_number(), trace::kTagEnd, "tag"));
  }
  e.t_model = v.at("t_model").as_number();
  e.a0 = v.at("a0").as_number();
  e.a1 = v.at("a1").as_number();
  DSOUTH_CHECK_MSG(std::isfinite(e.t_model) && std::isfinite(e.a0) &&
                       std::isfinite(e.a1),
                   "event times and details must be finite");
  const auto [a0_end, a1_end] = count_bounds(e);
  if (a0_end > 0.0) checked_count(e.a0, a0_end, "a0");
  if (a1_end > 0.0) checked_count(e.a1, a1_end, "a1");
  if (e.kind == trace::EventKind::kDeliver) {
    // A message delivered s epochs late was staged s fences ago, so its
    // staleness is bounded by the run so far; that also bounds the
    // analyzer's staleness histogram by the trace's length.
    DSOUTH_CHECK_MSG(e.a0 <= static_cast<double>(e.epoch) &&
                         e.a0 <= static_cast<double>(fences_so_far),
                     "deliver staleness " << e.a0 << " exceeds its epoch "
                                          << e.epoch << " or the "
                                          << fences_so_far
                                          << " epochs fenced so far");
  }
  return e;
}

MetricSeries parse_metric(const JsonValue& v, const RunTrace& run) {
  MetricSeries m;
  m.name = v.at("name").as_string();
  m.kind = parse_metric_kind(v.at("metric_kind").as_string());
  const auto& slots = v.at("per_rank").as_array();
  DSOUTH_CHECK_MSG(slots.size() == static_cast<std::size_t>(run.num_ranks),
                   "metric '" << m.name << "' has " << slots.size()
                              << " slots for " << run.num_ranks << " ranks");
  m.per_rank.reserve(slots.size());
  for (const auto& s : slots) m.per_rank.push_back(s.as_number());
  return m;
}

RunTrace parse_header(const JsonValue& v) {
  const std::int64_t version = v.at("version").as_int();
  DSOUTH_CHECK_MSG(version == trace::kTraceVersion,
                   "trace schema version " << version
                                           << "; this build reads version "
                                           << trace::kTraceVersion);
  RunTrace run;
  run.num_ranks = static_cast<int>(count_field(v, "num_ranks", kIntEnd));
  DSOUTH_CHECK_MSG(run.num_ranks > 0, "header has no ranks");
  if (const JsonValue* label = v.find("run")) {
    run.label = label->as_string();
  }
  return run;
}

/// The line parser behind both entry points: feed every line in order,
/// then call finish(). Each rejection names the offending line.
class JsonlParser {
 public:
  void add_line(std::string_view line) {
    ++line_no_;
    // Skip blank lines (a concatenation of captures may leave them).
    bool blank = true;
    for (char c : line) {
      if (c != ' ' && c != '\t' && c != '\r') blank = false;
    }
    if (blank) return;

    try {
      const JsonValue v = util::parse_json(line);
      const std::string& type = v.at("type").as_string();
      if (type == "header") {
        runs_.push_back(parse_header(v));
        fences_ = 0;
        return;
      }
      DSOUTH_CHECK_MSG(!runs_.empty(),
                       "'" << type << "' line before any header");
      RunTrace& run = runs_.back();
      if (type == "event") {
        run.events.push_back(parse_event(v, run, fences_));
        if (run.events.back().kind == trace::EventKind::kFence) ++fences_;
      } else if (type == "metric") {
        run.metrics.push_back(parse_metric(v, run));
      } else {
        DSOUTH_CHECK_MSG(false, "unknown type '" << type << "'");
      }
    } catch (const util::CheckError& e) {
      DSOUTH_CHECK_MSG(false, "JSONL trace line " << line_no_ << ": "
                                                  << e.what());
    }
  }

  std::vector<RunTrace> finish() {
    for (const RunTrace& run : runs_) {
      // The analyzers size per-rank tables from num_ranks, so a header
      // alone must not reach them: a metric line, whose per_rank array has
      // to hold exactly num_ranks slots, confirms the count (every traced
      // run writes the fixed simmpi.* set).
      DSOUTH_CHECK_MSG(!run.metrics.empty(),
                       "JSONL trace: run '" << run.label << "' has no metric "
                                            << "line to confirm num_ranks "
                                            << run.num_ranks);
    }
    return std::move(runs_);
  }

 private:
  std::vector<RunTrace> runs_;
  std::uint64_t fences_ = 0;  // fence events of the current run so far
  std::size_t line_no_ = 0;
};

}  // namespace

std::vector<RunTrace> parse_jsonl(std::string_view text) {
  JsonlParser parser;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::size_t end = eol == std::string_view::npos ? text.size() : eol;
    parser.add_line(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return parser.finish();
}

std::vector<RunTrace> read_jsonl_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DSOUTH_CHECK_MSG(in.good(), "cannot open trace file '" << path << "'");
  JsonlParser parser;
  std::string line;
  while (std::getline(in, line)) parser.add_line(line);
  DSOUTH_CHECK_MSG(!in.bad(), "error reading trace file '" << path << "'");
  return parser.finish();
}

}  // namespace dsouth::analysis
