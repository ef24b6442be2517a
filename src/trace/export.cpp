#include "trace/export.hpp"

#include <ostream>

#include "util/error.hpp"
#include "util/json.hpp"

namespace dsouth::trace {

using util::append_json_number;
using util::json_escape;

namespace {

void append_kv(std::string& out, const char* key, double v) {
  out += "\"";
  out += key;
  out += "\":";
  append_json_number(out, v);
}

void append_kv(std::string& out, const char* key, std::uint64_t v) {
  out += "\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void append_kv(std::string& out, const char* key, int v) {
  out += "\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void append_kv(std::string& out, const char* key, const std::string& v) {
  out += "\"";
  out += key;
  out += "\":\"";
  out += json_escape(v);
  out += "\"";
}

}  // namespace

void write_jsonl(std::ostream& out, const TraceLog& log,
                 const TraceExportOptions& opt) {
  std::string line;
  line.reserve(256);

  line = "{\"type\":\"header\",";
  append_kv(line, "version", kTraceVersion);
  line += ",";
  append_kv(line, "num_ranks", log.num_ranks);
  line += ",";
  append_kv(line, "events", static_cast<std::uint64_t>(log.events.size()));
  if (!opt.run_label.empty()) {
    line += ",";
    append_kv(line, "run", opt.run_label);
  }
  line += "}\n";
  out << line;

  std::uint64_t seq = 0;  // an event's seq is its index in the log
  for (const Event& e : log.events) {
    line = "{\"type\":\"event\",";
    append_kv(line, "kind", std::string(event_kind_name(e.kind)));
    line += ",";
    append_kv(line, "seq", seq++);
    line += ",";
    append_kv(line, "epoch", static_cast<std::uint64_t>(e.epoch));
    line += ",";
    append_kv(line, "rank", e.rank);
    if (e.peer >= 0) {
      line += ",";
      append_kv(line, "peer", e.peer);
    }
    if (e.tag >= 0) {
      line += ",";
      append_kv(line, "tag", static_cast<int>(e.tag));
    }
    line += ",";
    append_kv(line, "t_model", e.t_model);
    line += ",";
    append_kv(line, "a0", e.a0);
    line += ",";
    append_kv(line, "a1", e.a1);
    line += "}\n";
    out << line;
  }

  const MetricsRegistry& m = log.metrics;
  for (std::size_t i = 0; i < m.size(); ++i) {
    const auto id = static_cast<MetricId>(i);
    line = "{\"type\":\"metric\",";
    append_kv(line, "name", m.name(id));
    line += ",";
    append_kv(line, "metric_kind", std::string(metric_kind_name(m.kind(id))));
    line += ",";
    append_kv(line, "total", m.total(id));
    line += ",\"per_rank\":[";
    const auto& slots = m.per_rank(id);
    for (std::size_t r = 0; r < slots.size(); ++r) {
      if (r) line += ",";
      append_json_number(line, slots[r]);
    }
    line += "]}\n";
    out << line;
  }
}

// ---------------------------------------------------------------------------
// Chrome trace_event
// ---------------------------------------------------------------------------

ChromeTraceWriter::ChromeTraceWriter(std::ostream& out) : out_(&out) {
  *out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
}

ChromeTraceWriter::~ChromeTraceWriter() {
  if (!finished_) finish();
}

void ChromeTraceWriter::emit(const std::string& json_object) {
  if (any_event_) *out_ << ",";
  *out_ << "\n" << json_object;
  any_event_ = true;
}

void ChromeTraceWriter::add_run(const TraceLog& log,
                                const TraceExportOptions& opt) {
  DSOUTH_CHECK(!finished_);
  const int pid = next_pid_++;
  const int runtime_tid = log.num_ranks;  // synthetic lane for fences

  std::string line;
  line.reserve(256);

  // Process / runtime-lane names so Perfetto labels the run.
  line = "{\"name\":\"process_name\",\"ph\":\"M\",";
  append_kv(line, "pid", pid);
  line += ",\"args\":{";
  append_kv(line, "name",
            opt.run_label.empty() ? std::string("traced run")
                                  : opt.run_label);
  line += "}}";
  emit(line);
  line = "{\"name\":\"thread_name\",\"ph\":\"M\",";
  append_kv(line, "pid", pid);
  line += ",";
  append_kv(line, "tid", runtime_tid);
  line += ",\"args\":{\"name\":\"runtime (fences)\"}}";
  emit(line);

  std::uint64_t seq = 0;  // an event's seq is its index in the log
  for (const Event& e : log.events) {
    const bool fence = e.kind == EventKind::kFence;
    // clear()+append instead of assignment: GCC 12's -Wrestrict misfires
    // on short const-char* assignments to a loop-carried string.
    line.clear();
    line += "{";
    append_kv(line, "name", std::string(event_kind_name(e.kind)));
    // Instant events, thread-scoped for rank events and process-scoped for
    // fences (Chrome requires a scope for ph:"i").
    line += fence ? ",\"ph\":\"i\",\"s\":\"p\"," : ",\"ph\":\"i\",\"s\":\"t\",";
    append_kv(line, "pid", pid);
    line += ",";
    append_kv(line, "tid", fence ? runtime_tid : static_cast<int>(e.rank));
    line += ",";
    append_kv(line, "ts", e.t_model * 1e6);  // Chrome ts is microseconds
    line += ",\"args\":{";
    append_kv(line, "epoch", static_cast<std::uint64_t>(e.epoch));
    line += ",";
    append_kv(line, "seq", seq++);
    switch (e.kind) {
      case EventKind::kPut:
        line += ",";
        append_kv(line, "dest", static_cast<int>(e.peer));
        line += ",";
        append_kv(line, "tag", static_cast<int>(e.tag));
        line += ",";
        append_kv(line, "payload_doubles", e.a0);
        line += ",";
        append_kv(line, "bytes", e.a1);
        break;
      case EventKind::kFence:
        line += ",";
        append_kv(line, "epoch_seconds", e.a0);
        line += ",";
        append_kv(line, "epoch_msgs", e.a1);
        break;
      case EventKind::kRelax:
        line += ",";
        append_kv(line, "rows", e.a0);
        line += ",";
        append_kv(line, "new_norm2", e.a1);
        break;
      case EventKind::kAbsorb:
        line += ",";
        append_kv(line, "msgs", e.a0);
        line += ",";
        append_kv(line, "payload_doubles", e.a1);
        break;
      case EventKind::kCompute:
        line += ",";
        append_kv(line, "flops", e.a0);
        break;
      case EventKind::kFault:
        line += ",";
        append_kv(line, "dest", static_cast<int>(e.peer));
        line += ",";
        append_kv(line, "action", static_cast<int>(e.tag));
        line += ",";
        append_kv(line, "msg_seq", e.a0);
        line += ",";
        append_kv(line, "detail", e.a1);
        break;
      case EventKind::kDeliver:
        line += ",";
        append_kv(line, "src", static_cast<int>(e.peer));
        line += ",";
        append_kv(line, "tag", static_cast<int>(e.tag));
        line += ",";
        append_kv(line, "staleness", e.a0);
        line += ",";
        append_kv(line, "payload_doubles", e.a1);
        break;
      case EventKind::kHop:
        line += ",";
        append_kv(line, "dest", static_cast<int>(e.peer));
        line += ",";
        append_kv(line, "hop", static_cast<int>(e.tag));
        line += ",";
        append_kv(line, "bytes", e.a0);
        line += ",";
        append_kv(line, "records", e.a1);
        break;
      case EventKind::kElastic:
        line += ",";
        append_kv(line, "action", static_cast<int>(e.tag));
        line += ",";
        append_kv(line, "detail0", e.a0);
        line += ",";
        append_kv(line, "detail1", e.a1);
        break;
    }
    line += "}}";
    emit(line);

    // A counter track of per-epoch message volume — the ⟨m⟩ decay the
    // paper's argument is about, visible directly in Perfetto.
    if (fence) {
      line = "{\"name\":\"epoch messages\",\"ph\":\"C\",";
      append_kv(line, "pid", pid);
      line += ",";
      append_kv(line, "ts", e.t_model * 1e6);
      line += ",\"args\":{";
      append_kv(line, "msgs", e.a1);
      line += "}}";
      emit(line);
    }
  }

  // Final metric totals as one summary event at the end of the run.
  const MetricsRegistry& m = log.metrics;
  if (m.size() > 0) {
    const double ts_end =
        log.events.empty() ? 0.0 : log.events.back().t_model * 1e6;
    line = "{\"name\":\"metrics\",\"ph\":\"i\",\"s\":\"p\",";
    append_kv(line, "pid", pid);
    line += ",";
    append_kv(line, "tid", runtime_tid);
    line += ",";
    append_kv(line, "ts", ts_end);
    line += ",\"args\":{";
    for (std::size_t i = 0; i < m.size(); ++i) {
      const auto id = static_cast<MetricId>(i);
      if (i) line += ",";
      line += "\"";
      line += json_escape(m.name(id));
      line += "\":";
      append_json_number(line, m.total(id));
    }
    line += "}}";
    emit(line);
  }
}

void ChromeTraceWriter::finish() {
  DSOUTH_CHECK(!finished_);
  *out_ << "\n]}\n";
  finished_ = true;
}

void write_chrome_trace(std::ostream& out, const TraceLog& log,
                        const TraceExportOptions& opt) {
  ChromeTraceWriter writer(out);
  writer.add_run(log, opt);
  writer.finish();
}

}  // namespace dsouth::trace
