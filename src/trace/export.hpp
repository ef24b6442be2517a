#pragma once

/// \file export.hpp
/// Serializers for TraceLog: JSON Lines for scripting (jq/pandas) and
/// Chrome trace_event JSON for chrome://tracing / Perfetto. The schema is
/// documented in docs/observability.md.
///
/// Determinism: both formats are a pure function of the TraceLog, whose
/// fields are all deterministic, so two runs that are bit-identical in
/// simulation produce byte-identical files — the trace determinism tests
/// compare exporter output across execution backends directly.

#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace dsouth::trace {

struct TraceExportOptions {
  /// Free-form run label carried in the JSONL header line and used as the
  /// Chrome process name (e.g. "DS P=32 bone010p").
  std::string run_label;
};

/// JSON Lines: one header object (schema version kTraceVersion, rank
/// count, event count and the run label), one object per event (in log
/// order; an event's "seq" is its index), one object per metric. The
/// tracer keeps every event, so the file is the whole run. See
/// docs/observability.md for the field tables.
void write_jsonl(std::ostream& out, const TraceLog& log,
                 const TraceExportOptions& opt = {});

/// Incremental writer for Chrome trace_event JSON. Each add_run() becomes
/// one Chrome "process" (pid), with simulated ranks as threads (tid) and
/// the fence/runtime lane as tid = num_ranks; `ts` is modeled time in
/// microseconds. finish() closes the JSON document — the file is invalid
/// until then.
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& out);
  ~ChromeTraceWriter();  ///< calls finish() if the caller forgot

  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  void add_run(const TraceLog& log, const TraceExportOptions& opt = {});

  void finish();

 private:
  void emit(const std::string& json_object);

  std::ostream* out_;
  int next_pid_ = 0;
  bool any_event_ = false;
  bool finished_ = false;
};

/// One-run convenience wrapper around ChromeTraceWriter.
void write_chrome_trace(std::ostream& out, const TraceLog& log,
                        const TraceExportOptions& opt = {});

}  // namespace dsouth::trace
