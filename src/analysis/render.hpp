#pragma once

/// \file render.hpp
/// Output for the analyzer reports (analyze_run, analyzer.hpp), in the
/// three forms the repo's other artifacts use: ASCII (human, util::Table +
/// util/ascii_plot), CSV (one schema per report, same columns as the ASCII
/// tables), and JSON (one document for the whole analysis). All three are
/// pure functions of the reports, so — reports being pure functions of the
/// deterministic trace — renderer output is byte-identical across
/// execution backends.

#include <iosfwd>
#include <string>

#include "analysis/analyzer.hpp"

namespace dsouth::analysis {

/// Human-readable report: per-rank timeline table, imbalance summary, hot
/// pairs + Table 3-style per-tag comm costs, per-term critical-path rollup,
/// and the residual-vs-modeled-time curve (log-y ascii plot).
void render_ascii(std::ostream& os, const RunAnalysis& a,
                  const AnalyzeOptions& opt = {});

/// CSV bodies (header line + rows, '\n'-terminated).
std::string timeline_csv(const RunAnalysis& a);       ///< one row per rank
std::string steps_csv(const RunAnalysis& a);          ///< one row per epoch
std::string comm_matrix_csv(const RunAnalysis& a);    ///< nonzero (src,dst)
std::string critical_path_csv(const RunAnalysis& a);  ///< one row per epoch
std::string convergence_csv(const RunAnalysis& a);    ///< one row per epoch

/// The whole analysis as one JSON document (schema "dsouth.analysis",
/// version 3; see docs/observability.md). Its shape is fixed: every
/// section and key is present for every run.
std::string to_json(const RunAnalysis& a, const AnalyzeOptions& opt = {});

}  // namespace dsouth::analysis
