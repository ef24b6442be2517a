#pragma once

/// \file render.hpp
/// Output for the analyzer reports (analyze_run, analyzer.hpp) in two
/// forms: ASCII for people (util::Table + util/ascii_plot) and one JSON
/// document per run for programs. Both are pure functions of the reports,
/// so — reports being pure functions of the deterministic trace — their
/// bytes are identical across execution backends.

#include <iosfwd>
#include <string>

#include "analysis/analyzer.hpp"

namespace dsouth::analysis {

/// Human-readable report: per-rank timeline table, imbalance summary, hot
/// pairs + Table 3-style per-tag comm costs, per-term critical-path rollup,
/// and the residual-vs-modeled-time curve (log-y ascii plot). `-top K`
/// (AnalyzeOptions::top_pairs) shortens its pair lists.
void render_ascii(std::ostream& os, const RunAnalysis& a,
                  const AnalyzeOptions& opt = {});

/// The whole analysis as one JSON document (schema "dsouth.analysis",
/// version 4; see docs/observability.md). Its shape is fixed: every
/// section and key is present for every run (a value the run cannot have
/// is null), and every list is complete — top_pairs does not cut it.
std::string to_json(const RunAnalysis& a, const AnalyzeOptions& opt = {});

}  // namespace dsouth::analysis
