/// \file dsouth_analyze.cpp
/// `dsouth-analyze`: the offline half of the observability stack. Reads a
/// JSON Lines trace capture (the `-trace foo.jsonl` output of any
/// distributed bench, possibly holding several runs) and emits, per run,
/// the four analyzer reports — per-rank timeline & load imbalance, P×P
/// communication matrix with hot-pair ranking, α–β–γ critical-path
/// attribution, and convergence diagnostics — as an ASCII report for
/// people and/or one JSON document (`<prefix>_<run>.json`) for programs.
///
/// Because the trace is deterministic (docs/observability.md), every
/// deterministic output of this tool is byte-identical no matter which
/// execution backend produced the capture. `-check` turns that promise
/// into an exit code: it fails unless the critical-path report reproduces
/// every fence's modeled seconds bit-exactly AND the comm-matrix totals and
/// the fault, deliver and hop event tallies equal the run's simmpi.*
/// counters (i.e. CommStats) exactly. Every trace carries every counter, so
/// every rule runs on every trace; each is evaluated — a failure is
/// reported and accumulated, never an early exit — so one pass lists
/// everything wrong with a capture.
///
/// Usage:
///   dsouth-analyze -trace runs.jsonl [-run SUBSTR] [-format ascii|json|all]
///                  [-out PREFIX] [-top K] [-check] [-list]
///                  [-alpha A] [-beta B] [-gamma G] [-sigma S] [-flop_time C]
///
/// The machine-model flags must match the traced run's model (the benches
/// all use the MachineModel defaults); `-check` is how you find out when
/// they do not.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/render.hpp"
#include "analysis/run_trace.hpp"
#include "simmpi/machine_model.hpp"
#include "simmpi/stats.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/cli.hpp"

namespace {

using dsouth::analysis::AnalyzeOptions;
using dsouth::analysis::RunAnalysis;
using dsouth::analysis::RunTrace;

/// Filesystem-friendly run label: [A-Za-z0-9._-] kept, runs of anything
/// else collapsed to one '_'.
std::string slug(const std::string& label) {
  std::string out;
  bool gap = false;
  for (char c : label) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '_';
    if (ok) {
      if (gap && !out.empty()) out += '_';
      gap = false;
      out += c;
    } else {
      gap = true;
    }
  }
  return out.empty() ? "run" : out;
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream os(path, std::ios::binary);
  DSOUTH_CHECK_MSG(os.good(), "cannot open '" << path << "' for writing");
  os << body;
  DSOUTH_CHECK_MSG(os.good(), "write to '" << path << "' failed");
  std::cerr << "wrote " << path << "\n";
}

/// The `-check` consistency gate for one run. Prints one line per check;
/// returns false if any fails.
bool run_checks(const RunTrace& run, const RunAnalysis& a) {
  bool ok = true;
  auto check = [&](bool cond, const std::string& what) {
    std::cout << (cond ? "CHECK ok:   " : "CHECK FAIL: ") << what << "\n";
    ok = ok && cond;
  };

  check(a.critical_path.model_matches,
        "critical path reproduces every fence's modeled seconds bit-exactly");

  // Every trace carries the full simmpi.* metric set (one schema), so
  // every rule below runs on every trace; a trace that lacks a metric
  // fails the presence rule after them.
  std::string missing;
  auto metric = [&](const char* name) {
    const auto* m = run.find_metric(name);
    if (m == nullptr) missing += std::string(" ") + name;
    return m;
  };
  // Compared as doubles (exact below 2^53): a metric value read from a
  // file may be negative or huge, and casting that to an integer type is
  // undefined behaviour.
  auto counter_total = [&](const char* name) {
    const auto* m = metric(name);
    return m ? m->total() : 0.0;
  };

  // Comm-matrix totals vs the run's end-of-run counters (CommStats' view).
  check(a.comm.total_msgs == counter_total("simmpi.msgs_sent"),
        "comm matrix total msgs == simmpi.msgs_sent");
  check(a.comm.total_bytes == counter_total("simmpi.bytes_sent"),
        "comm matrix total bytes == simmpi.bytes_sent");
  using dsouth::simmpi::MsgTag;
  check(a.comm.total_by_tag[static_cast<int>(MsgTag::kSolve)] ==
            counter_total("simmpi.msgs_solve"),
        "solve-tag msgs == simmpi.msgs_solve");
  check(a.comm.total_by_tag[static_cast<int>(MsgTag::kResidual)] ==
            counter_total("simmpi.msgs_residual"),
        "residual-tag msgs == simmpi.msgs_residual");
  check(a.comm.total_by_tag[static_cast<int>(MsgTag::kOther)] ==
            counter_total("simmpi.msgs_other"),
        "other-tag msgs == simmpi.msgs_other");
  // Wire-layer split: kPut events, the comm matrix and msgs_sent count
  // physical puts; logical records can only exceed them (batched tenant
  // frames carry several records per put).
  check(counter_total("simmpi.msgs_logical") >=
            counter_total("simmpi.msgs_sent"),
        "simmpi.msgs_logical >= simmpi.msgs_sent");

  // Fault-injection cross-checks: the runtime bumps one simmpi.faults_*
  // counter per fault event it records (faults_corrupted covers both the
  // corrupt and truncate actions, faults_killed the drops of traffic from
  // or to a dead rank; stalls have no counter), so the event
  // tallies must reproduce the metric totals exactly.
  using dsouth::analysis::FaultReport;
  const auto& f = a.faults;
  check(f.by_action[FaultReport::kDrop] ==
            counter_total("simmpi.faults_dropped"),
        "drop fault events == simmpi.faults_dropped");
  check(f.by_action[FaultReport::kDuplicate] ==
            counter_total("simmpi.faults_duplicated"),
        "duplicate fault events == simmpi.faults_duplicated");
  check(f.by_action[FaultReport::kReorder] ==
            counter_total("simmpi.faults_reordered"),
        "reorder fault events == simmpi.faults_reordered");
  check(f.by_action[FaultReport::kCorrupt] +
                f.by_action[FaultReport::kTruncate] ==
            counter_total("simmpi.faults_corrupted"),
        "corrupt+truncate fault events == simmpi.faults_corrupted");
  check(f.by_action[FaultReport::kDeadDrop] ==
            counter_total("simmpi.faults_killed"),
        "dead-endpoint drop events == simmpi.faults_killed");

  // Async-delivery cross-checks: under async delivery the runtime
  // records one deliver event per matured message and bumps the
  // simmpi.async_* metrics in the same place, so event tallies and metric
  // totals must agree exactly.
  check(a.async.delivered == counter_total("simmpi.async_delivered"),
        "deliver events == simmpi.async_delivered");
  check(a.async.staleness_sum == counter_total("simmpi.async_staleness_sum"),
        "deliver-event staleness sum == simmpi.async_staleness_sum");
  // async_staleness_max is a per-rank gauge: compare against the max slot,
  // not the sum.
  double metric_max = 0.0;
  if (const auto* m = metric("simmpi.async_staleness_max")) {
    for (double v : m->per_rank) metric_max = std::max(metric_max, v);
  }
  check(a.async.staleness_max == metric_max,
        "deliver-event staleness max == simmpi.async_staleness_max");

  // Node-aware routing cross-checks: the fence pre-pass records one hop
  // event per physical message and bumps the simmpi.node_* counters in the
  // same place, so the event tier sums must reproduce the metric totals
  // exactly, and the leader->leader hop count must equal the forward-frame
  // counter.
  const auto& n = a.node;
  check(n.msgs_intra == counter_total("simmpi.node_msgs_intra"),
        "intra-tier hop events == simmpi.node_msgs_intra");
  check(n.bytes_intra == counter_total("simmpi.node_bytes_intra"),
        "intra-tier hop bytes == simmpi.node_bytes_intra");
  check(n.msgs_inter == counter_total("simmpi.node_msgs_inter"),
        "inter-tier hop events == simmpi.node_msgs_inter");
  check(n.bytes_inter == counter_total("simmpi.node_bytes_inter"),
        "inter-tier hop bytes == simmpi.node_bytes_inter");
  check(n.hops_by_kind[dsouth::trace::kHopInterLeader] ==
            counter_total("simmpi.node_forward_frames"),
        "leader->leader hop events == simmpi.node_forward_frames");
  check(n.forwarded_records == counter_total("simmpi.node_forwarded_records"),
        "forwarded-record tally == simmpi.node_forwarded_records");
  check(missing.empty(),
        "trace carries every simmpi.* metric the rules read" +
            (missing.empty() ? std::string() : " (missing:" + missing + ")"));

  // Elastic recovery cross-checks: the elastic driver records elastic
  // events but no metrics (the final generation's CommStats were restored
  // from a checkpoint, so counters cannot corroborate events), so these
  // rules are internal to the event stream. Every recovery emits exactly
  // one restore, one repartition per dead rank, and one fresh checkpoint,
  // after the mandatory step-0 checkpoint — the stream must show that
  // shape. Kill-free traces carry no elastic events and skip the block.
  if (a.elastic.any()) {
    using dsouth::analysis::ElasticReport;
    const auto& el = a.elastic;
    check(el.by_action[ElasticReport::kCheckpoint] +
                  el.by_action[ElasticReport::kKill] +
                  el.by_action[ElasticReport::kRestore] +
                  el.by_action[ElasticReport::kRepartition] ==
              el.total,
          "every elastic event carries a known action code");
    check(el.by_action[ElasticReport::kCheckpoint] > 0,
          "elastic trace has at least one checkpoint event");
    check(el.checkpoint_bytes_min > 0,
          "every checkpoint event carries a positive byte count");
    check(el.by_action[ElasticReport::kRestore] <=
              el.by_action[ElasticReport::kKill],
          "restore events <= kill events (a restore needs a death)");
    check(el.by_action[ElasticReport::kRepartition] ==
              el.by_action[ElasticReport::kKill],
          "one repartition event per detected kill");
    check(el.restores_ordered,
          "every restore follows a checkpoint and a kill in stream order");
    check(el.by_action[ElasticReport::kKill] <
              static_cast<std::uint64_t>(run.num_ranks),
          "fewer kills than ranks (someone survived to recover)");
    bool ranks_ok = true;
    std::vector<char> seen(static_cast<std::size_t>(run.num_ranks), 0);
    for (int r : el.dead_ranks) {
      if (r < 0 || r >= run.num_ranks || seen[static_cast<std::size_t>(r)]) {
        ranks_ok = false;
        break;
      }
      seen[static_cast<std::size_t>(r)] = 1;
    }
    check(ranks_ok, "kill events name distinct in-range ranks");
  }
  return ok;
}

int run_main(int argc, char** argv) {
  dsouth::util::ArgParser args(argc, argv);

  if (args.has("help")) {
    std::cout
        << "usage: " << args.program() << " -trace FILE [options]\n"
        << "  -trace FILE    JSONL trace capture (required)\n"
        << "  -list          list run labels in the capture and exit\n"
        << "  -run SUBSTR    only analyze runs whose label contains SUBSTR\n"
        << "  -format F      ascii|json|all (default ascii)\n"
        << "  -out PREFIX    file prefix for json output\n"
        << "                 (default: trace path minus .jsonl)\n"
        << "  -top K         pairs the ASCII report lists (default 10)\n"
        << "  -check         verify model reconstruction + counter\n"
        << "                 consistency; nonzero exit on failure\n"
        << "                 (every rule runs; failures accumulate)\n"
        << "  -alpha/-beta/-gamma/-sigma/-flop_time  machine model\n"
        << "                 overrides (defaults match the benches)\n";
    return 0;
  }

  auto trace_path = args.get("trace");
  DSOUTH_CHECK_MSG(trace_path.has_value(),
                   "missing required -trace FILE (see -help)");

  const bool list_only = args.has("list");
  const std::string run_filter = args.get_or("run", "");
  const std::string format =
      args.get_choice_or("format", {"ascii", "json", "all"}, "ascii");
  const bool check = args.has("check");
  std::string out_prefix = args.get_or("out", "");
  if (out_prefix.empty()) {
    out_prefix = *trace_path;
    const std::string ext = ".jsonl";
    if (out_prefix.size() > ext.size() &&
        out_prefix.compare(out_prefix.size() - ext.size(), ext.size(), ext) ==
            0) {
      out_prefix.resize(out_prefix.size() - ext.size());
    }
  }

  AnalyzeOptions opt;
  opt.top_pairs = static_cast<int>(args.get_int_or("top", 10));
  opt.model.alpha = args.get_double_or("alpha", opt.model.alpha);
  opt.model.beta = args.get_double_or("beta", opt.model.beta);
  opt.model.gamma = args.get_double_or("gamma", opt.model.gamma);
  opt.model.sigma = args.get_double_or("sigma", opt.model.sigma);
  opt.model.flop_time = args.get_double_or("flop_time", opt.model.flop_time);

  auto unknown = args.unqueried();
  DSOUTH_CHECK_MSG(unknown.empty(), "unknown option -" << unknown.front()
                                                       << " (see -help)");

  std::vector<RunTrace> runs =
      dsouth::analysis::read_jsonl_file(*trace_path);
  DSOUTH_CHECK_MSG(!runs.empty(), "no runs found in '" << *trace_path << "'");

  if (list_only) {
    for (const auto& r : runs) {
      std::cout << r.label << "  (P=" << r.num_ranks << ", "
                << r.events.size() << " events)\n";
    }
    return 0;
  }

  bool all_ok = true;
  int analyzed = 0;
  for (const auto& run : runs) {
    if (!run_filter.empty() &&
        run.label.find(run_filter) == std::string::npos) {
      continue;
    }
    ++analyzed;
    RunAnalysis a = dsouth::analysis::analyze_run(run, opt);

    if (format == "ascii" || format == "all") {
      dsouth::analysis::render_ascii(std::cout, a, opt);
      std::cout << "\n";
    }
    if (format == "json" || format == "all") {
      write_file(out_prefix + "_" + slug(run.label) + ".json",
                 dsouth::analysis::to_json(a, opt));
    }
    if (check) {
      std::cout << "consistency checks for '" << run.label << "':\n";
      if (!run_checks(run, a)) all_ok = false;
      std::cout << "\n";
    }
  }

  DSOUTH_CHECK_MSG(analyzed > 0, "no run label contains '" << run_filter
                                                           << "'");
  if (check) {
    std::cout << (all_ok ? "all consistency checks passed"
                         : "CONSISTENCY CHECKS FAILED")
              << " (" << analyzed << " run" << (analyzed == 1 ? "" : "s")
              << ")\n";
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const dsouth::util::CheckError& e) {
    std::cerr << "dsouth-analyze: " << e.what() << "\n";
    return 2;
  }
}
