/// dsouth_suite — one benchmark run of one workload (README.md).
///
///   dsouth_suite -workload <name> -seed <s> -seconds <S> -cal-ref <ref_s>
///                -out <result.json> [-trace <spans.json>]
///
/// Without -trace: the end-to-end run. Tracing stays off. Set-up repeats at
/// least three times (median), then repetitions cycle through the seeded
/// instances, one solve and one observed solve each, for S seconds and at
/// least three repetitions (S = 0: one of everything). With -trace: the
/// per-layer run. One set-up, then passes for S seconds (at least one):
/// the first instance's entry-point solve, its systems through plain
/// run_distributed and again through the phase-table replay with spans
/// around every call, one observed solve, and the layer probes. Metrics are
/// medians over passes; the set-up's and first pass's spans go to the
/// -trace file.
///
/// Every timing is reported calibrated (raw × Calibrator::factor(),
/// timing.hpp); raw seconds are advisory. Every solve's outputs are
/// checked, and the exit code is 1 when any check failed.

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "analysis/render.hpp"
#include "analysis/run_trace.hpp"
#include "graph/graph.hpp"
#include "phase_replay.hpp"
#include "probes.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "workload.hpp"

namespace dsouth::suite {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> advisory;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value) {
    advisory.emplace_back(name, value);
  }
  /// One attempted operation and the checks it missed.
  void attempt(const std::vector<std::string>& misses) {
    ++attempted;
    if (misses.empty()) return;
    ++failed;
    failures.insert(failures.end(), misses.begin(), misses.end());
  }

  void write(const std::string& path, const Workload& w, std::uint64_t seed,
             bool traced) const {
    std::string out = "{\"schema\":\"dsouth.suite_result\",\"version\":1";
    out += ",\"workload\":" + util::json_quote(w.name);
    out += ",\"seed\":" + std::to_string(seed);
    out += std::string(",\"traced\":") + (traced ? "true" : "false");
    out += ",\"attempted\":" + std::to_string(attempted);
    out += ",\"failed\":" + std::to_string(failed);
    out += ",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      out += i ? "," : "";
      out += util::json_quote(failures[i]);
    }
    out += "],\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      out += i ? ",\n" : "\n";
      out += util::json_quote(metrics[i].name) + ":{\"value\":";
      util::append_json_number(out, metrics[i].value);
      out += ",\"unit\":" + util::json_quote(metrics[i].unit) + "}";
    }
    out += "},\"advisory\":{";
    for (std::size_t i = 0; i < advisory.size(); ++i) {
      out += i ? ",\n" : "\n";
      out += util::json_quote(advisory[i].first) + ":";
      util::append_json_number(out, advisory[i].second);
    }
    out += "}}\n";
    std::ofstream f(path);
    DSOUTH_CHECK_MSG(f.good(), "cannot write " << path);
    f << out;
    DSOUTH_CHECK_MSG(f.good(), "write failed: " << path);
  }
};

/// Mean over instances of each instance's fastest repetition: the value of
/// a solve or observe metric. Interference from other tenants of a shared
/// host only ever adds time, so an instance's minimum is its steadiest
/// estimate (README.md, Noise). `per[i]` holds instance i's repetitions.
double mean_of_minimums(const std::vector<std::vector<double>>& per) {
  double s = 0.0;
  for (const auto& v : per) s += *std::min_element(v.begin(), v.end());
  return s / static_cast<double>(per.size());
}

/// Report a solve or observe metric (calibrated) and return its value; the
/// raw value, the instance-mean of medians, and the spread of single
/// repetitions over their instance's minimum go to the advisory fields.
double timing_metric(Report& rep, const std::string& name, double factor,
                     const std::vector<std::vector<double>>& raw) {
  std::vector<double> rel;
  double medians = 0.0;
  for (const auto& v : raw) {
    const double m = *std::min_element(v.begin(), v.end());
    for (double x : v) rel.push_back(x / m);
    medians += median(v) / static_cast<double>(raw.size());
  }
  const double value = factor * mean_of_minimums(raw);
  rep.metric(name, value, "s");
  rep.note(name + ".raw", mean_of_minimums(raw));
  rep.note(name + ".median", factor * medians);
  rep.note(name + ".rep_q1", quantile(rel, 0.25));
  rep.note(name + ".rep_q3", quantile(rel, 0.75));
  rep.note(name + ".samples", static_cast<double>(rel.size()));
  return value;
}

/// One traced solve through the entry point plus the analysis pass.
struct Observed {
  SolveOutcome solve;
  std::size_t events = 0;
};
Observed observe(const Workload& w, const Inputs& in, const Instance& inst,
                 Spans* spans, int solve_id) {
  Observed o;
  {
    const Scope s(spans, "trace.solve", solve_id);
    o.solve = solve(w, in, inst, true);
  }
  o.events = o.solve.trace_log->events.size();
  analysis::RunTrace run;
  {
    const Scope s(spans, "analysis.from_trace");
    run = analysis::from_trace_log(*o.solve.trace_log, w.name);
  }
  const Scope s(spans, "analysis.analyze");
  analysis::AnalyzeOptions aopt;
  aopt.model = inst.opt.machine;
  const auto a = analysis::analyze_run(run, aopt);
  if (a.critical_path.steps.empty()) {
    o.solve.failures.push_back("analysis: empty critical path");
  }
  return o;
}

void check_repeat(const SolveOutcome& first, const SolveOutcome& again,
                  std::vector<std::string>& misses) {
  if (again.digest != first.digest) {
    misses.push_back("deterministic outputs differ between repetitions");
  }
}

void run_end_to_end(const Workload& w, std::uint64_t seed, double seconds,
                    Calibrator& cal, Report& rep) {
  const bool quick = seconds <= 0.0;
  // Set-up repeats from nothing at least three times and for two seconds;
  // the last one's inputs are kept.
  cal.run();
  std::unique_ptr<Inputs> in;
  std::vector<double> setup_raw;
  const double setup_until = now_s() + 2.0;
  while (setup_raw.size() < (quick ? 1u : 3u) ||
         (!quick && setup_raw.size() < 10 && now_s() < setup_until)) {
    in.reset();
    setup_raw.push_back(cal.time([&] { in = setup(w, seed, nullptr); }));
  }

  // Repetitions cycle through the instances, a solve and an observed solve
  // each. The first repetition fixes the outputs later ones must match.
  std::vector<SolveOutcome> first(w.instances);
  std::vector<std::vector<double>> solve_raw(w.instances),
      obs_raw(w.instances);
  const std::size_t min_reps = quick ? 1 : 3;
  const double until = now_s() + seconds;
  for (std::size_t r = 0; r < min_reps || now_s() < until; ++r) {
    for (std::size_t i = 0; i < w.instances; ++i) {
      const Instance& inst = in->instances[i];
      SolveOutcome out;
      solve_raw[i].push_back(
          cal.time([&] { out = solve(w, *in, inst, false); }));
      if (r == 0) first[i] = out;
      auto misses = out.failures;
      check_repeat(first[i], out, misses);
      rep.attempt(misses);

      Observed o;
      obs_raw[i].push_back(
          cal.time([&] { o = observe(w, *in, inst, nullptr, -1); }));
      misses = o.solve.failures;
      check_repeat(first[i], o.solve, misses);
      rep.attempt(misses);
    }
  }

  const auto n = static_cast<double>(w.instances);
  double model_s = 0.0, msgs = 0.0, steps = 0.0;
  for (const auto& one : first) {
    model_s += one.model_s / n;
    msgs += static_cast<double>(one.msgs) / n;
    steps += static_cast<double>(one.steps) / n;
  }
  const double f = cal.factor();
  rep.metric("setup_s", f * median(setup_raw), "s");
  rep.note("setup_s.raw", median(setup_raw));
  rep.note("setup_s.samples", static_cast<double>(setup_raw.size()));
  const double solve_s = timing_metric(rep, "solve_s", f, solve_raw);
  rep.metric("tenant_solves_per_s", static_cast<double>(w.tenants) / solve_s,
             "1/s");
  timing_metric(rep, "observe_s", f, obs_raw);
  rep.metric("model_s", model_s, "s");
  rep.metric("msgs_per_rank", msgs / static_cast<double>(w.procs),
             "msgs/rank");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  rep.note("steps", steps);
  rep.note("calibration.median_s", median(cal.samples()));
  rep.note("calibration.ref_s", cal.ref_s());
}

/// Span durations grouped by name.
std::map<std::string, std::vector<double>> durations(const Spans& spans) {
  std::map<std::string, std::vector<double>> out;
  for (const auto& s : spans.spans()) out[s.name].push_back(s.end - s.start);
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// One pass of the traced run over the first instance: the entry-point
/// solve, its systems through run_distributed and through the phase-table
/// replay, one observed solve, and the layer probes. Returns the pass's
/// per-layer metrics with raw (uncalibrated) times.
std::vector<Metric> traced_pass(const Workload& w, const Inputs& in,
                                Calibrator& cal, Report& rep, Spans& spans) {
  const Instance& inst = in.instances.front();
  int solve_id = 0;
  SolveOutcome entry;
  {
    const Scope s(&spans, "batch.run", solve_id++);
    entry = solve(w, in, inst, false);
  }
  rep.attempt(entry.failures);

  // The same systems one after another through run_distributed (no kills),
  // then through the phase-table replay, which must reproduce them.
  const auto opt = kill_free(inst.opt);
  const auto method = dist::DistMethod::kDistributedSouthwell;
  std::vector<dist::DistRunResult> refs;
  for (std::size_t t = 0; t < w.tenants; ++t) {
    const Scope s(&spans, "batch.solo_run", solve_id++);
    refs.push_back(dist::run_distributed(method, *in.layouts[t], in.b,
                                         inst.x0s[t], opt));
  }
  cal.run();
  std::vector<ReplayRun> replayed;
  for (std::size_t t = 0; t < w.tenants; ++t) {
    replayed.push_back(
        replay(*in.layouts[t], in.b, inst.x0s[t], opt, spans, solve_id++));
    const auto& r = replayed.back().result;
    std::vector<std::string> misses;
    const std::string diff = first_difference(r, refs[t]);
    if (!diff.empty()) {
      misses.push_back("replayed solve " + std::to_string(t) +
                       " differs from run_distributed in " + diff);
    }
    check_residual(*in.mats[t], r.final_x, r.residual_norm.back(), w.target,
                   !opt.async, "replayed solve " + std::to_string(t), misses);
    rep.attempt(misses);
  }
  cal.run();

  Observed obs;
  {
    const Scope s(&spans, "bench.observe");
    obs = observe(w, in, inst, &spans, solve_id++);
  }
  auto misses = obs.solve.failures;
  check_repeat(entry, obs.solve, misses);
  rep.attempt(misses);
  cal.run();

  SweepWork sweep;
  std::uint64_t wire_doubles = 0;
  std::uint64_t ckpt_bytes = 0;
  {
    const Scope s(&spans, "bench.probes");
    sweep = probe_gs_sweep(*in.layout, inst.x0s[0], 0.25, spans);
    wire_doubles = probe_wire(*in.layout, inst.x0s[0], 0.1, spans);
    probe_repartition(in.a, in.part, 3, spans);
    ckpt_bytes = probe_checkpoint(replayed.front().state, 3, spans);
  }
  cal.run();

  auto d = durations(spans);
  auto total = [&](const char* name) { return sum(d[name]); };
  auto med = [&](const char* name) { return median(d[name]); };

  // Counts from the replayed solves.
  std::uint64_t steps = 0, relaxed = 0, active = 0, msgs = 0, bytes = 0;
  std::uint64_t epochs = 0, delivered = 0, staleness = 0, dropped = 0;
  std::uint64_t refreshes = 0, rejected = 0;
  for (const auto& dr : replayed) {
    const auto& r = dr.result;
    steps += r.steps_taken();
    relaxed += static_cast<std::uint64_t>(r.relaxations.back());
    for (auto a : r.active_ranks) active += static_cast<std::uint64_t>(a);
    msgs += r.comm_totals.msgs;
    bytes += r.comm_totals.bytes;
    epochs += dr.epochs;
    if (r.async_totals) {
      delivered += r.async_totals->delivered;
      staleness += r.async_totals->staleness_sum;
    }
    if (r.fault_summary) dropped += r.fault_summary->msgs_dropped;
    refreshes += dr.resilience.refreshes_sent;
    rejected += dr.resilience.rejected_stale;
  }
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto dbl = [](std::uint64_t v) { return static_cast<double>(v); };

  // The self-time ledger of the replayed solves: every span below a
  // "dist.solve" root, by layer, plus the roots' own self time.
  const auto self = spans.self_times();
  std::map<std::string, double> layer_self;
  double unattributed = 0.0, spanned = 0.0;
  const auto& all = spans.spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    int root = static_cast<int>(i);
    while (all[static_cast<std::size_t>(root)].parent >= 0) {
      root = all[static_cast<std::size_t>(root)].parent;
    }
    if (std::string(all[static_cast<std::size_t>(root)].name) != "dist.solve") {
      continue;
    }
    if (root == static_cast<int>(i)) {
      unattributed += self[i];
      spanned += all[i].end - all[i].start;
    } else {
      const std::string name = all[i].name;
      layer_self[name.substr(0, name.find('.'))] += self[i];
    }
  }
  double ledger = unattributed;
  for (const auto& [layer, t] : layer_self) ledger += t;
  rep.attempt(std::abs(ledger - spanned) <= 1e-6 * spanned
                  ? std::vector<std::string>{}
                  : std::vector<std::string>{
                        "span ledger does not add up to the traced solve"});

  const double send_s = total("dist.send");
  const double solo_loop_s = total("batch.solo_run");
  const double run_s = total("batch.run");
  const double nnz_per_row = ratio(dbl(sweep.nnz), dbl(sweep.rows));
  const double sweep_ns_per_nnz =
      1e9 * med("kernels.gs_sweep") / dbl(sweep.nnz);
  const double relax_est_s =
      1e-9 * sweep_ns_per_nnz * dbl(relaxed) * nnz_per_row;
  const double analysis_s =
      total("analysis.from_trace") + total("analysis.analyze");
  std::vector<double> step_us = d["dist.step"];
  for (auto& v : step_us) v *= 1e6;

  std::vector<Metric> m;
  const auto metric = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };

  metric("graph.repartition_s", med("graph.repartition"), "s");
  metric("dist.harness_init_s", total("dist.harness_init"), "s");
  metric("dist.send_s", send_s, "s");
  metric("dist.absorb_s", total("dist.absorb"), "s");
  metric("dist.norm_s", total("dist.norm"), "s");
  metric("dist.send_ns_per_relaxed_row", 1e9 * ratio(send_s, dbl(relaxed)),
         "ns");
  metric("dist.absorb_ns_per_msg",
         1e9 * ratio(total("dist.absorb"), dbl(msgs)), "ns");
  metric("dist.step_us_p50", quantile(step_us, 0.5), "us");
  metric("dist.step_us_p99", quantile(step_us, 0.99), "us");
  metric("dist.unattributed_s", unattributed, "s");
  metric("dist.steps", dbl(steps), "count");
  metric("dist.relaxed_rows", dbl(relaxed), "count");
  metric("dist.active_fraction", ratio(dbl(active), dbl(steps) * w.procs),
         "ratio");
  metric("dist.refreshes_sent", dbl(refreshes), "count");
  metric("dist.rejected_stale", dbl(rejected), "count");
  metric("simmpi.fence_s", total("simmpi.fence"), "s");
  metric("simmpi.fence_ns_per_msg",
         1e9 * ratio(total("simmpi.fence"), dbl(msgs)), "ns");
  metric("simmpi.msgs", dbl(msgs), "count");
  metric("simmpi.bytes", dbl(bytes), "bytes");
  metric("simmpi.epochs", dbl(epochs), "count");
  metric("simmpi.async_delivered", dbl(delivered), "count");
  metric("simmpi.staleness_mean", ratio(dbl(staleness), dbl(delivered)),
         "epochs");
  metric("kernels.gs_sweep_ns_per_nnz", sweep_ns_per_nnz, "ns");
  metric("kernels.bytes_per_nnz_computed", sweep.bytes / dbl(sweep.nnz),
         "bytes");
  metric("kernels.flops_per_byte_computed", sweep.flops / sweep.bytes,
         "flop/byte");
  metric("kernels.relax_est_s", relax_est_s, "s");
  metric("kernels.relax_share", ratio(relax_est_s, send_s), "ratio");
  metric("wire.encode_ns_per_double",
         1e9 * med("wire.encode") / dbl(wire_doubles), "ns");
  metric("wire.decode_ns_per_double",
         1e9 * med("wire.decode") / dbl(wire_doubles), "ns");
  metric("faults.dropped", dbl(dropped), "count");
  metric("elastic.recoveries", dbl(entry.recoveries), "count");
  metric("elastic.checkpoints", dbl(entry.checkpoints), "count");
  metric("elastic.checkpoint_bytes", dbl(ckpt_bytes), "bytes");
  metric("elastic.rows_moved", dbl(entry.rows_moved), "count");
  metric("elastic.useful_step_ratio",
         ratio(static_cast<double>(entry.steps), dbl(entry.executed_steps)),
         "ratio");
  metric("elastic.ckpt_encode_s", med("elastic.ckpt_encode"), "s");
  metric("elastic.ckpt_decode_s", med("elastic.ckpt_decode"), "s");
  metric("trace.solve_s", total("trace.solve"), "s");
  metric("trace.overhead_ratio", ratio(total("trace.solve"), run_s), "ratio");
  metric("trace.events", dbl(obs.events), "count");
  metric("analysis.from_trace_s", total("analysis.from_trace"), "s");
  metric("analysis.analyze_s", total("analysis.analyze"), "s");
  metric("analysis.ns_per_event", 1e9 * ratio(analysis_s, dbl(obs.events)),
         "ns");
  metric("batch.run_s", run_s, "s");
  metric("batch.solo_loop_s", solo_loop_s, "s");
  metric("batch.host_ratio", ratio(run_s, solo_loop_s), "ratio");
  metric("batch.frame_sharing",
         ratio(dbl(entry.msgs), dbl(entry.msgs_logical)), "ratio");
  metric("bench.spanned_solve_s", spanned, "s");
  metric("bench.span_overhead_ratio", ratio(spanned, solo_loop_s), "ratio");
  return m;
}

void run_traced(const Workload& w, std::uint64_t seed, double seconds,
                Calibrator& cal, Report& rep, Spans& spans) {
  cal.run();
  std::unique_ptr<Inputs> in;
  {
    const Scope s(&spans, "bench.setup");
    in = setup(w, seed, &spans);
  }
  auto setup_d = durations(spans);
  const auto quality = graph::evaluate_partition(
      graph::Graph::from_matrix_structure(in->a), in->part);

  // Passes repeat for `seconds`, at least once; the trace file keeps the
  // set-up and the first pass.
  std::vector<std::vector<Metric>> passes;
  const double until = now_s() + seconds;
  do {
    Spans later;
    passes.push_back(
        traced_pass(w, *in, cal, rep, passes.empty() ? spans : later));
  } while (now_s() < until);

  // Each pass metric is its median over the passes, and every time is
  // calibrated by the run-wide factor.
  const double f = cal.factor();
  rep.metric("sparse.make_proxy_s", f * sum(setup_d["sparse.make_proxy"]),
             "s");
  rep.metric("graph.partition_s", f * sum(setup_d["graph.partition"]), "s");
  rep.metric("graph.edge_cut", static_cast<double>(quality.edge_cut),
             "count");
  rep.metric("graph.imbalance", quality.imbalance, "ratio");
  rep.metric("dist.layout_s", f * sum(setup_d["dist.layout"]), "s");
  for (std::size_t k = 0; k < passes.front().size(); ++k) {
    const Metric& m = passes.front()[k];
    std::vector<double> v;
    for (const auto& p : passes) v.push_back(p[k].value);
    const bool time = m.unit == "s" || m.unit == "ns" || m.unit == "us";
    rep.metric(m.name, (time ? f : 1.0) * median(v), m.unit);
  }
  rep.note("calibration.factor", f);
  rep.note("passes", static_cast<double>(passes.size()));
  rep.note("spans", static_cast<double>(spans.spans().size()));
}

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto workload = args.get("workload");
  const auto out_path = args.get("out");
  DSOUTH_CHECK_MSG(workload && out_path, "-workload and -out are required");
  const Workload& w = find_workload(*workload);
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  const double seconds = args.get_double_or("seconds", 10.0);
  const double ref_s = args.get_double_or("cal-ref", 0.0);
  const std::string trace_path = args.get_or("trace", "");
  const auto unknown = args.unqueried();
  DSOUTH_CHECK_MSG(unknown.empty(), "unknown argument -" << unknown.front());

  Calibrator cal(ref_s);
  Report rep;
  if (trace_path.empty()) {
    run_end_to_end(w, seed, seconds, cal, rep);
  } else {
    Spans spans;
    run_traced(w, seed, seconds, cal, rep, spans);
    spans.write_json(trace_path);
  }
  rep.write(*out_path, w, seed, !trace_path.empty());
  for (const auto& f : rep.failures) std::cerr << "CHECK FAILED: " << f << "\n";
  return rep.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dsouth::suite

int main(int argc, char** argv) {
  try {
    return dsouth::suite::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "dsouth_suite: " << e.what() << "\n";
    return 2;
  }
}
