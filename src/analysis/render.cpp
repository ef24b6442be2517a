#include "analysis/render.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <ostream>
#include <sstream>

#include "util/ascii_plot.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace dsouth::analysis {

using util::append_json_number;
using util::format_double;
using util::json_quote;

// ---------------------------------------------------------------------------
// ASCII
// ---------------------------------------------------------------------------

namespace {

std::string seconds_str(double s) { return format_double(s * 1e3, 4); }

const char* tag_name(int tag) {
  switch (static_cast<simmpi::MsgTag>(tag)) {
    case simmpi::MsgTag::kSolve:
      return "solve";
    case simmpi::MsgTag::kResidual:
      return "residual";
    case simmpi::MsgTag::kOther:
      return "other";
  }
  return "?";
}

}  // namespace

void render_ascii(std::ostream& os, const RunAnalysis& a,
                  const AnalyzeOptions& opt) {
  os << "=== dsouth-analyze: " << (a.label.empty() ? "(unnamed run)" : a.label)
     << " ===\n";
  os << "Ranks: " << a.num_ranks << "   fenced epochs: "
     << a.timeline.steps.size() << "\n";

  // --- (a) timeline / load imbalance ---
  os << "\n--- Per-rank timeline (modeled ms) ---\n";
  util::Table tl({"Rank", "compute", "send", "wait", "relaxes", "rows",
                  "absorbs", "msgs_in", "msgs_out"});
  for (int r = 0; r < a.num_ranks; ++r) {
    const auto& rk = a.timeline.ranks[static_cast<std::size_t>(r)];
    tl.row().cell(static_cast<std::size_t>(r));
    tl.cell(seconds_str(rk.compute_seconds));
    tl.cell(seconds_str(rk.send_seconds));
    tl.cell(seconds_str(rk.wait_seconds));
    tl.cell(static_cast<std::size_t>(rk.relax_phases));
    tl.cell(static_cast<std::size_t>(rk.rows_relaxed));
    tl.cell(static_cast<std::size_t>(rk.absorb_phases));
    tl.cell(static_cast<std::size_t>(rk.absorbed_msgs));
    tl.cell(static_cast<std::size_t>(rk.msgs_sent));
  }
  tl.print(os);
  os << "Load imbalance (max busy / mean busy per epoch): max "
     << format_double(a.timeline.max_imbalance, 3) << ", mean "
     << format_double(a.timeline.mean_imbalance, 3) << " over "
     << a.timeline.steps.size() << " epochs; total modeled time "
     << format_double(a.timeline.total_model_seconds * 1e3, 4) << " ms\n";

  // --- (b) communication matrix ---
  os << "\n--- Communication (" << a.comm.total_msgs << " msgs, "
     << a.comm.total_bytes << " bytes) ---\n";
  os << "Comm cost (msgs/P): total "
     << format_double(a.comm.comm_cost(), 3);
  for (int t = 0; t < simmpi::kNumTags; ++t) {
    os << ", " << tag_name(t) << " "
       << format_double(
              a.comm.comm_cost(static_cast<simmpi::MsgTag>(t)), 3);
  }
  os << "\n";
  const auto top = static_cast<std::size_t>(std::max(0, opt.top_pairs));
  util::Table hot({"src", "dst", "msgs", "bytes"});
  for (std::size_t i = 0; i < a.comm.hot_pairs.size() && i < top; ++i) {
    const auto& pr = a.comm.hot_pairs[i];
    hot.row().cell(static_cast<std::size_t>(pr.src));
    hot.cell(static_cast<std::size_t>(pr.dst));
    hot.cell(static_cast<std::size_t>(pr.msgs));
    hot.cell(static_cast<std::size_t>(pr.bytes));
  }
  if (!a.comm.hot_pairs.empty()) {
    os << "Hottest " << std::min(top, a.comm.hot_pairs.size()) << " of "
       << a.comm.hot_pairs.size() << " communicating pairs:\n";
    hot.print(os);
  }

  // --- (e) injected faults (only for traces that carry fault events) ---
  if (a.faults.any()) {
    os << "\n--- Injected faults (" << a.faults.total << " events) ---\n";
    util::Table ft({"action", "count"});
    for (int t = 0; t < FaultReport::kNumActions; ++t) {
      const auto n = a.faults.by_action[static_cast<std::size_t>(t)];
      if (n == 0) continue;
      ft.row().cell(FaultReport::action_name(t));
      ft.cell(static_cast<std::size_t>(n));
    }
    ft.print(os);
    // Worst-hit source ranks (descending, ties to the lower rank).
    std::vector<int> worst(static_cast<std::size_t>(a.num_ranks));
    for (int r = 0; r < a.num_ranks; ++r) {
      worst[static_cast<std::size_t>(r)] = r;
    }
    std::sort(worst.begin(), worst.end(), [&](int x, int y) {
      const auto fx = a.faults.by_source[static_cast<std::size_t>(x)];
      const auto fy = a.faults.by_source[static_cast<std::size_t>(y)];
      if (fx != fy) return fx > fy;
      return x < y;
    });
    os << "Most-faulted source ranks:";
    const int fshow = std::min(a.num_ranks, 5);
    for (int i = 0; i < fshow; ++i) {
      const int r = worst[static_cast<std::size_t>(i)];
      const auto n = a.faults.by_source[static_cast<std::size_t>(r)];
      if (n == 0) break;
      os << " r" << r << "=" << n;
    }
    os << "\n";
  }

  // --- (f) async delivery (only for traces with deliver events) ---
  if (a.async.any()) {
    os << "\n--- Async delivery (" << a.async.delivered
       << " matured messages) ---\n";
    os << "Staleness (epochs from staging to delivery): mean "
       << format_double(a.async.mean_staleness(), 3) << ", max "
       << a.async.staleness_max << "\n";
    util::Table sh({"staleness", "deliveries"});
    for (std::size_t s = 0; s < a.async.staleness_histogram.size(); ++s) {
      sh.row().cell(s);
      sh.cell(static_cast<std::size_t>(a.async.staleness_histogram[s]));
    }
    sh.print(os);
  }

  // --- (g) node-aware routing (only for traces with hop events) ---
  if (a.node.any()) {
    os << "\n--- Node-aware routing (" << a.node.msgs_intra
       << " intra-node hops, " << a.node.msgs_inter
       << " inter-node hops) ---\n";
    os << "Tier bytes: intra " << a.node.bytes_intra << ", inter "
       << a.node.bytes_inter << "\n";
    util::Table nh({"hop", "count", "bytes"});
    for (int k = 0; k < NodeReport::kNumHopKinds; ++k) {
      const auto n = a.node.hops_by_kind[static_cast<std::size_t>(k)];
      if (n == 0) continue;
      nh.row().cell(NodeReport::hop_name(k));
      nh.cell(static_cast<std::size_t>(n));
      nh.cell(static_cast<std::size_t>(
          a.node.bytes_by_kind[static_cast<std::size_t>(k)]));
    }
    nh.print(os);
    const auto frames =
        a.node.hops_by_kind[static_cast<std::size_t>(trace::kHopInterLeader)];
    if (frames > 0) {
      os << "Leader forwarding: " << frames << " leader->leader messages "
         << "carried " << a.node.forwarded_records << " records\n";
      const auto ntop = static_cast<std::size_t>(std::max(0, opt.top_pairs));
      util::Table lp({"src leader", "dst leader", "frames", "records",
                      "bytes"});
      for (std::size_t i = 0;
           i < a.node.leader_pairs.size() && i < ntop; ++i) {
        const auto& pr = a.node.leader_pairs[i];
        lp.row().cell(static_cast<std::size_t>(pr.src));
        lp.cell(static_cast<std::size_t>(pr.dst));
        lp.cell(static_cast<std::size_t>(pr.frames));
        lp.cell(static_cast<std::size_t>(pr.records));
        lp.cell(static_cast<std::size_t>(pr.bytes));
      }
      lp.print(os);
    }
  }

  // --- (h) elastic recovery (only for traces with elastic events) ---
  if (a.elastic.any()) {
    os << "\n--- Elastic recovery (" << a.elastic.total << " events) ---\n";
    util::Table et({"action", "count"});
    for (int t = 0; t < ElasticReport::kNumActions; ++t) {
      const auto n = a.elastic.by_action[static_cast<std::size_t>(t)];
      if (n == 0) continue;
      et.row().cell(ElasticReport::action_name(t));
      et.cell(static_cast<std::size_t>(n));
    }
    et.print(os);
    os << "Checkpoints: last " << a.elastic.checkpoint_bytes_last
       << " bytes, max " << a.elastic.checkpoint_bytes_max << " bytes\n";
    if (!a.elastic.dead_ranks.empty()) {
      os << "Dead ranks (detection order):";
      for (int r : a.elastic.dead_ranks) os << " r" << r;
      os << "  (" << a.elastic.rows_moved << " rows redistributed)\n";
    }
  }

  // --- (c) critical path ---
  os << "\n--- Critical path (T_step = max_p(flops*c + msgs*a + bytes*b) + "
        "gamma*msgs/P + sigma"
     << (a.critical_path.tiered
             ? "; two-tier: inter hops at a/b, intra hops at a_intra/b_intra"
             : "")
     << ") ---\n";
  util::Table cp({"term", "seconds", "share", "epochs dominated"});
  const double tot = a.critical_path.total_recorded_seconds;
  for (int t = 0; t < kNumCostTerms; ++t) {
    const auto i = static_cast<std::size_t>(t);
    cp.row().cell(cost_term_name(static_cast<CostTerm>(t)));
    cp.cell(format_double(a.critical_path.total_seconds_by_term[i] * 1e3, 4) +
            " ms");
    cp.cell(tot > 0.0 ? format_double(
                            a.critical_path.total_seconds_by_term[i] / tot,
                            3)
                      : "0");
    cp.cell(static_cast<std::size_t>(a.critical_path.epochs_dominated[i]));
  }
  cp.print(os);
  os << "Model reconstruction: "
     << (a.critical_path.model_matches
             ? "every epoch matches the fence record bit-exactly"
             : "MISMATCH vs fence records (wrong machine model?)")
     << "\n";
  // Rank by critical-path epochs: who was the max-cost rank most often.
  std::vector<int> order(static_cast<std::size_t>(a.num_ranks));
  for (int r = 0; r < a.num_ranks; ++r) order[static_cast<std::size_t>(r)] = r;
  std::sort(order.begin(), order.end(), [&](int x, int y) {
    const auto sx =
        a.critical_path.straggler_epochs[static_cast<std::size_t>(x)];
    const auto sy =
        a.critical_path.straggler_epochs[static_cast<std::size_t>(y)];
    if (sx != sy) return sx > sy;
    return x < y;
  });
  os << "Straggler ranks (epochs on the critical path):";
  const int show = std::min(a.num_ranks, 5);
  for (int i = 0; i < show; ++i) {
    const int r = order[static_cast<std::size_t>(i)];
    const auto n =
        a.critical_path.straggler_epochs[static_cast<std::size_t>(r)];
    if (n == 0) break;
    os << " r" << r << "=" << n;
  }
  os << "\n";
  if (a.async.any()) {
    // Non-fence delivery context: how much of the path ran on data that
    // matured late (sent in an earlier epoch than it took effect).
    std::uint64_t late_epochs = 0;
    for (const auto& s : a.critical_path.steps) {
      if (s.async_delivered > 0 && s.async_staleness_max > 0) ++late_epochs;
    }
    os << "Async arrivals: " << late_epochs << " of "
       << a.critical_path.steps.size()
       << " epochs consumed data staged in an earlier epoch\n";
  }

  // --- (d) convergence ---
  os << "\n--- Convergence (trace-side residual estimate) ---\n";
  if (a.convergence.points.empty()) {
    os << "(no fenced epochs)\n";
    return;
  }
  os << "Stalled epochs (no relaxation anywhere): "
     << a.convergence.stalled_epochs << " of " << a.convergence.points.size();
  if (!a.convergence.stalls.empty()) {
    os << "  [";
    for (std::size_t i = 0; i < a.convergence.stalls.size(); ++i) {
      const auto& st = a.convergence.stalls[i];
      if (i) os << ", ";
      os << st.first_epoch << "-" << st.last_epoch;
    }
    os << "]";
  }
  os << "\n";
  if (a.convergence.ds_corrections_sent || a.convergence.ds_deferred_sends) {
    os << "Distributed Southwell counters: corrections_sent "
       << format_double(a.convergence.ds_corrections_sent.value_or(0.0), 0)
       << ", deferred_sends "
       << format_double(a.convergence.ds_deferred_sends.value_or(0.0), 0);
    if (a.convergence.max_deferral_rank) {
      os << " (max at rank " << *a.convergence.max_deferral_rank << ")";
    }
    os << "\n";
  }
  util::PlotSeries series;
  series.name = "||r|| est";
  for (const auto& pt : a.convergence.points) {
    if (pt.residual_estimate > 0.0 && pt.t_model > 0.0) {
      series.x.push_back(pt.t_model * 1e3);
      series.y.push_back(pt.residual_estimate);
    }
  }
  if (series.x.size() >= 2) {
    os << "Residual estimate vs modeled time (ms), log y:\n";
    util::PlotOptions popt;
    popt.height = 14;
    popt.log_y = true;
    popt.x_label = "model ms";
    popt.y_label = "sqrt(sum_p last ||r_p||^2)";
    util::render_plot(os, {series}, popt);
  } else {
    os << "(too few positive residual samples to plot)\n";
  }
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

namespace {

void kv(std::string& out, const char* key, double v, bool first = false) {
  if (!first) out += ',';
  out += json_quote(key);
  out += ':';
  append_json_number(out, v);
}

void kv_u(std::string& out, const char* key, std::uint64_t v,
          bool first = false) {
  if (!first) out += ',';
  out += json_quote(key);
  out += ':';
  out += std::to_string(v);
}

void kv_i(std::string& out, const char* key, std::int64_t v,
          bool first = false) {
  if (!first) out += ',';
  out += json_quote(key);
  out += ':';
  out += std::to_string(v);
}

void kv_s(std::string& out, const char* key, const std::string& v,
          bool first = false) {
  if (!first) out += ',';
  out += json_quote(key);
  out += ':';
  out += json_quote(v);
}

/// `"key":v`, or `"key":null` when the run has no such value.
template <typename T>
void kv_opt(std::string& out, const char* key, const std::optional<T>& v) {
  out += ',';
  out += json_quote(key);
  out += ':';
  if (v) {
    append_json_number(out, static_cast<double>(*v));
  } else {
    out += "null";
  }
}

/// Per-tag message-count keys, indexed by simmpi::MsgTag.
constexpr const char* kMsgsByTagKey[simmpi::kNumTags] = {
    "msgs_solve", "msgs_residual", "msgs_other"};

}  // namespace

std::string to_json(const RunAnalysis& a, const AnalyzeOptions& opt) {
  std::string out;
  out.reserve(1 << 14);
  out += "{";
  kv_s(out, "schema", "dsouth.analysis", /*first=*/true);
  kv_i(out, "schema_version", 4);
  kv_s(out, "run", a.label);
  kv_i(out, "num_ranks", a.num_ranks);

  // model parameters the attribution used
  out += ",\"machine_model\":{";
  kv(out, "alpha", opt.model.alpha, true);
  kv(out, "beta", opt.model.beta);
  kv(out, "flop_time", opt.model.flop_time);
  kv(out, "gamma", opt.model.gamma);
  kv(out, "sigma", opt.model.sigma);
  kv(out, "alpha_intra", opt.model.alpha_intra);
  kv(out, "beta_intra", opt.model.beta_intra);
  out += "}";

  // (a) timeline
  out += ",\"timeline\":{";
  kv(out, "total_model_seconds", a.timeline.total_model_seconds, true);
  kv(out, "max_imbalance", a.timeline.max_imbalance);
  kv(out, "mean_imbalance", a.timeline.mean_imbalance);
  kv_u(out, "epochs", a.timeline.steps.size());
  out += ",\"ranks\":[";
  for (int r = 0; r < a.num_ranks; ++r) {
    const auto& rk = a.timeline.ranks[static_cast<std::size_t>(r)];
    if (r) out += ',';
    out += '{';
    kv_i(out, "rank", r, true);
    kv(out, "compute_seconds", rk.compute_seconds);
    kv(out, "send_seconds", rk.send_seconds);
    kv(out, "wait_seconds", rk.wait_seconds);
    kv_u(out, "relax_phases", rk.relax_phases);
    kv_u(out, "rows_relaxed", rk.rows_relaxed);
    kv_u(out, "absorb_phases", rk.absorb_phases);
    kv_u(out, "absorbed_msgs", rk.absorbed_msgs);
    kv_u(out, "msgs_sent", rk.msgs_sent);
    out += '}';
  }
  out += "],\"steps\":[";
  for (std::size_t i = 0; i < a.timeline.steps.size(); ++i) {
    const auto& s = a.timeline.steps[i];
    if (i) out += ',';
    out += '{';
    kv_u(out, "epoch", s.epoch, true);
    kv(out, "epoch_seconds", s.epoch_seconds);
    kv(out, "max_cost", s.max_cost);
    kv(out, "mean_cost", s.mean_cost);
    kv(out, "imbalance", s.imbalance());
    kv_i(out, "straggler", s.straggler);
    out += '}';
  }
  out += "]}";

  // (b) comm matrix (sparse: nonzero entries only)
  out += ",\"comm_matrix\":{";
  kv_u(out, "total_msgs", a.comm.total_msgs, true);
  kv_u(out, "total_bytes", a.comm.total_bytes);
  kv(out, "comm_cost", a.comm.comm_cost());
  for (int t = 0; t < simmpi::kNumTags; ++t) {
    kv_u(out, kMsgsByTagKey[t],
         a.comm.total_by_tag[static_cast<std::size_t>(t)]);
  }
  out += ",\"pairs\":[";
  for (std::size_t i = 0; i < a.comm.hot_pairs.size(); ++i) {
    const auto& pr = a.comm.hot_pairs[i];
    if (i) out += ',';
    out += '{';
    kv_i(out, "src", pr.src, true);
    kv_i(out, "dst", pr.dst);
    kv_u(out, "msgs", pr.msgs);
    kv_u(out, "bytes", pr.bytes);
    for (int t = 0; t < simmpi::kNumTags; ++t) {
      kv_u(out, kMsgsByTagKey[t], pr.msgs_by_tag[static_cast<std::size_t>(t)]);
    }
    out += '}';
  }
  out += "]}";

  // (c) critical path
  out += ",\"critical_path\":{";
  kv(out, "total_recorded_seconds", a.critical_path.total_recorded_seconds,
     true);
  kv(out, "total_modeled_seconds", a.critical_path.total_modeled_seconds);
  out += ",\"model_matches\":";
  out += a.critical_path.model_matches ? "true" : "false";
  out += ",\"terms\":{";
  for (int t = 0; t < kNumCostTerms; ++t) {
    const auto i = static_cast<std::size_t>(t);
    if (t) out += ',';
    out += json_quote(cost_term_name(static_cast<CostTerm>(t)));
    out += ":{";
    kv(out, "seconds", a.critical_path.total_seconds_by_term[i], true);
    kv_u(out, "epochs_dominated", a.critical_path.epochs_dominated[i]);
    out += '}';
  }
  out += "},\"straggler_epochs\":[";
  for (int r = 0; r < a.num_ranks; ++r) {
    if (r) out += ',';
    out += std::to_string(
        a.critical_path.straggler_epochs[static_cast<std::size_t>(r)]);
  }
  out += "],\"steps\":[";
  for (std::size_t i = 0; i < a.critical_path.steps.size(); ++i) {
    const auto& s = a.critical_path.steps[i];
    if (i) out += ',';
    out += '{';
    kv_u(out, "epoch", s.epoch, true);
    kv_i(out, "straggler", s.straggler);
    for (int t = 0; t < kNumCostTerms; ++t) {
      kv(out, cost_term_name(static_cast<CostTerm>(t)),
         s.terms[static_cast<std::size_t>(t)]);
    }
    kv(out, "recorded_seconds", s.recorded_seconds);
    kv(out, "modeled_seconds", s.modeled_seconds);
    kv_s(out, "dominant", cost_term_name(s.dominant));
    kv_u(out, "async_delivered", s.async_delivered);
    kv_u(out, "async_staleness_max", s.async_staleness_max);
    out += '}';
  }
  out += "]}";

  // (d) convergence
  out += ",\"convergence\":{";
  kv_u(out, "stalled_epochs", a.convergence.stalled_epochs, true);
  kv_opt(out, "ds_corrections_sent", a.convergence.ds_corrections_sent);
  kv_opt(out, "ds_deferred_sends", a.convergence.ds_deferred_sends);
  kv_opt(out, "max_deferral_rank", a.convergence.max_deferral_rank);
  out += ",\"stalls\":[";
  for (std::size_t i = 0; i < a.convergence.stalls.size(); ++i) {
    const auto& st = a.convergence.stalls[i];
    if (i) out += ',';
    out += '{';
    kv_u(out, "first_epoch", st.first_epoch, true);
    kv_u(out, "last_epoch", st.last_epoch);
    out += '}';
  }
  out += "],\"points\":[";
  for (std::size_t i = 0; i < a.convergence.points.size(); ++i) {
    const auto& pt = a.convergence.points[i];
    if (i) out += ',';
    out += '{';
    kv_u(out, "epoch", pt.epoch, true);
    kv(out, "t_model", pt.t_model);
    kv(out, "residual_estimate", pt.residual_estimate);
    kv_i(out, "ranks_reporting", pt.ranks_reporting);
    kv_u(out, "relax_events", pt.relax_events);
    kv_u(out, "msgs", pt.msgs);
    out += '}';
  }
  out += "]}";

  // (e)-(h) feature sections: always present, all-zero when the run had
  // the feature off.
  out += ",\"faults\":{";
  kv_u(out, "total", a.faults.total, true);
  for (int t = 0; t < FaultReport::kNumActions; ++t) {
    kv_u(out, FaultReport::action_name(t),
         a.faults.by_action[static_cast<std::size_t>(t)]);
  }
  out += ",\"by_source\":[";
  for (int r = 0; r < a.num_ranks; ++r) {
    if (r) out += ',';
    out += std::to_string(a.faults.by_source[static_cast<std::size_t>(r)]);
  }
  out += "]}";

  out += ",\"async\":{";
  kv_u(out, "delivered", a.async.delivered, true);
  kv_u(out, "staleness_sum", a.async.staleness_sum);
  kv_u(out, "staleness_max", a.async.staleness_max);
  kv(out, "mean_staleness", a.async.mean_staleness());
  out += ",\"staleness_histogram\":[";
  for (std::size_t s = 0; s < a.async.staleness_histogram.size(); ++s) {
    if (s) out += ',';
    out += std::to_string(a.async.staleness_histogram[s]);
  }
  out += "],\"by_dest\":[";
  for (int r = 0; r < a.num_ranks; ++r) {
    if (r) out += ',';
    out += std::to_string(a.async.by_dest[static_cast<std::size_t>(r)]);
  }
  out += "]}";

  out += ",\"node\":{";
  kv_u(out, "msgs_intra", a.node.msgs_intra, true);
  kv_u(out, "bytes_intra", a.node.bytes_intra);
  kv_u(out, "msgs_inter", a.node.msgs_inter);
  kv_u(out, "bytes_inter", a.node.bytes_inter);
  kv_u(out, "forwarded_records", a.node.forwarded_records);
  out += ",\"hops\":{";
  for (int k = 0; k < NodeReport::kNumHopKinds; ++k) {
    const auto i = static_cast<std::size_t>(k);
    if (k) out += ',';
    out += json_quote(NodeReport::hop_name(k));
    out += ":{";
    kv_u(out, "count", a.node.hops_by_kind[i], true);
    kv_u(out, "bytes", a.node.bytes_by_kind[i]);
    out += '}';
  }
  out += "},\"leader_pairs\":[";
  for (std::size_t i = 0; i < a.node.leader_pairs.size(); ++i) {
    const auto& pr = a.node.leader_pairs[i];
    if (i) out += ',';
    out += '{';
    kv_i(out, "src", pr.src, true);
    kv_i(out, "dst", pr.dst);
    kv_u(out, "frames", pr.frames);
    kv_u(out, "records", pr.records);
    kv_u(out, "bytes", pr.bytes);
    out += '}';
  }
  out += "]}";

  out += ",\"elastic\":{";
  kv_u(out, "total", a.elastic.total, true);
  for (int t = 0; t < ElasticReport::kNumActions; ++t) {
    kv_u(out, ElasticReport::action_name(t),
         a.elastic.by_action[static_cast<std::size_t>(t)]);
  }
  kv_u(out, "checkpoint_bytes_last", a.elastic.checkpoint_bytes_last);
  kv_u(out, "checkpoint_bytes_max", a.elastic.checkpoint_bytes_max);
  kv_u(out, "rows_moved", a.elastic.rows_moved);
  out += ",\"dead_ranks\":[";
  for (std::size_t i = 0; i < a.elastic.dead_ranks.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(a.elastic.dead_ranks[i]);
  }
  out += "]}";
  out += '}';
  return out;
}

}  // namespace dsouth::analysis
