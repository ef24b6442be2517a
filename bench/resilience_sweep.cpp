/// Resilience sweep (docs/resilience.md): drop-rate × solver grid under
/// deterministic fault injection (src/faults) with solver-side recovery
/// enabled. For each matrix and each message drop probability, runs all
/// four distributed solvers for 50 parallel steps with sequence-numbered
/// envelopes, duplicate/stale rejection and periodic full-state refresh,
/// plus the observer-side divergence watchdog — and reports the final
/// residual, the injected-fault totals (from CommStats) and the recovery
/// totals (from the solver's resilient receive path).
///
/// Everything reported except wall clock is deterministic: fault draws are
/// stateless hashes of (seed, epoch, src, dst, seq), so the whole grid is
/// bit-identical across execution backends. The `-json` record feeds the
/// CI fault-matrix gate (tools/bench_compare.py vs the committed
/// BENCH_resilience.json baseline).

#include <iostream>
#include <sstream>

#include "support/bench_support.hpp"

namespace dsouth::bench {
namespace {

std::vector<double> parse_rates(const util::ArgParser& args) {
  const std::string spec = args.get_or("drop-rates", "0,0.01,0.05");
  std::vector<double> rates;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const double r = std::stod(item);
    DSOUTH_CHECK_MSG(r >= 0.0 && r <= 1.0,
                     "-drop-rates entries must be in [0, 1]");
    rates.push_back(r);
  }
  DSOUTH_CHECK_MSG(!rates.empty(), "-drop-rates must name at least one rate");
  return rates;
}

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto procs = static_cast<index_t>(args.get_int_or("procs", 16));
  const double size_factor = args.get_double_or("size_factor", 1.0);
  const auto rates = parse_rates(args);
  // Companion fault probabilities, applied at every nonzero grid point so
  // the sweep exercises the full recovery path (dedup, corrupt-reject,
  // refresh), not just loss.
  const double dup_prob = args.get_double_or("dup-prob", 0.005);
  const double corrupt_prob = args.get_double_or("corrupt-prob", 0.005);
  const double truncate_prob = args.get_double_or("truncate-prob", 0.002);
  const auto refresh =
      static_cast<index_t>(args.get_int_or("refresh", 8));
  const bool resilience = !args.has("no-resilience");
  // Stall × async coupling: `-stall-epochs K` (default 0 = off) freezes
  // `-stall-rank`'s outgoing traffic for K epochs starting at
  // `-stall-first`, at EVERY grid point. Under bulk-synchronous delivery
  // the held messages land together at the window-closing fence; under
  // `-async` they additionally ride the event-driven latency draws, so the
  // two delay sources compose — the docs/resilience.md stall-recovery
  // study (EXPERIMENTS.md records the grid).
  const int stall_rank = static_cast<int>(args.get_int_or("stall-rank", 1));
  const auto stall_first =
      static_cast<std::uint64_t>(args.get_int_or("stall-first", 10));
  const auto stall_epochs =
      static_cast<std::uint64_t>(args.get_int_or("stall-epochs", 0));
  const std::string stall_label =
      stall_epochs > 0 ? "r" + std::to_string(stall_rank) + "@" +
                             std::to_string(stall_first) + "+" +
                             std::to_string(stall_epochs)
                       : "-";
  std::vector<std::string> matrices;
  if (args.get("matrices")) {
    matrices = select_matrices(args);
  } else {
    matrices = {"ldoorp"};  // one proxy keeps the CI smoke run fast
  }
  TraceCapture capture(args);
  BenchRecorder record("resilience", args);
  auto base_opt = default_run_options();
  apply_backend_args(args, base_opt);
  capture.apply(base_opt);
  reject_unread_args(args);

  print_header(
      "Resilience sweep — solvers under deterministic fault injection",
      "docs/resilience.md robustness study (no paper artifact; the paper "
      "assumes a reliable fabric)",
      "drop-rate x solver grid, P=" + std::to_string(procs) +
          " simulated ranks, 50 parallel steps, sequence-numbered "
          "envelopes + refresh every " + std::to_string(refresh) +
          " steps" + (resilience ? "" : " (recovery DISABLED)"));

  util::Table table({"Matrix", "drop", "stall", "r:BJ", "r:MCBGS", "r:PS",
                     "r:DS", "dropped", "dup", "corrupt", "rej:c", "rej:s",
                     "refresh", "watchdog"});
  util::CsvWriter csv(csv_path("resilience_sweep.csv"),
                      {"matrix", "drop_rate", "stall", "method", "steps",
                       "final_residual", "msgs_dropped", "msgs_duplicated",
                       "msgs_corrupted", "rejected_corrupt", "rejected_stale",
                       "refreshes_sent", "watchdog_fired",
                       "watchdog_reason"});

  const dist::DistMethod methods[4] = {
      dist::DistMethod::kBlockJacobi, dist::DistMethod::kMulticolorBlockGs,
      dist::DistMethod::kParallelSouthwell,
      dist::DistMethod::kDistributedSouthwell};

  for (const auto& name : matrices) {
    auto problem = make_dist_problem(name, size_factor);
    auto part = partition_for(problem.a, procs);
    dist::DistLayout layout(problem.a, part);
    for (double rate : rates) {
      auto opt = base_opt;
      opt.resilience.enabled = resilience;
      opt.resilience.refresh_period = refresh;
      opt.watchdog.enabled = true;
      if (rate > 0.0) {
        opt.faults.defaults.drop_probability = rate;
        opt.faults.defaults.duplicate_probability = dup_prob;
        opt.faults.defaults.corrupt_probability = corrupt_prob;
        opt.faults.defaults.truncate_probability = truncate_prob;
      }
      if (stall_epochs > 0) {
        faults::Stall st;
        st.rank = stall_rank;
        st.first_epoch = stall_first;
        st.epochs = stall_epochs;
        opt.faults.stalls.push_back(st);
      }
      const std::string rate_label = util::format_double(rate, 3);
      table.row().cell(name).cell(rate_label).cell(stall_label);
      dist::FaultSummary grid_totals;  // summed over the four methods
      bool any_watchdog = false;
      std::string watchdog_note;
      for (auto m : methods) {
        auto r = dist::run_distributed(m, layout, problem.b, problem.x0, opt);
        const std::string label =
            name + " drop=" + rate_label +
            (stall_epochs > 0 ? " stall=" + stall_label : "") + " " +
            dist::method_abbrev(m);
        capture.add_run(label, r);
        record.add_run(label, name, r);
        table.cell(util::format_double(
            r.residual_norm.empty() ? 0.0 : r.residual_norm.back(), 4));
        dist::FaultSummary fs;
        if (r.fault_summary) fs = *r.fault_summary;
        grid_totals.msgs_dropped += fs.msgs_dropped;
        grid_totals.msgs_duplicated += fs.msgs_duplicated;
        grid_totals.msgs_corrupted += fs.msgs_corrupted;
        grid_totals.rejected_corrupt += fs.rejected_corrupt;
        grid_totals.rejected_stale += fs.rejected_stale;
        grid_totals.refreshes_sent += fs.refreshes_sent;
        if (r.watchdog.fired) {
          any_watchdog = true;
          if (!watchdog_note.empty()) watchdog_note += "; ";
          watchdog_note += std::string(dist::method_abbrev(m)) + ": " +
                           r.watchdog.reason;
        }
        csv.write_row(std::vector<std::string>{
            name, rate_label, stall_label, r.method,
            std::to_string(r.steps_taken()),
            util::format_double(
                r.residual_norm.empty() ? 0.0 : r.residual_norm.back(), 9),
            std::to_string(fs.msgs_dropped),
            std::to_string(fs.msgs_duplicated),
            std::to_string(fs.msgs_corrupted),
            std::to_string(fs.rejected_corrupt),
            std::to_string(fs.rejected_stale),
            std::to_string(fs.refreshes_sent),
            r.watchdog.fired ? "1" : "0", r.watchdog.reason});
      }
      table.cell(std::to_string(grid_totals.msgs_dropped))
          .cell(std::to_string(grid_totals.msgs_duplicated))
          .cell(std::to_string(grid_totals.msgs_corrupted))
          .cell(std::to_string(grid_totals.rejected_corrupt))
          .cell(std::to_string(grid_totals.rejected_stale))
          .cell(std::to_string(grid_totals.refreshes_sent))
          .cell(any_watchdog ? watchdog_note : "-");
      std::cerr << "  [" << name << " drop=" << rate_label << "] done\n";
    }
  }
  std::cout << "Final ||r||_2 after 50 parallel steps; fault/recovery "
               "columns are totals over the four methods at each grid "
               "point.\n\n";
  table.print(std::cout);
  std::cout << "\nCSV: " << csv.path() << "\n";
  return 0;
}

}  // namespace
}  // namespace dsouth::bench

int main(int argc, char** argv) { return dsouth::bench::run(argc, argv); }
