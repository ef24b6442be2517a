/// Async sweep (DESIGN.md §12): Distributed Southwell vs. the other three
/// solvers under event-driven (async) delivery, as asynchrony grows
/// along two axes — the per-message latency spread (uniform [0, L] epoch
/// draws) and the runtime-enforced staleness bound S. For each grid point
/// every solver runs relax-on-arrival for 50 parallel steps and the bench
/// reports the final residual, modeled seconds, epochs closed, and the
/// delivery/staleness totals from CommStats.
///
/// The L=0, S=0 column is the sanity anchor: every message matures at the
/// next fence, so the schedule timing is bulk-synchronous (the trajectory
/// still differs from the BSP step — async mode fuses each step into one
/// absorb→relax epoch). Everything reported except wall clock is
/// deterministic: latency draws are stateless hashes of (seed, epoch, src,
/// dst, seq), so the whole grid is bit-identical across execution
/// backends. The `-json` record feeds the CI async-matrix gate
/// (tools/bench_compare.py vs the committed BENCH_async.json baseline).

#include <iostream>
#include <sstream>

#include "support/bench_support.hpp"

namespace dsouth::bench {
namespace {

std::vector<int> parse_int_list(const util::ArgParser& args, const char* flag,
                                const std::string& fallback) {
  const std::string spec = args.get_or(flag, fallback);
  std::vector<int> vals;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const int v = std::stoi(item);
    DSOUTH_CHECK_MSG(v >= 0, "-" << flag << " entries must be >= 0");
    vals.push_back(v);
  }
  DSOUTH_CHECK_MSG(!vals.empty(),
                   "-" << flag << " must name at least one value");
  return vals;
}

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto procs = static_cast<index_t>(args.get_int_or("procs", 16));
  const double size_factor = args.get_double_or("size_factor", 0.1);
  // Latency axis: max extra epochs a message can draw (min stays 0 so the
  // spread, not just the mean, grows). Staleness axis: the runtime bound.
  const auto latencies = parse_int_list(args, "latencies", "0,2,4");
  const auto staleness = parse_int_list(args, "staleness-bounds", "0,2,6");
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_or("async-seed", 0xA51CLL));
  std::vector<std::string> matrices;
  if (args.get("matrices")) {
    matrices = select_matrices(args);
  } else {
    matrices = {"ldoorp"};  // one proxy keeps the CI smoke run fast
  }
  TraceCapture capture(args);
  BenchRecorder record("async_sweep", args);
  auto base_opt = default_run_options();
  apply_backend_args(args, base_opt);
  capture.apply(base_opt);
  reject_unread_args(args);

  print_header(
      "Async sweep — solvers under event-driven delivery",
      "DESIGN.md §12 asynchrony study (no paper artifact; the paper's §5 "
      "names asynchronous variants as future work)",
      "latency-spread x staleness-bound grid, P=" + std::to_string(procs) +
          " simulated ranks, 50 relax-on-arrival steps, seeded per-edge "
          "latency draws");

  util::Table table({"Matrix", "L", "S", "r:BJ", "r:MCBGS", "r:PS", "r:DS",
                     "it:DS", "t:DS(ms)", "deliv", "stale:max"});
  util::CsvWriter csv(csv_path("async_sweep.csv"),
                      {"matrix", "max_latency", "staleness_bound", "method",
                       "steps", "epochs", "final_residual", "modeled_time",
                       "async_delivered", "staleness_sum", "staleness_max"});

  const dist::DistMethod methods[4] = {
      dist::DistMethod::kBlockJacobi, dist::DistMethod::kMulticolorBlockGs,
      dist::DistMethod::kParallelSouthwell,
      dist::DistMethod::kDistributedSouthwell};

  for (const auto& name : matrices) {
    auto problem = make_dist_problem(name, size_factor);
    auto part = partition_for(problem.a, procs);
    dist::DistLayout layout(problem.a, part);
    for (int lat : latencies) {
      for (int stale : staleness) {
        auto opt = base_opt;
        opt.async = true;
        opt.async_seed = seed;
        opt.async_min_latency = 0;
        opt.async_max_latency = lat;
        opt.max_staleness = static_cast<std::uint64_t>(stale);
        opt.watchdog.enabled = true;
        table.row().cell(name).cell(std::to_string(lat)).cell(
            std::to_string(stale));
        dist::AsyncTotals grid_totals;  // summed/maxed over the methods
        std::string ds_steps, ds_time;
        for (auto m : methods) {
          auto r =
              dist::run_distributed(m, layout, problem.b, problem.x0, opt);
          const std::string label = name + " L=" + std::to_string(lat) +
                                    " S=" + std::to_string(stale) + " " +
                                    dist::method_abbrev(m);
          capture.add_run(label, r);
          record.add_run(label, name, r);
          table.cell(util::format_double(
              r.residual_norm.empty() ? 0.0 : r.residual_norm.back(), 4));
          dist::AsyncTotals at;
          if (r.async_totals) at = *r.async_totals;
          grid_totals.delivered += at.delivered;
          grid_totals.staleness_sum += at.staleness_sum;
          if (at.staleness_max > grid_totals.staleness_max) {
            grid_totals.staleness_max = at.staleness_max;
          }
          if (m == dist::DistMethod::kDistributedSouthwell) {
            ds_steps = std::to_string(r.steps_taken());
            ds_time = util::format_double(
                (r.model_time.empty() ? 0.0 : r.model_time.back()) * 1e3, 3);
          }
          csv.write_row(std::vector<std::string>{
              name, std::to_string(lat), std::to_string(stale), r.method,
              std::to_string(r.steps_taken()), std::to_string(at.epochs),
              util::format_double(
                  r.residual_norm.empty() ? 0.0 : r.residual_norm.back(), 9),
              util::format_double(
                  r.model_time.empty() ? 0.0 : r.model_time.back(), 9),
              std::to_string(at.delivered),
              std::to_string(at.staleness_sum),
              std::to_string(at.staleness_max)});
        }
        table.cell(ds_steps)
            .cell(ds_time)
            .cell(std::to_string(grid_totals.delivered))
            .cell(std::to_string(grid_totals.staleness_max));
        std::cerr << "  [" << name << " L=" << lat << " S=" << stale
                  << "] done\n";
      }
    }
  }
  std::cout << "Final ||r||_2 after 50 relax-on-arrival steps; delivery "
               "columns are totals over the four methods at each grid "
               "point.\n\n";
  table.print(std::cout);
  std::cout << "\nCSV: " << csv.path() << "\n";
  return 0;
}

}  // namespace
}  // namespace dsouth::bench

int main(int argc, char** argv) { return dsouth::bench::run(argc, argv); }
