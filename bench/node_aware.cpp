/// Node-aware routing bench (DESIGN.md §13, docs/communication.md): all
/// four solvers on the same problem and partition, once with the two-level
/// topology as a pure tier classifier ("direct": every put pays its own
/// inter-node message) and once with leader routing on ("routed":
/// inter-node records fan in through the source node's leader, cross in
/// one leader->leader message per (node pair, tag), and fan out on the far
/// side). Solver trajectories are bit-identical across the two modes — the
/// topology only re-prices the simulated wire — so the interesting columns
/// are the inter-node message and byte counts, which routing must reduce
/// for every method (Table 2-style protocol, 50 parallel steps).
///
/// Everything reported except wall clock is deterministic: hop accounting
/// is a pure function of the staged traffic and the rank -> node map, so
/// the whole table is bit-identical across execution backends. The `-json`
/// record feeds the CI node-aware gate (tools/bench_compare.py vs the
/// committed BENCH_node_aware.json baseline); the mode is encoded in the
/// record's matrix field ("<matrix>/direct" vs "<matrix>/routed") so the
/// two configurations stay distinct keys.

#include <iostream>

#include "support/bench_support.hpp"

namespace dsouth::bench {
namespace {

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto procs = static_cast<index_t>(args.get_int_or("procs", 16));
  const double size_factor = args.get_double_or("size_factor", 0.1);
  std::vector<std::string> matrices;
  if (args.get("matrices")) {
    matrices = select_matrices(args);
  } else {
    matrices = {"ldoorp"};  // one proxy keeps the CI smoke run fast
  }
  TraceCapture capture(args);
  BenchRecorder record("node_aware", args);

  auto base_opt = default_run_options();
  apply_backend_args(args, base_opt);
  capture.apply(base_opt);
  // The sweep sets the topology itself; default to 4 nodes unless the
  // shared flags asked for a specific shape.
  if (base_opt.ranks_per_node == 0) {
    base_opt.ranks_per_node = static_cast<int>((procs + 3) / 4);
  }
  reject_unread_args(args);

  print_header(
      "Node-aware routing — leader fan-in/fan-out vs direct delivery",
      "DESIGN.md §13 hierarchical-communication study (no paper artifact; "
      "the paper's cost model is single-level)",
      "four solvers x {direct, routed}, P=" + std::to_string(procs) +
          " simulated ranks on a two-level topology, 50 parallel steps");

  util::Table table({"Matrix", "Method", "Mode", "inter msgs", "inter bytes",
                     "intra msgs", "frames", "records", "r_final"});
  util::CsvWriter csv(
      csv_path("node_aware.csv"),
      {"matrix", "method", "mode", "procs", "steps", "final_residual",
       "modeled_time", "msgs_intra", "bytes_intra", "msgs_inter",
       "bytes_inter", "forward_frames", "forwarded_records"});

  const dist::DistMethod methods[4] = {
      dist::DistMethod::kBlockJacobi, dist::DistMethod::kMulticolorBlockGs,
      dist::DistMethod::kParallelSouthwell,
      dist::DistMethod::kDistributedSouthwell};

  bool all_reduced = true;
  for (const auto& name : matrices) {
    auto problem = make_dist_problem(name, size_factor);
    auto part = partition_for(problem.a, procs);
    dist::DistLayout layout(problem.a, part);
    for (auto m : methods) {
      dist::NodeTotals totals[2];  // [0] = direct, [1] = routed
      for (int routed = 0; routed < 2; ++routed) {
        auto opt = base_opt;
        opt.node_route = routed != 0;
        const char* mode = routed ? "routed" : "direct";
        auto r = dist::run_distributed(m, layout, problem.b, problem.x0, opt);
        DSOUTH_CHECK_MSG(r.node_totals.has_value(),
                         "node_aware bench run came back without NodeTotals");
        totals[routed] = *r.node_totals;
        const auto& nt = totals[routed];
        const std::string label =
            name + " " + dist::method_abbrev(m) + " " + mode;
        capture.add_run(label, r);
        // Mode goes into the matrix config field so direct and routed
        // records compare against distinct baseline keys.
        record.add_run(label, name + "/" + mode, r);
        const double r_final =
            r.residual_norm.empty() ? 0.0 : r.residual_norm.back();
        table.row()
            .cell(name)
            .cell(r.method)
            .cell(mode)
            .cell(std::to_string(nt.msgs_inter))
            .cell(std::to_string(nt.bytes_inter))
            .cell(std::to_string(nt.msgs_intra))
            .cell(std::to_string(nt.forward_frames))
            .cell(std::to_string(nt.forwarded_records))
            .cell(util::format_double(r_final, 4));
        csv.write_row(std::vector<std::string>{
            name, r.method, mode, std::to_string(r.num_ranks),
            std::to_string(r.steps_taken()),
            util::format_double(r_final, 9),
            util::format_double(
                r.model_time.empty() ? 0.0 : r.model_time.back(), 9),
            std::to_string(nt.msgs_intra), std::to_string(nt.bytes_intra),
            std::to_string(nt.msgs_inter), std::to_string(nt.bytes_inter),
            std::to_string(nt.forward_frames),
            std::to_string(nt.forwarded_records)});
      }
      const bool reduced = totals[1].msgs_inter < totals[0].msgs_inter &&
                           totals[1].bytes_inter < totals[0].bytes_inter;
      if (!reduced) {
        all_reduced = false;
        std::cerr << "WARNING: routing did not reduce inter-node traffic for "
                  << name << " " << dist::method_abbrev(m) << "\n";
      }
    }
    std::cerr << "  [" << name << "] done\n";
  }

  std::cout << "Tier totals over 50 parallel steps; \"routed\" must beat "
               "\"direct\" on both inter-node columns (intra-node traffic "
               "grows by the relay hops instead).\n\n";
  table.print(std::cout);
  std::cout << "\nCSV: " << csv.path() << "\n";
  std::cout << (all_reduced
                    ? "Leader routing reduced inter-node msgs AND bytes for "
                      "every method.\n"
                    : "FAIL: some method saw no inter-node reduction.\n");
  return all_reduced ? 0 : 1;
}

}  // namespace
}  // namespace dsouth::bench

int main(int argc, char** argv) { return dsouth::bench::run(argc, argv); }
