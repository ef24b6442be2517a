/// Regenerates **Table 3** of the paper: the communication-cost breakdown
/// for Parallel Southwell vs Distributed Southwell into "solve comm"
/// (boundary updates after a subdomain relaxation) and "res comm"
/// (explicit residual-norm updates), measured at the ‖r‖₂ = 0.1 crossing
/// with 8192 simulated ranks. The paper's observation: explicit residual
/// updates dominate PS's traffic and are cut ~3-4× by DS's
/// only-when-necessary rule.

#include <iostream>

#include "support/bench_support.hpp"
#include "util/error.hpp"

namespace dsouth::bench {
namespace {

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto procs = static_cast<index_t>(args.get_int_or("procs", 8192));
  const double size_factor = args.get_double_or("size_factor", 1.0);
  const double target = args.get_double_or("target", 0.1);
  const auto matrices = select_matrices(args);
  TraceCapture capture(args);
  BenchRecorder record("table3", args);
  auto opt = default_run_options();
  apply_backend_args(args, opt);
  capture.apply(opt);
  reject_unread_args(args);

  print_header("Table 3 — communication breakdown (PS vs DS)",
               "paper Table 3",
               "same runs as Table 2; message categories tagged per put");

  // With -trace, re-derive the breakdown from the per-tag trace counters
  // and cross-check it against the CommStats the table is built from. The
  // trace drops nothing, so the match must be exact.
  std::size_t checked = 0, mismatched = 0;
  auto cross_check = [&](const dist::DistRunResult& r,
                         const std::string& label) {
    if (!r.trace_log) return;
    const auto& m = r.trace_log->metrics;
    const double pcount = static_cast<double>(r.num_ranks);
    const trace::MetricId solve_id = m.find("simmpi.msgs_solve");
    const trace::MetricId res_id = m.find("simmpi.msgs_residual");
    DSOUTH_CHECK(solve_id != trace::kInvalidMetric &&
                 res_id != trace::kInvalidMetric);
    ++checked;
    if (m.total(solve_id) / pcount != r.solve_comm.back() ||
        m.total(res_id) / pcount != r.res_comm.back()) {
      ++mismatched;
      std::cerr << "  [" << label << "] trace/CommStats MISMATCH: trace "
                << m.total(solve_id) / pcount << "/"
                << m.total(res_id) / pcount << " vs stats "
                << r.solve_comm.back() << "/" << r.res_comm.back() << "\n";
    }
  };

  util::Table table({"Matrix", "Solve:PS", "Solve:DS", "Res:PS", "Res:DS"});
  util::CsvWriter csv(csv_path("table3_comm_breakdown.csv"),
                      {"matrix", "method", "reached", "solve_comm",
                       "res_comm"});

  for (const auto& name : matrices) {
    auto problem = make_dist_problem(name, size_factor);
    auto part = partition_for(problem.a, procs);
    dist::DistLayout layout(problem.a, part);
    auto ps = dist::run_distributed(dist::DistMethod::kParallelSouthwell,
                                    layout, problem.b, problem.x0, opt);
    auto ds = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                    layout, problem.b, problem.x0, opt);
    capture.add_run(name + " PS", ps);
    capture.add_run(name + " DS", ds);
    record.add_run(name + " PS", name, ps);
    record.add_run(name + " DS", name, ds);
    cross_check(ps, name + " PS");
    cross_check(ds, name + " DS");
    auto ps_at = ps.at_target(target);
    auto ds_at = ds.at_target(target);
    table.row().cell(name);
    table.cell(value_or_dagger(
        ps_at ? std::optional<double>(ps_at->solve_comm) : std::nullopt, 3));
    table.cell(value_or_dagger(
        ds_at ? std::optional<double>(ds_at->solve_comm) : std::nullopt, 3));
    table.cell(value_or_dagger(
        ps_at ? std::optional<double>(ps_at->res_comm) : std::nullopt, 3));
    table.cell(value_or_dagger(
        ds_at ? std::optional<double>(ds_at->res_comm) : std::nullopt, 3));
    csv.write_row(std::vector<std::string>{
        name, "PS", ps_at ? "1" : "0",
        ps_at ? util::format_double(ps_at->solve_comm, 6) : "",
        ps_at ? util::format_double(ps_at->res_comm, 6) : ""});
    csv.write_row(std::vector<std::string>{
        name, "DS", ds_at ? "1" : "0",
        ds_at ? util::format_double(ds_at->solve_comm, 6) : "",
        ds_at ? util::format_double(ds_at->res_comm, 6) : ""});
    std::cerr << "  [" << name << "] done\n";
  }
  table.print(std::cout);
  if (checked > 0) {
    std::cout << "\nTrace cross-check: " << (checked - mismatched) << "/"
              << checked
              << " runs where the per-tag trace counters reproduce the "
                 "CommStats breakdown exactly\n";
  }
  std::cout << "\nCSV: " << csv.path() << "\n";
  return mismatched == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dsouth::bench

int main(int argc, char** argv) { return dsouth::bench::run(argc, argv); }
