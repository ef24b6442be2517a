/// Regenerates **Tables 2, 3 and 4 and Figure 7** of the paper from one set
/// of runs: Block Jacobi, Parallel Southwell and Distributed Southwell for
/// 50 parallel steps with 8192 (simulated) MPI processes on the 14-matrix
/// proxy suite, each matrix partitioned once.
///
/// * Table 2 — reducing ‖r‖₂ to 0.1: modeled wall-clock time,
///   communication cost (total messages / P), parallel steps,
///   relaxations/n and active processes, with linear interpolation on
///   log10(‖r‖₂) and the † marker for methods that fail within 50 steps,
///   exactly as the paper's caption specifies.
/// * Table 3 — PS vs DS communication at the same crossing, split into
///   "solve comm" (boundary updates after a subdomain relaxation) and
///   "res comm" (explicit residual-norm updates). The paper's observation:
///   explicit residual updates dominate PS's traffic and are cut ~3-4× by
///   DS's only-when-necessary rule.
/// * Table 4 — mean modeled time and communication cost per parallel step
///   over the 50 steps, the cost view relevant to multigrid smoothing and
///   preconditioning; the paper's ordering is BJ > PS > DS on both.
/// * Figure 7 — full residual traces against modeled time, communication
///   cost and parallel step for the four problems whose Block Jacobi
///   behavior differs: Geo_1438 and Hook_1498 (BJ reaches 0.1 then
///   diverges), bone010 (BJ never reaches 0.1) and af_5_k101 (BJ never
///   diverges). With `-matrices` it covers the selected matrices instead.
///
/// With `-trace`, every run's per-tag trace counters must reproduce the
/// CommStats breakdown Table 3 is built from; a mismatch exits 1.

#include <algorithm>
#include <initializer_list>
#include <iostream>
#include <sstream>

#include "support/bench_support.hpp"
#include "util/ascii_plot.hpp"
#include "util/error.hpp"

namespace dsouth::bench {
namespace {

const char* classify(const dist::DistRunResult& r, double target) {
  const bool reached = r.at_target(target).has_value();
  double max_after = 0.0;
  for (double v : r.residual_norm) max_after = std::max(max_after, v);
  const bool diverged = r.residual_norm.back() > 1.0 || max_after > 10.0;
  if (reached && diverged) return "reaches 0.1, later diverges";
  if (reached && r.residual_norm.back() > target) {
    return "reaches 0.1, later degrades above it";
  }
  if (reached) return "reaches 0.1, stays stable";
  if (diverged) return "diverges";
  return "does not reach 0.1 in 50 steps";
}

/// Re-derive the solve/res breakdown from a traced run's per-tag counters
/// and compare it with the CommStats. The trace drops nothing, so the
/// match must be exact.
bool trace_matches_stats(const dist::DistRunResult& r,
                         const std::string& label) {
  const auto& m = r.trace_log->metrics;
  const double pcount = static_cast<double>(r.num_ranks);
  const trace::MetricId solve_id = m.find("simmpi.msgs_solve");
  const trace::MetricId res_id = m.find("simmpi.msgs_residual");
  DSOUTH_CHECK(solve_id != trace::kInvalidMetric &&
               res_id != trace::kInvalidMetric);
  if (m.total(solve_id) / pcount == r.solve_comm.back() &&
      m.total(res_id) / pcount == r.res_comm.back()) {
    return true;
  }
  std::cerr << "  [" << label << "] trace/CommStats MISMATCH: trace "
            << m.total(solve_id) / pcount << "/" << m.total(res_id) / pcount
            << " vs stats " << r.solve_comm.back() << "/"
            << r.res_comm.back() << "\n";
  return false;
}

/// Figure 7's console view of one matrix: the residual every fifth step,
/// a plot against the parallel step and each method's classification.
void print_traces(const std::string& name,
                  const dist::DistRunResult* const (&results)[3]) {
  std::cout << "--- Figure 7: " << name << " ---\n";
  util::Table table({"Step", "r:BJ", "r:PS", "r:DS"});
  const std::size_t steps = results[0]->residual_norm.size();
  for (std::size_t k = 0; k < steps; k += 5) {
    table.row().cell(k);
    for (const auto* r : results) {
      std::ostringstream os;
      os.setf(std::ios::scientific);
      os.precision(2);
      os << (k < r->residual_norm.size() ? r->residual_norm[k]
                                         : r->residual_norm.back());
      table.cell(os.str());
    }
  }
  table.print(std::cout);
  std::vector<util::PlotSeries> plot{{"BJ", {}, {}}, {"PS", {}, {}},
                                     {"DS", {}, {}}};
  for (std::size_t m = 0; m < 3; ++m) {
    for (std::size_t k = 0; k < results[m]->residual_norm.size(); ++k) {
      plot[m].x.push_back(static_cast<double>(k));
      plot[m].y.push_back(results[m]->residual_norm[k]);
    }
  }
  util::PlotOptions popts;
  popts.height = 14;
  popts.x_label = "parallel step";
  popts.y_label = "||r||_2";
  util::render_plot(std::cout, plot, popts);
  for (const auto* r : results) {
    std::cout << "  " << r->method << ": " << classify(*r, 0.1) << "\n";
  }
  std::cout << "\n";
}

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto procs = static_cast<index_t>(args.get_int_or("procs", 8192));
  const double size_factor = args.get_double_or("size_factor", 1.0);
  const double target = args.get_double_or("target", 0.1);
  const auto matrices = select_matrices(args);
  const std::vector<std::string> fig7_matrices =
      args.has("matrices") ? matrices
                           : std::vector<std::string>{"Geo_1438p", "Hook_1498p",
                                                      "bone010p", "af_5_k101p"};
  TraceCapture capture(args);
  BenchRecorder record("table2", args);
  auto opt = default_run_options();
  apply_backend_args(args, opt);
  capture.apply(opt);
  reject_unread_args(args);

  print_header(
      "Tables 2-4 and Figure 7 — BJ, PS and DS over 50 parallel steps",
      "paper Tables 2, 3 and 4 and Figure 7",
      "14 SuiteSparse proxies (DESIGN.md §5), P=" + std::to_string(procs) +
          " simulated ranks, b=0, random x0 with ||r0||=1, local solve = "
          "1 GS sweep, 50 parallel steps");

  util::Table table2({"Matrix", "t:BJ", "t:PS", "t:DS", "comm:BJ", "comm:PS",
                      "comm:DS", "steps:BJ", "steps:PS", "steps:DS",
                      "rlx/n:BJ", "rlx/n:PS", "rlx/n:DS", "act:BJ", "act:PS",
                      "act:DS"});
  util::CsvWriter csv2(csv_path("table2_target_residual.csv"),
                       {"matrix", "method", "reached", "model_time",
                        "comm_cost", "steps", "relaxations_per_n",
                        "active_fraction"});
  util::Table table3({"Matrix", "Solve:PS", "Solve:DS", "Res:PS", "Res:DS"});
  util::CsvWriter csv3(csv_path("table3_comm_breakdown.csv"),
                       {"matrix", "method", "reached", "solve_comm",
                        "res_comm"});
  util::Table table4({"Matrix", "t/step:BJ", "t/step:PS", "t/step:DS",
                      "comm/step:BJ", "comm/step:PS", "comm/step:DS"});
  util::CsvWriter csv4(csv_path("table4_per_step.csv"),
                       {"matrix", "method", "mean_step_time",
                        "mean_step_comm", "mean_active_fraction"});
  util::CsvWriter csv7(csv_path("fig7_traces.csv"),
                       {"matrix", "method", "step", "model_time", "comm_cost",
                        "residual_norm"});
  std::size_t checked = 0, mismatched = 0;

  for (const auto& name : matrices) {
    auto problem = make_dist_problem(name, size_factor);
    auto runs = run_three_methods(problem, procs, opt);
    const dist::DistRunResult* const results[3] = {&runs.bj, &runs.ps,
                                                   &runs.ds};
    std::optional<dist::DistRunResult::AtTarget> at[3];
    for (int m = 0; m < 3; ++m) {
      const auto& r = *results[m];
      const std::string label = name + " " + r.method;
      capture.add_run(label, r);
      record.add_run(label, name, r);
      if (r.trace_log) {
        ++checked;
        if (!trace_matches_stats(r, label)) ++mismatched;
      }
      at[m] = r.at_target(target);
    }

    // One cell per listed method: the value at the crossing, or †.
    auto at_cells = [&](util::Table& table, std::initializer_list<int> methods,
                        auto getter) {
      for (int m : methods) {
        table.cell(value_or_dagger(
            at[m] ? std::optional<double>(getter(*at[m])) : std::nullopt, 3));
      }
    };
    table2.row().cell(name);
    at_cells(table2, {0, 1, 2},
             [](const auto& t) { return t.model_time * 1e3; });  // ms
    at_cells(table2, {0, 1, 2}, [](const auto& t) { return t.comm_cost; });
    at_cells(table2, {0, 1, 2}, [](const auto& t) { return t.steps; });
    at_cells(table2, {0, 1, 2},
             [](const auto& t) { return t.relaxations_per_n; });
    at_cells(table2, {0, 1, 2},
             [](const auto& t) { return t.active_fraction; });
    for (int m = 0; m < 3; ++m) {
      csv2.write_row(std::vector<std::string>{
          name, results[m]->method, at[m] ? "1" : "0",
          at[m] ? util::format_double(at[m]->model_time, 9) : "",
          at[m] ? util::format_double(at[m]->comm_cost, 6) : "",
          at[m] ? util::format_double(at[m]->steps, 6) : "",
          at[m] ? util::format_double(at[m]->relaxations_per_n, 6) : "",
          at[m] ? util::format_double(at[m]->active_fraction, 6) : ""});
    }

    // Table 3 compares PS (m = 1) with DS (m = 2).
    table3.row().cell(name);
    at_cells(table3, {1, 2}, [](const auto& t) { return t.solve_comm; });
    at_cells(table3, {1, 2}, [](const auto& t) { return t.res_comm; });
    for (int m : {1, 2}) {
      csv3.write_row(std::vector<std::string>{
          name, m == 1 ? "PS" : "DS", at[m] ? "1" : "0",
          at[m] ? util::format_double(at[m]->solve_comm, 6) : "",
          at[m] ? util::format_double(at[m]->res_comm, 6) : ""});
    }

    table4.row().cell(name);
    for (const auto* r : results) table4.cell(r->mean_step_time() * 1e3, 4);
    for (const auto* r : results) table4.cell(r->mean_step_comm(), 3);
    for (const auto* r : results) {
      csv4.write_row(std::vector<std::string>{
          name, r->method, util::format_double(r->mean_step_time(), 9),
          util::format_double(r->mean_step_comm(), 6),
          util::format_double(r->mean_active_fraction(), 6)});
    }

    if (std::find(fig7_matrices.begin(), fig7_matrices.end(), name) !=
        fig7_matrices.end()) {
      print_traces(name, results);
      for (const auto* r : results) {
        for (std::size_t k = 0; k < r->residual_norm.size(); ++k) {
          csv7.write_row(std::vector<std::string>{
              name, r->method, std::to_string(k),
              util::format_double(r->model_time[k], 9),
              util::format_double(r->comm_cost[k], 6),
              util::format_double(r->residual_norm[k], 9)});
        }
      }
    }
    std::cerr << "  [" << name << "] done\n";
  }

  std::cout << "--- Table 2: reducing ||r||_2 to " << target
            << " (model time in milliseconds; simulated machine, so shapes, "
               "not absolute values, are comparable to the paper) ---\n";
  table2.print(std::cout);
  std::cout << "\n--- Table 3: PS vs DS communication at ||r||_2 = "
            << target << ", solve vs explicit residual ---\n";
  table3.print(std::cout);
  std::cout << "\n--- Table 4: mean per-parallel-step cost over 50 steps "
               "(model milliseconds) ---\n";
  table4.print(std::cout);
  if (checked > 0) {
    std::cout << "\nTrace cross-check: " << (checked - mismatched) << "/"
              << checked
              << " runs where the per-tag trace counters reproduce the "
                 "CommStats breakdown exactly\n";
  }
  for (const auto* csv : {&csv2, &csv3, &csv4, &csv7}) {
    std::cout << "CSV: " << csv->path() << "\n";
  }
  return mismatched == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dsouth::bench

int main(int argc, char** argv) { return dsouth::bench::run(argc, argv); }
