/// Ablation bench for the design choices DESIGN.md calls out. Not a paper
/// artifact, but evidence for *why* Distributed Southwell is built the way
/// it is:
///   A. Parallel Southwell without explicit residual updates — the
///      deadlock-prone Ref. [18] scheme the paper says "deadlocks for all
///      our test problems" (§4.2). We measure how quickly it stalls.
///   B. Distributed Southwell without the Epoch-B deadlock-avoidance
///      corrections — the risk §2.4 describes.
///   C. Distributed Southwell without local ghost-layer estimation — Γ
///      refreshes only on message arrival.
///   D. Partitioner quality: recursive bisection + FM vs greedy growing vs
///      contiguous row blocks, and its effect on DS communication.

#include <iostream>
#include <span>
#include <sstream>

#include "graph/graph.hpp"
#include "graph/rcm.hpp"
#include "sparse/vec.hpp"
#include "support/bench_support.hpp"
#include "util/rng.hpp"

namespace dsouth::bench {
namespace {

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto procs = static_cast<index_t>(args.get_int_or("procs", 1024));
  const double size_factor = args.get_double_or("size_factor", 0.25);
  std::vector<std::string> matrices{"Serenap", "af_5_k101p", "msdoorp"};
  if (args.has("matrices")) matrices = select_matrices(args);
  TraceCapture capture(args);
  BenchRecorder record("ablation", args);
  auto base_opt = default_run_options();
  apply_backend_args(args, base_opt);
  reject_unread_args(args);

  print_header("Ablations — deadlock avoidance, local estimates, "
               "partitioner",
               "DESIGN.md design-choice evidence (no direct paper artifact)",
               "P=" + std::to_string(procs) + ", reduced-size proxies");

  // --- A/B/C: algorithm switches.
  util::Table alg({"Matrix", "Variant", "r after 50", "comm", "res comm",
                   "stalled at step"});
  util::CsvWriter csv(csv_path("ablation_design_choices.csv"),
                      {"matrix", "variant", "residual_after_50", "comm_cost",
                       "res_comm", "stall_step"});
  for (const auto& name : matrices) {
    auto problem = make_dist_problem(name, size_factor);
    auto part = partition_for(problem.a, procs);
    dist::DistLayout layout(problem.a, part);

    auto run_options = base_opt;
    capture.apply(run_options);

    struct Variant {
      std::string label;
      dist::DistMethod method;
      dist::DistRunOptions opt;
    };
    std::vector<Variant> variants;
    {
      Variant v{"PS (Alg. 2)", dist::DistMethod::kParallelSouthwell,
                run_options};
      variants.push_back(v);
      v.label = "PS w/o explicit res updates (Ref. 18)";
      v.opt.ps_explicit_residual_updates = false;
      variants.push_back(v);
      Variant d{"DS (Alg. 3)", dist::DistMethod::kDistributedSouthwell,
                run_options};
      variants.push_back(d);
      d.label = "DS w/o corrections";
      d.opt.ds.enable_corrections = false;
      variants.push_back(d);
      Variant e{"DS w/o local estimates",
                dist::DistMethod::kDistributedSouthwell,
                run_options};
      e.opt.ds.enable_local_estimates = false;
      variants.push_back(e);
    }
    for (const auto& v : variants) {
      auto r = dist::run_distributed(v.method, layout, problem.b, problem.x0,
                                     v.opt);
      capture.add_run(name + " " + v.label, r);
      record.add_run(name + " " + v.label, name, r);
      // Stall = the first step after which no rank ever relaxes again.
      std::string stall = "-";
      for (std::size_t k = 0; k < r.active_ranks.size(); ++k) {
        if (r.active_ranks[k] == 0) {
          bool forever = true;
          for (std::size_t j = k; j < r.active_ranks.size(); ++j) {
            if (r.active_ranks[j] > 0) forever = false;
          }
          if (forever) {
            stall = std::to_string(k + 1);
            break;
          }
        }
      }
      std::ostringstream res;
      res.setf(std::ios::scientific);
      res.precision(2);
      res << r.residual_norm.back();
      alg.row().cell(name).cell(v.label).cell(res.str());
      alg.cell(r.comm_cost.back(), 2).cell(r.res_comm.back(), 2).cell(stall);
      csv.write_row(std::vector<std::string>{
          name, v.label, util::format_double(r.residual_norm.back(), 9),
          util::format_double(r.comm_cost.back(), 6),
          util::format_double(r.res_comm.back(), 6), stall});
    }
    std::cerr << "  [" << name << "] algorithm variants done\n";
  }
  alg.print(std::cout);

  // --- D: partitioner quality vs DS communication.
  std::cout << "\nPartitioner ablation (Distributed Southwell, comm to "
               "reach ||r||=0.1):\n";
  util::Table part_table({"Matrix", "Partitioner", "edge cut", "imbalance",
                          "comm to 0.1", "steps to 0.1"});
  for (const auto& name : matrices) {
    auto problem = make_dist_problem(name, size_factor);
    // Random row permutation: generated meshes come in a banded natural
    // order where naive contiguous blocks form decent strips; real
    // matrices offer no such gift, so level the field.
    {
      util::Rng shuffle_rng(4096);
      std::vector<index_t> perm(static_cast<std::size_t>(problem.a.rows()));
      for (index_t i = 0; i < problem.a.rows(); ++i) {
        perm[static_cast<std::size_t>(i)] = i;
      }
      shuffle_rng.shuffle(std::span<index_t>(perm));
      problem.a = graph::permute_symmetric(problem.a, perm);
      // b is all zeros (permutation-invariant); permute x0 consistently.
      auto x_old = problem.x0;
      for (std::size_t k = 0; k < perm.size(); ++k) {
        problem.x0[k] = x_old[static_cast<std::size_t>(perm[k])];
      }
    }
    auto g = graph::Graph::from_matrix_structure(problem.a);
    struct P {
      std::string label;
      graph::Partition part;
    };
    std::vector<P> parts;
    parts.push_back({"bisection+FM",
                     graph::partition_recursive_bisection(g, procs)});
    parts.push_back({"greedy grow",
                     graph::partition_greedy_growing(g, procs)});
    parts.push_back({"contiguous blocks",
                     graph::partition_contiguous_blocks(problem.a.rows(),
                                                        procs)});
    for (auto& pp : parts) {
      auto q = graph::evaluate_partition(g, pp.part);
      const auto& opt = base_opt;
      auto r = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                     problem.a, pp.part, problem.b,
                                     problem.x0, opt);
      auto at = r.at_target(0.1);
      part_table.row().cell(name).cell(pp.label);
      part_table.cell(static_cast<std::size_t>(q.edge_cut));
      part_table.cell(q.imbalance, 2);
      part_table.cell(value_or_dagger(
          at ? std::optional<double>(at->comm_cost) : std::nullopt, 2));
      part_table.cell(value_or_dagger(
          at ? std::optional<double>(at->steps) : std::nullopt, 1));
    }
    std::cerr << "  [" << name << "] partitioner variants done\n";
  }
  part_table.print(std::cout);

  // --- E: the §5 / Ref. [8] extension — defer solve messages until the
  // accumulated boundary Δx is large relative to the local residual.
  // "known ||r||" is the residual the ranks believe (stale under
  // deferral); "true ||r||" is recomputed from the gathered iterate.
  std::cout << "\nSend-threshold extension (Distributed Southwell, 50 "
               "steps):\n";
  util::Table th_table({"Matrix", "threshold", "comm", "solve comm",
                        "known ||r||", "true ||r||"});
  for (const auto& name : matrices) {
    auto problem = make_dist_problem(name, size_factor);
    auto part = partition_for(problem.a, procs);
    dist::DistLayout layout(problem.a, part);
    std::vector<value_t> r(problem.b.size());
    for (double th : {0.0, 1.0, 2.0, 4.0}) {
      auto opt = base_opt;
      opt.ds.send_threshold = th;
      auto run = dist::run_distributed(
          dist::DistMethod::kDistributedSouthwell, layout, problem.b,
          problem.x0, opt);
      problem.a.residual(problem.b, run.final_x, r);
      const double true_r = sparse::norm2(r);
      std::ostringstream known, truth;
      known.setf(std::ios::scientific);
      known.precision(2);
      known << run.residual_norm.back();
      truth.setf(std::ios::scientific);
      truth.precision(2);
      truth << true_r;
      th_table.row().cell(name).cell(th, 1);
      th_table.cell(run.comm_cost.back(), 2);
      th_table.cell(run.solve_comm.back(), 2);
      th_table.cell(known.str()).cell(truth.str());
    }
    std::cerr << "  [" << name << "] threshold sweep done\n";
  }
  th_table.print(std::cout);

  // --- F: robustness under weakly-ordered delivery (fault-injection
  // reordering). Multi-epoch reordering can permanently desynchronize DS's
  // Γ̃ bookkeeping (livelock); Parallel Southwell's unconditional
  // re-advertising recovers only some of the time; the heartbeat
  // extension hardens DS.
  std::cout << "\nDelay robustness (30% of messages delayed by 1-3 "
               "epochs, 50 steps):\n";
  util::Table delay_table({"Matrix", "Variant", "r after 50", "comm"});
  for (const auto& name : matrices) {
    auto problem = make_dist_problem(name, size_factor);
    auto part = partition_for(problem.a, procs);
    dist::DistLayout layout(problem.a, part);
    struct V {
      std::string label;
      dist::DistMethod method;
      index_t heartbeat;
    };
    const V variants2[] = {
        {"PS under delays", dist::DistMethod::kParallelSouthwell, 0},
        {"DS under delays", dist::DistMethod::kDistributedSouthwell, 0},
        {"DS + heartbeat(10)", dist::DistMethod::kDistributedSouthwell, 10},
    };
    for (const auto& v : variants2) {
      auto opt = base_opt;
      opt.faults.defaults.reorder_probability = 0.3;
      opt.faults.max_reorder_epochs = 3;
      opt.ds.heartbeat_period = v.heartbeat;
      auto r = dist::run_distributed(v.method, layout, problem.b,
                                     problem.x0, opt);
      std::ostringstream res;
      res.setf(std::ios::scientific);
      res.precision(2);
      res << r.residual_norm.back();
      delay_table.row().cell(name).cell(v.label).cell(res.str());
      delay_table.cell(r.comm_cost.back(), 2);
    }
    std::cerr << "  [" << name << "] delay variants done\n";
  }
  delay_table.print(std::cout);
  std::cout << "\nCSV: " << csv.path() << "\n";
  return 0;
}

}  // namespace
}  // namespace dsouth::bench

int main(int argc, char** argv) { return dsouth::bench::run(argc, argv); }
