/// Elastic recovery gate (docs/resilience.md "Permanent failure and
/// recovery"): kill k of P ranks mid-solve and require all four
/// distributed solvers to still converge. Each method runs under
/// elastic::run_elastic with periodic checkpoints; at the configured kill
/// epochs the fault schedule silences the victims permanently, the driver
/// detects the deaths, rolls back to the last checkpoint, redistributes
/// the dead ranks' rows over the survivors (graph::repartition_after_
/// failure) and resumes. The bench fails (nonzero exit) unless every
/// method's final residual reaches the Table-2 tolerance — that exit code,
/// plus the `-json` record gated against the committed BENCH_elastic.json
/// baseline, is the CI "Elastic gate".
///
/// Everything reported except wall clock is deterministic: kill epochs are
/// explicit (or seeded stateless draws), checkpoints are versioned byte
/// buffers, and repartitioning is incremental FM — so the whole table is
/// bit-identical across execution backends.
///
/// Quickstart: `elastic_recovery -kill-rank 3 -kill-epoch 12 -ckpt-every 4`
/// kills one rank; the default grid kills 2 of 16 (`-kill-ranks 3@12,11@24`).

#include <iostream>
#include <sstream>

#include "elastic/elastic.hpp"
#include "support/bench_support.hpp"

namespace dsouth::bench {
namespace {

std::vector<faults::RankKill> parse_kills(const util::ArgParser& args) {
  std::vector<faults::RankKill> kills;
  if (args.get("kill-rank")) {
    // Single-kill quickstart form.
    faults::RankKill k;
    k.rank = static_cast<int>(args.get_int_or("kill-rank", 3));
    k.epoch = static_cast<std::uint64_t>(args.get_int_or("kill-epoch", 12));
    kills.push_back(k);
    return kills;
  }
  // Grid form: comma list of rank@epoch pairs.
  const std::string spec = args.get_or("kill-ranks", "3@12,11@24");
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto at = item.find('@');
    DSOUTH_CHECK_MSG(at != std::string::npos && at > 0 &&
                         at + 1 < item.size(),
                     "-kill-ranks entries must look like RANK@EPOCH, got '"
                         << item << "'");
    faults::RankKill k;
    k.rank = std::stoi(item.substr(0, at));
    k.epoch = std::stoull(item.substr(at + 1));
    kills.push_back(k);
  }
  DSOUTH_CHECK_MSG(!kills.empty(), "-kill-ranks must name at least one kill");
  return kills;
}

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto procs = static_cast<index_t>(args.get_int_or("procs", 16));
  const double size_factor = args.get_double_or("size_factor", 1.0);
  const double target = args.get_double_or("target", 0.1);
  const auto ckpt_every =
      static_cast<index_t>(args.get_int_or("ckpt-every", 8));
  const auto kills = parse_kills(args);
  for (const auto& k : kills) {
    DSOUTH_CHECK_MSG(k.rank >= 0 && k.rank < procs,
                     "kill rank " << k.rank << " out of range for P="
                                  << procs);
  }
  DSOUTH_CHECK_MSG(static_cast<index_t>(kills.size()) < procs,
                   "cannot kill every rank — nothing would survive");
  std::vector<std::string> matrices;
  if (args.get("matrices")) {
    matrices = select_matrices(args);
  } else {
    matrices = {"ldoorp"};  // one proxy keeps the CI gate fast
  }
  TraceCapture capture(args);
  BenchRecorder record("elastic", args);
  auto base_opt = default_run_options();
  apply_backend_args(args, base_opt);
  capture.apply(base_opt);
  base_opt.faults.kills = kills;
  reject_unread_args(args);

  std::string kill_desc;
  for (const auto& k : kills) {
    if (!kill_desc.empty()) kill_desc += ", ";
    kill_desc.append("r").append(std::to_string(k.rank)).append("@").append(
        std::to_string(k.epoch));
  }
  print_header(
      "Elastic recovery — convergence after permanent rank failure",
      "docs/resilience.md recovery study (no paper artifact; the paper "
      "assumes a reliable fabric)",
      "kill " + std::to_string(kills.size()) + " of P=" +
          std::to_string(procs) + " ranks (" + kill_desc +
          "), checkpoint every " + std::to_string(ckpt_every) +
          " steps, 50 parallel steps, target ||r|| <= " +
          util::format_double(target, 3));

  util::Table table({"Matrix", "method", "final_r", "reached", "kills",
                     "ckpts", "ckpt_bytes", "rows_moved", "resumed@"});
  util::CsvWriter csv(csv_path("elastic_recovery.csv"),
                      {"matrix", "method", "steps", "final_residual",
                       "reached", "kills_detected", "checkpoints_taken",
                       "checkpoint_bytes", "rows_moved", "resumed_steps"});

  const dist::DistMethod methods[4] = {
      dist::DistMethod::kBlockJacobi, dist::DistMethod::kMulticolorBlockGs,
      dist::DistMethod::kParallelSouthwell,
      dist::DistMethod::kDistributedSouthwell};

  bool all_reached = true;
  for (const auto& name : matrices) {
    auto problem = make_dist_problem(name, size_factor);
    auto part = partition_for(problem.a, procs);
    for (auto m : methods) {
      elastic::RecoveryOptions rec;
      rec.checkpoint_every = ckpt_every;
      auto er = elastic::run_elastic(m, problem.a, part, problem.b,
                                     problem.x0, base_opt, rec);
      const auto& r = er.run;
      const double rn =
          r.residual_norm.empty() ? 0.0 : r.residual_norm.back();
      const bool reached = rn <= target;
      all_reached = all_reached && reached;

      std::uint64_t rows_moved = 0;
      std::string resumed;
      for (const auto& ev : er.recoveries) {
        rows_moved += static_cast<std::uint64_t>(ev.rows_moved);
        if (!resumed.empty()) resumed += ";";
        resumed += std::to_string(ev.resumed_step);
      }
      const std::string label = name + " kill" +
                                std::to_string(kills.size()) + " " +
                                dist::method_abbrev(m);
      capture.add_run(label, r);
      // Recovery extras ride in the deterministic block: the CI gate
      // (tools/bench_compare.py vs BENCH_elastic.json) pins not just the
      // final residual but the whole recovery shape.
      std::vector<std::pair<std::string, std::uint64_t>> extra = {
          {"recovery_reached", reached ? 1U : 0U},
          {"recovery_kills", er.recoveries.size()},
          {"recovery_checkpoints",
           static_cast<std::uint64_t>(er.checkpoints_taken)},
          {"recovery_checkpoint_bytes", er.last_checkpoint_bytes},
          {"recovery_rows_moved", rows_moved},
      };
      for (std::size_t i = 0; i < er.recoveries.size(); ++i) {
        const auto& ev = er.recoveries[i];
        const std::string sfx = std::string("_").append(std::to_string(i));
        extra.emplace_back("recovery_dead_rank" + sfx,
                           static_cast<std::uint64_t>(ev.dead_rank));
        extra.emplace_back("recovery_resumed_step" + sfx,
                           static_cast<std::uint64_t>(ev.resumed_step));
      }
      record.add_run(label, name, r, extra);

      table.row()
          .cell(name)
          .cell(r.method)
          .cell(util::format_double(rn, 4))
          .cell(reached ? "yes" : "NO")
          .cell(std::to_string(er.recoveries.size()))
          .cell(std::to_string(er.checkpoints_taken))
          .cell(std::to_string(er.last_checkpoint_bytes))
          .cell(std::to_string(rows_moved))
          .cell(resumed.empty() ? "-" : resumed);
      csv.write_row(std::vector<std::string>{
          name, r.method, std::to_string(r.steps_taken()),
          util::format_double(rn, 9), reached ? "1" : "0",
          std::to_string(er.recoveries.size()),
          std::to_string(er.checkpoints_taken),
          std::to_string(er.last_checkpoint_bytes),
          std::to_string(rows_moved), resumed.empty() ? "-" : resumed});
    }
    std::cerr << "  [" << name << "] done\n";
  }
  std::cout << "Final ||r||_2 after 50 surviving parallel steps; each "
               "method lost the same ranks and recovered from its own "
               "checkpoints.\n\n";
  table.print(std::cout);
  std::cout << "\nCSV: " << csv.path() << "\n";
  if (!all_reached) {
    std::cout << "\nELASTIC GATE FAILED: a method missed the target "
                 "residual after recovery\n";
    return 1;
  }
  std::cout << "\nElastic gate passed: every method reached ||r|| <= "
            << util::format_double(target, 3) << " after losing "
            << kills.size() << " rank(s).\n";
  return 0;
}

}  // namespace
}  // namespace dsouth::bench

int main(int argc, char** argv) { return dsouth::bench::run(argc, argv); }
