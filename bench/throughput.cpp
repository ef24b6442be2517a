/// Multi-tenant serving throughput (DESIGN.md §14, docs/serving.md): B
/// independent systems — same sparsity, per-tenant initial guesses plus
/// seeded coefficient sweeps (sparse::make_tenant_variant) for every odd
/// tenant — served batched through ONE simulated runtime, for B in
/// {1, 4, 16, 64} per solver. The batch shares epochs, fences, and
/// physical messages (co-scheduled tenants staging to the same neighbor
/// in the same epoch ride one wire tenant frame), so the numbers to watch
/// are physical messages per solve and modeled seconds per solve against
/// the B-independent-runs baseline, which this bench also runs.
///
/// Everything except wall clock (the solves/sec column) is deterministic
/// and bit-identical across execution backends: per-tenant trajectories
/// equal their solo runs (tests/test_batch.cpp pins this bitwise), and
/// message counts are pure functions of the staged traffic.
///
/// THE GATE: this binary exits nonzero unless batched Distributed
/// Southwell at B = `-gate-batch` (default 16) beats B independent runs
/// on BOTH physical messages and modeled seconds. The `-json` record
/// feeds the CI throughput gate (tools/bench_compare.py vs the committed
/// BENCH_throughput.json baseline); each batch record carries the shared-
/// wire totals, per-tenant logical shares, and the solo aggregate as
/// `solo_msgs_total`.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sparse/proxy_suite.hpp"
#include "support/bench_support.hpp"
#include "util/rng.hpp"

namespace dsouth::bench {
namespace {

/// Deterministic seed namespace for tenant sweeps ("SERVE").
constexpr std::uint64_t kTenantSeedBase = 0x5345525645ULL;

/// Per-tenant initial guess in the paper's §4.2 setup: random, scaled so
/// ‖r⁰‖₂ == 1 against THIS tenant's matrix (b is all zeros everywhere).
std::vector<value_t> tenant_x0(const CsrMatrix& a,
                               std::span<const value_t> b,
                               std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(a.rows());
  std::vector<value_t> x(n);
  util::Rng rng(seed);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  std::vector<value_t> r(n);
  a.residual(b, x, r);
  double norm2 = 0.0;
  for (value_t v : r) norm2 += v * v;
  const double norm = std::sqrt(norm2);
  DSOUTH_CHECK(norm > 0.0);
  for (auto& v : x) v /= norm;
  return x;
}

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto procs = static_cast<index_t>(args.get_int_or("procs", 16));
  const double size_factor = args.get_double_or("size_factor", 0.05);
  const std::string name = args.get_or("matrix", "ldoorp");
  const double sweep = args.get_double_or("sweep", 0.25);
  const auto batch_sizes = args.get_int_list_or("batch", {1, 4, 16, 64});
  DSOUTH_CHECK_MSG(!batch_sizes.empty(), "-batch needs at least one size");
  for (auto b : batch_sizes) DSOUTH_CHECK_MSG(b >= 1, "batch sizes must be >= 1");
  const auto max_b = static_cast<std::size_t>(
      *std::max_element(batch_sizes.begin(), batch_sizes.end()));
  // The gate compares DS at one batch size against that many independent
  // runs. Default 16 (the CI contract); a custom -batch list without 16
  // gates at its largest size >= 2 instead. An explicit -gate-batch must
  // be in the list; a list with no size >= 2 has nothing to gate.
  std::size_t gate_b = 0;
  if (args.get("gate-batch")) {
    gate_b = static_cast<std::size_t>(args.get_int_or("gate-batch", 16));
    DSOUTH_CHECK_MSG(std::find(batch_sizes.begin(), batch_sizes.end(),
                               static_cast<std::int64_t>(gate_b)) !=
                             batch_sizes.end() &&
                         gate_b >= 2,
                     "-gate-batch must be one of the -batch sizes and >= 2");
  } else {
    for (auto b : batch_sizes) {
      const auto bu = static_cast<std::size_t>(b);
      if (bu == 16) gate_b = 16;
      if (gate_b != 16 && bu >= 2 && bu > gate_b) gate_b = bu;
    }
  }

  TraceCapture capture(args);
  BenchRecorder record("throughput", args);

  auto opt = default_run_options();
  apply_backend_args(args, opt);
  capture.apply(opt);
  reject_unread_args(args);

  print_header(
      "Multi-tenant serving throughput — batched vs B independent runs",
      "DESIGN.md §14 batched-serving study (no paper artifact; the paper "
      "solves one system at a time)",
      "four solvers x B in {" + [&] {
        std::string s;
        for (auto b : batch_sizes) s += (s.empty() ? "" : ", ") + std::to_string(b);
        return s;
      }() + "} tenants, P=" + std::to_string(procs) +
          " simulated ranks, 50 parallel steps");

  // Tenant materials, built once for the largest B: even tenants share the
  // base matrix (the different-initial-state case), odd tenants get a
  // seeded coefficient sweep on the same sparsity — so every layout shares
  // the partition and communication structure by construction.
  auto problem = make_dist_problem(name, size_factor);
  auto part = partition_for(problem.a, procs);
  dist::DistLayout base_layout(problem.a, part);
  std::vector<std::unique_ptr<CsrMatrix>> variant_mats;
  std::vector<std::unique_ptr<dist::DistLayout>> variant_layouts;
  std::vector<const dist::DistLayout*> layouts(max_b, &base_layout);
  std::vector<const CsrMatrix*> mats(max_b, &problem.a);
  std::vector<std::vector<value_t>> x0s(max_b);
  x0s[0] = problem.x0;
  for (std::size_t t = 1; t < max_b; ++t) {
    if (t % 2 == 1) {
      variant_mats.push_back(std::make_unique<CsrMatrix>(
          sparse::make_tenant_variant(problem.a, kTenantSeedBase + t, sweep)));
      variant_layouts.push_back(
          std::make_unique<dist::DistLayout>(*variant_mats.back(), part));
      mats[t] = variant_mats.back().get();
      layouts[t] = variant_layouts.back().get();
    }
    x0s[t] = tenant_x0(*mats[t], problem.b, kTenantSeedBase * 31 + t);
  }
  std::vector<dist::TenantSpec> specs(max_b);
  for (std::size_t t = 0; t < max_b; ++t) {
    specs[t] = dist::TenantSpec{problem.b, x0s[t], 0.0};
  }
  std::cerr << "  [" << name << "] n=" << problem.a.rows() << ", " << max_b
            << " tenants built\n";

  util::Table table({"Method", "B", "steps", "msgs/solve", "solo msgs",
                     "msg redux", "model s/solve", "solo s", "solves/s"});
  util::CsvWriter csv(
      csv_path("throughput.csv"),
      {"matrix", "method", "batch", "procs", "steps", "msgs_total",
       "solo_msgs_total", "bytes_total", "modeled_time", "solo_modeled_time",
       "final_residual", "wall_seconds", "solves_per_sec"});

  const dist::DistMethod methods[4] = {
      dist::DistMethod::kBlockJacobi, dist::DistMethod::kMulticolorBlockGs,
      dist::DistMethod::kParallelSouthwell,
      dist::DistMethod::kDistributedSouthwell};

  bool gate_ok = true;
  std::string gate_report;
  for (auto m : methods) {
    // The B-independent-runs baseline, once per tenant: prefix sums give
    // the solo aggregate for every batch size (tenant t's system does not
    // depend on B).
    std::vector<std::uint64_t> solo_msgs(max_b);
    std::vector<double> solo_model(max_b);
    for (std::size_t t = 0; t < max_b; ++t) {
      auto r = dist::run_distributed(m, *layouts[t], problem.b, x0s[t], opt);
      solo_msgs[t] = r.comm_totals.msgs;
      solo_model[t] = r.model_time.empty() ? 0.0 : r.model_time.back();
    }
    for (auto b_signed : batch_sizes) {
      const auto b = static_cast<std::size_t>(b_signed);
      auto br = dist::run_distributed_batch(
          m, std::span<const dist::DistLayout* const>(layouts.data(), b),
          std::span<const dist::TenantSpec>(specs.data(), b), opt);
      std::uint64_t solo_msg_sum = 0;
      double solo_model_sum = 0.0;
      for (std::size_t t = 0; t < b; ++t) {
        solo_msg_sum += solo_msgs[t];
        solo_model_sum += solo_model[t];
      }
      const double bd = static_cast<double>(b);
      const double redux =
          solo_msg_sum == 0
              ? 0.0
              : 100.0 * (1.0 - static_cast<double>(br.comm_totals.msgs) /
                                   static_cast<double>(solo_msg_sum));
      const double solves_per_sec =
          br.wall_seconds > 0.0 ? bd / br.wall_seconds : 0.0;
      double worst = 0.0;
      for (const auto& tr : br.tenants) worst = std::max(worst, tr.final_residual);
      const std::string label =
          name + " " + dist::method_abbrev(m) + " B=" + std::to_string(b);
      capture.add_log(label, br.trace_log);
      record.add_batch_run(label, name, br,
                           {{"solo_msgs_total", solo_msg_sum}});
      table.row()
          .cell(br.method)
          .cell(std::to_string(b))
          .cell(std::to_string(br.steps_taken))
          .cell(util::format_double(
              static_cast<double>(br.comm_totals.msgs) / bd, 1))
          .cell(util::format_double(static_cast<double>(solo_msg_sum) / bd, 1))
          .cell(util::format_double(redux, 1) + "%")
          .cell(util::format_double(br.model_time / bd, 6))
          .cell(util::format_double(solo_model_sum / bd, 6))
          .cell(util::format_double(solves_per_sec, 1));
      csv.write_row(std::vector<std::string>{
          name, br.method, std::to_string(b), std::to_string(br.num_ranks),
          std::to_string(br.steps_taken), std::to_string(br.comm_totals.msgs),
          std::to_string(solo_msg_sum), std::to_string(br.comm_totals.bytes),
          util::format_double(br.model_time, 9),
          util::format_double(solo_model_sum, 9),
          util::format_double(worst, 9),
          util::format_double(br.wall_seconds, 6),
          util::format_double(solves_per_sec, 3)});
      if (m == dist::DistMethod::kDistributedSouthwell && b == gate_b) {
        const bool msgs_win = br.comm_totals.msgs < solo_msg_sum;
        const bool model_win = br.model_time < solo_model_sum;
        gate_ok = msgs_win && model_win;
        gate_report =
            "DS B=" + std::to_string(b) + ": " +
            std::to_string(br.comm_totals.msgs) + " batched vs " +
            std::to_string(solo_msg_sum) + " solo physical msgs, " +
            util::format_double(br.model_time, 6) + " vs " +
            util::format_double(solo_model_sum, 6) + " modeled s";
      }
    }
    std::cerr << "  [" << dist::method_abbrev(m) << "] done\n";
  }

  std::cout << "Per-solve columns divide batch totals by B; \"solo\" columns "
               "are the B-independent-runs baseline (same tenants, one "
               "runtime each). Everything except solves/s is deterministic.\n\n";
  table.print(std::cout);
  std::cout << "\nCSV: " << csv.path() << "\n";
  if (gate_report.empty()) {
    std::cout << "GATE SKIPPED — no batch size >= 2 requested\n";
  } else {
    std::cout << (gate_ok ? "GATE PASS — " : "GATE FAIL — ") << gate_report
              << "\n";
  }
  return gate_ok ? 0 : 1;
}

}  // namespace
}  // namespace dsouth::bench

int main(int argc, char** argv) { return dsouth::bench::run(argc, argv); }
