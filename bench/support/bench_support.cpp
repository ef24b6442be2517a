#include "support/bench_support.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "graph/graph.hpp"
#include "sparse/proxy_suite.hpp"
#include "sparse/scaling.hpp"
#include "trace/export.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace dsouth::bench {

DistProblem make_dist_problem(const std::string& proxy_name,
                              double size_factor, std::uint64_t seed) {
  auto proxy = sparse::make_proxy(proxy_name, size_factor);
  DistProblem p;
  p.name = proxy_name;
  p.a = std::move(proxy.a);
  p.b.assign(static_cast<std::size_t>(p.a.rows()), 0.0);
  p.x0.resize(p.b.size());
  util::Rng rng(seed);
  rng.fill_uniform(p.x0, -1.0, 1.0);
  sparse::normalize_initial_residual(p.a, p.b, p.x0);
  return p;
}

graph::Partition partition_for(const CsrMatrix& a, index_t num_ranks) {
  auto g = graph::Graph::from_matrix_structure(a);
  return graph::partition_recursive_bisection(g, num_ranks);
}

std::vector<std::string> select_matrices(const util::ArgParser& args) {
  auto arg = args.get("matrices");
  if (!arg || arg->empty()) return sparse::proxy_names();
  std::vector<std::string> out;
  std::stringstream ss(*arg);
  std::string item;
  while (std::getline(ss, item, ',')) {
    DSOUTH_CHECK_MSG(sparse::is_proxy_name(item),
                     "unknown matrix '" << item << "'");
    out.push_back(item);
  }
  return out;
}

const std::vector<std::string>& scaling_figure_matrices() {
  static const std::vector<std::string> names = {
      "Flan_1565p", "ldoorp",   "StocF-1465p",
      "inline_1p",  "bone010p", "Hook_1498p"};
  return names;
}

std::string csv_path(const std::string& name) {
  std::filesystem::create_directories("bench_results");
  return "bench_results/" + name;
}

std::string value_or_dagger(const std::optional<double>& v, int precision) {
  if (!v) return "†";
  return util::format_double(*v, precision);
}

void print_header(const std::string& title, const std::string& regenerates,
                  const std::string& workload) {
  std::cout << "=== " << title << " ===\n"
            << "Regenerates: " << regenerates << "\n"
            << "Workload:    " << workload << "\n\n";
}

dist::DistRunOptions default_run_options() {
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 50;  // the paper runs 50 parallel steps
  return opt;
}

void apply_backend_args(const util::ArgParser& args,
                        dist::DistRunOptions& opt) {
  const std::string backend = args.get_choice_or(
      "backend", {"sequential", "seq", "threads", "threadpool", "thread"},
      "sequential");
  const auto kind = simmpi::parse_backend_kind(backend);
  DSOUTH_CHECK(kind.has_value());  // the choice set above is exhaustive
  opt.backend = *kind;
  opt.num_threads = static_cast<int>(args.get_int_or("threads", 0));
  // Event-driven (asynchronous) delivery knobs: -async switches every
  // solver to relax-on-arrival stepping with per-edge latency draws in
  // [-min-latency, -max-latency] epochs, clamped by the -staleness bound
  // (0 = bulk-synchronous timing). Async runs stay bit-identical across
  // backends (stateless hash draws), but DO change the trajectory — these
  // are study knobs, not bit-identity knobs.
  opt.async = args.has("async");
  const auto staleness = args.get_int_or("staleness", 4);
  DSOUTH_CHECK_MSG(staleness >= 0, "-staleness must be >= 0");
  opt.max_staleness = static_cast<std::uint64_t>(staleness);
  opt.async_min_latency = static_cast<int>(args.get_int_or("min-latency", 0));
  opt.async_max_latency = static_cast<int>(args.get_int_or("max-latency", 3));
  opt.async_seed = static_cast<std::uint64_t>(
      args.get_int_or("async-seed", 0xA51CLL));
  DSOUTH_CHECK_MSG(opt.async_min_latency >= 0 &&
                       opt.async_min_latency <= opt.async_max_latency,
                   "need 0 <= -min-latency <= -max-latency");
  // Node-aware topology knobs (DESIGN.md §13, docs/communication.md):
  // -ranks-per-node R groups ranks into consecutive blocks of R, and
  // -no-node-route keeps the topology as a tier classifier only (the
  // "direct" baseline). The topology never changes solver trajectories —
  // only the modeled wire costs.
  opt.ranks_per_node =
      static_cast<int>(args.get_int_or("ranks-per-node", 0));
  DSOUTH_CHECK_MSG(opt.ranks_per_node >= 0, "-ranks-per-node must be >= 0");
  opt.node_route = !args.has("no-node-route");
}

void reject_unread_args(const util::ArgParser& args) {
  const auto unknown = args.unqueried();
  DSOUTH_CHECK_MSG(unknown.empty(), "unknown argument -" << unknown.front());
}

TraceCapture::TraceCapture(const util::ArgParser& args) {
  if (auto p = args.get("trace"); p && !p->empty()) {
    path_ = *p;
    jsonl_ = path_.size() >= 6 &&
             path_.compare(path_.size() - 6, 6, ".jsonl") == 0;
  }
}

TraceCapture::~TraceCapture() {
  try {
    write();
  } catch (const std::exception& e) {
    std::cerr << "trace capture: " << e.what() << "\n";
  }
}

void TraceCapture::apply(dist::DistRunOptions& opt) const {
  if (enabled()) opt.trace.enabled = true;
}

void TraceCapture::add_run(const std::string& label,
                           const dist::DistRunResult& result) {
  if (!enabled() || !result.trace_log) return;
  runs_.push_back({label, result.trace_log});
}

void TraceCapture::add_log(const std::string& label,
                           std::shared_ptr<const trace::TraceLog> log) {
  if (!enabled() || !log) return;
  runs_.push_back({label, std::move(log)});
}

void TraceCapture::write() {
  if (!enabled() || written_) return;
  written_ = true;
  std::ofstream out(path_);
  DSOUTH_CHECK_MSG(out.good(), "cannot open trace file '" << path_ << "'");
  if (jsonl_) {
    for (const auto& run : runs_) {
      trace::TraceExportOptions opt;
      opt.run_label = run.label;
      trace::write_jsonl(out, *run.log, opt);
    }
  } else {
    trace::ChromeTraceWriter writer(out);
    for (const auto& run : runs_) {
      trace::TraceExportOptions opt;
      opt.run_label = run.label;
      writer.add_run(*run.log, opt);
    }
    writer.finish();
  }
  std::cout << "Trace:       wrote " << runs_.size() << " run"
            << (runs_.size() == 1 ? "" : "s") << " to " << path_ << " ("
            << (jsonl_ ? "JSON Lines" : "Chrome trace_event") << ")\n";
}

namespace {

/// Best-effort revision id for bench records: DSOUTH_GIT_SHA when set (CI
/// exports it; keeps records hermetic), else `git rev-parse HEAD`, else
/// "unknown". Advisory only — bench_compare.py never gates on it.
std::string detect_git_sha() {
  if (const char* env = std::getenv("DSOUTH_GIT_SHA"); env && *env) {
    return env;
  }
  std::string sha;
  if (FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof(buf), pipe)) sha = buf;
    ::pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  if (sha.size() != 40) return "unknown";
  for (char c : sha) {
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return "unknown";
  }
  return sha;
}

}  // namespace

BenchRecorder::BenchRecorder(std::string bench_name,
                             const util::ArgParser& args)
    : bench_name_(std::move(bench_name)) {
  if (!args.has("json")) return;
  path_ = args.get_or("json", "");
  if (path_.empty()) path_ = csv_path("BENCH_" + bench_name_ + ".json");
}

BenchRecorder::~BenchRecorder() {
  try {
    write();
  } catch (const std::exception& e) {
    std::cerr << "bench record: " << e.what() << "\n";
  }
}

void BenchRecorder::add_run(
    const std::string& label, const std::string& matrix,
    const dist::DistRunResult& result,
    const std::vector<std::pair<std::string, std::uint64_t>>&
        extra_deterministic) {
  if (!enabled()) return;
  const auto& ct = result.comm_totals;
  std::ostringstream os;
  os << "{\"label\":" << util::json_quote(label)
     << ",\n   \"config\":{\"matrix\":" << util::json_quote(matrix)
     << ",\"method\":" << util::json_quote(result.method)
     << ",\"procs\":" << result.num_ranks << ",\"n\":" << result.n
     << ",\"backend\":" << util::json_quote(result.backend)
     << ",\"threads\":" << result.num_threads << "},"
     << "\n   \"deterministic\":{\"steps\":" << result.steps_taken()
     << ",\"modeled_time\":"
     << util::json_number(result.model_time.empty() ? 0.0
                                                    : result.model_time.back())
     << ",\"msgs_total\":" << ct.msgs << ",\"msgs_solve\":" << ct.msgs_solve
     << ",\"msgs_residual\":" << ct.msgs_residual
     << ",\"msgs_other\":" << ct.msgs_other
     << ",\"msgs_logical\":" << ct.msgs_logical
     << ",\"bytes_total\":" << ct.bytes
     << ",\"comm_cost\":"
     << util::json_number(result.comm_cost.empty() ? 0.0
                                                   : result.comm_cost.back())
     << ",\"final_residual\":"
     << util::json_number(
            result.residual_norm.empty() ? 0.0 : result.residual_norm.back());
  // Fault-injection totals, present only when a FaultSchedule was attached
  // (fault-free records stay byte-identical to the pre-fault schema). All
  // six are deterministic: the fault draws are stateless hashes.
  if (result.fault_summary) {
    const auto& fs = *result.fault_summary;
    os << ",\"msgs_dropped\":" << fs.msgs_dropped
       << ",\"msgs_duplicated\":" << fs.msgs_duplicated
       << ",\"msgs_corrupted\":" << fs.msgs_corrupted
       << ",\"rejected_corrupt\":" << fs.rejected_corrupt
       << ",\"rejected_stale\":" << fs.rejected_stale
       << ",\"refreshes_sent\":" << fs.refreshes_sent;
  }
  // Async-delivery totals, present only when the run used async delivery
  // (bulk-synchronous records stay byte-identical to the previous
  // schema). Deterministic: latency draws are stateless hashes.
  if (result.async_totals) {
    const auto& at = *result.async_totals;
    os << ",\"async_epochs\":" << at.epochs
       << ",\"async_delivered\":" << at.delivered
       << ",\"staleness_sum\":" << at.staleness_sum
       << ",\"staleness_max\":" << at.staleness_max
       << ",\"staleness_mean\":"
       << util::json_number(at.delivered == 0
                                ? 0.0
                                : static_cast<double>(at.staleness_sum) /
                                      static_cast<double>(at.delivered));
  }
  // Node-aware tier totals, present only when the run carried a two-level
  // topology (single-level records stay byte-identical to the previous
  // schema). Deterministic: hop accounting is a pure function of the
  // staged traffic and the rank -> node map.
  if (result.node_totals) {
    const auto& nt = *result.node_totals;
    os << ",\"node_msgs_intra\":" << nt.msgs_intra
       << ",\"node_bytes_intra\":" << nt.bytes_intra
       << ",\"node_msgs_inter\":" << nt.msgs_inter
       << ",\"node_bytes_inter\":" << nt.bytes_inter
       << ",\"node_forward_frames\":" << nt.forward_frames
       << ",\"node_forwarded_records\":" << nt.forwarded_records;
  }
  for (const auto& [key, value] : extra_deterministic) {
    os << ",\"" << key << "\":" << value;
  }
  os << "},"
     << "\n   \"advisory\":{\"wall_seconds\":"
     << util::json_number(result.wall_seconds) << "}}";
  records_.push_back(os.str());
}

void BenchRecorder::add_batch_run(
    const std::string& label, const std::string& matrix,
    const dist::BatchRunResult& result,
    const std::vector<std::pair<std::string, std::uint64_t>>&
        extra_deterministic) {
  if (!enabled()) return;
  const auto& ct = result.comm_totals;
  // The scalar convergence figure for a batch is its slowest tenant.
  double worst_residual = 0.0;
  for (const auto& t : result.tenants) {
    if (t.final_residual > worst_residual) worst_residual = t.final_residual;
  }
  std::ostringstream os;
  os << "{\"label\":" << util::json_quote(label)
     << ",\n   \"config\":{\"matrix\":" << util::json_quote(matrix)
     << ",\"method\":" << util::json_quote(result.method)
     << ",\"procs\":" << result.num_ranks << ",\"n\":" << result.n
     << ",\"batch\":" << result.batch
     << ",\"backend\":" << util::json_quote(result.backend)
     << ",\"threads\":" << result.num_threads << "},"
     << "\n   \"deterministic\":{\"steps\":" << result.steps_taken
     << ",\"modeled_time\":" << util::json_number(result.model_time)
     << ",\"msgs_total\":" << ct.msgs << ",\"msgs_solve\":" << ct.msgs_solve
     << ",\"msgs_residual\":" << ct.msgs_residual
     << ",\"msgs_other\":" << ct.msgs_other
     << ",\"msgs_logical\":" << ct.msgs_logical
     << ",\"bytes_total\":" << ct.bytes
     << ",\"comm_cost\":"
     << util::json_number(result.num_ranks == 0
                              ? 0.0
                              : static_cast<double>(ct.msgs) /
                                    static_cast<double>(result.num_ranks))
     << ",\"epochs\":" << result.epochs
     << ",\"frames_rejected\":" << result.frames_rejected
     << ",\"final_residual\":" << util::json_number(worst_residual);
  // Per-tenant logical shares of the shared wire. All deterministic: the
  // tallies are folded from staged traffic at each fence. bench_compare.py
  // treats tenant_* as one grouped family when reporting.
  for (std::size_t t = 0; t < result.tenants.size(); ++t) {
    const auto& tr = result.tenants[t];
    os << ",\"tenant_records_" << t << "\":" << tr.wire_records
       << ",\"tenant_doubles_" << t << "\":" << tr.wire_doubles
       << ",\"tenant_steps_" << t << "\":" << tr.steps;
  }
  for (const auto& [key, value] : extra_deterministic) {
    os << ",\"" << key << "\":" << value;
  }
  os << "},"
     << "\n   \"advisory\":{\"wall_seconds\":"
     << util::json_number(result.wall_seconds) << "}}";
  records_.push_back(os.str());
}

void BenchRecorder::write() {
  if (!enabled() || written_) return;
  written_ = true;
  std::ofstream out(path_);
  DSOUTH_CHECK_MSG(out.good(),
                   "cannot open bench record file '" << path_ << "'");
  out << "{\"schema\":\"dsouth.bench_record\",\"schema_version\":1,"
      << "\"bench\":" << util::json_quote(bench_name_)
      << ",\"git_sha\":" << util::json_quote(detect_git_sha())
      << ",\"runs\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    out << (i == 0 ? "\n  " : ",\n  ") << records_[i];
  }
  out << "\n]}\n";
  DSOUTH_CHECK_MSG(out.good(),
                   "write to bench record file '" << path_ << "' failed");
  std::cout << "Record:      wrote " << records_.size() << " run"
            << (records_.size() == 1 ? "" : "s") << " to " << path_ << "\n";
}

}  // namespace dsouth::bench

namespace dsouth::bench {

MethodRuns run_three_methods(const DistProblem& p, index_t num_ranks,
                             const dist::DistRunOptions& opt) {
  auto part = partition_for(p.a, num_ranks);
  dist::DistLayout layout(p.a, part);
  MethodRuns runs;
  runs.bj = dist::run_distributed(dist::DistMethod::kBlockJacobi, layout,
                                  p.b, p.x0, opt);
  runs.ps = dist::run_distributed(dist::DistMethod::kParallelSouthwell,
                                  layout, p.b, p.x0, opt);
  runs.ds = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                  layout, p.b, p.x0, opt);
  return runs;
}

}  // namespace dsouth::bench
