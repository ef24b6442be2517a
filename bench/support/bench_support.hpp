#pragma once

/// \file bench_support.hpp
/// Shared machinery for the reproduction benches (one binary per paper run
/// set, writing every table and figure built on its runs — see DESIGN.md
/// §4). Handles problem setup exactly as the paper specifies (§4.2: b = 0,
/// random x⁰ scaled so ‖r⁰‖₂ = 1, matrices pre-scaled to unit diagonal by
/// the proxy suite), partitioning, and uniform table/CSV output.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dist/batch.hpp"
#include "dist/driver.hpp"
#include "graph/partition.hpp"
#include "sparse/csr.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace dsouth::bench {

using sparse::CsrMatrix;
using sparse::index_t;
using sparse::value_t;

/// A distributed test problem in the paper's §4.2 setup.
struct DistProblem {
  std::string name;
  CsrMatrix a;
  std::vector<value_t> b;   ///< all zeros
  std::vector<value_t> x0;  ///< random, scaled so ‖r⁰‖₂ == 1
};

/// Build a proxy problem by name (see sparse/proxy_suite.hpp). The seed
/// feeds the random initial guess; the default matches the committed
/// EXPERIMENTS.md numbers.
DistProblem make_dist_problem(const std::string& proxy_name,
                              double size_factor = 1.0,
                              std::uint64_t seed = 0xD15717ULL);

/// Partition the matrix graph into `num_ranks` subdomains (our METIS
/// substitute, recursive bisection + FM).
graph::Partition partition_for(const CsrMatrix& a, index_t num_ranks);

/// The matrix list of Table 1 (all 14 proxies) or a user-selected subset
/// via `-matrices name1,name2`.
std::vector<std::string> select_matrices(const util::ArgParser& args);

/// The six matrices the paper uses in Figures 8 and 9.
const std::vector<std::string>& scaling_figure_matrices();

/// Ensure `bench_results/` exists and return "bench_results/<name>".
std::string csv_path(const std::string& name);

/// Format an optional metric: value or the paper's † for "not reached".
std::string value_or_dagger(const std::optional<double>& v, int precision);

/// Standard bench preamble: prints the bench title, what paper artifact it
/// regenerates, and the workload description.
void print_header(const std::string& title, const std::string& regenerates,
                  const std::string& workload);

/// Default run options shared by the distributed benches (50 parallel
/// steps, the calibrated machine model).
dist::DistRunOptions default_run_options();

/// Apply the shared `-backend sequential|threads` / `-threads N` flags to
/// `opt`. Results are bit-identical across backends; backends only change
/// real wall-clock time.
///
/// Also applies the event-driven delivery knobs `-async` (switch to async
/// delivery and relax-on-arrival solver stepping), `-staleness S`
/// (runtime-enforced staleness bound, default 4, must be >= 0; 0 reduces
/// to bulk-synchronous timing), `-min-latency`/`-max-latency` (per-message
/// latency window in epochs, defaults 0/3) and `-async-seed`. These DO
/// change the trajectory — they are for robustness/asynchrony studies, not
/// for the bit-identity comparisons above (though each async configuration
/// is itself bit-identical across backends).
///
/// Node-aware topology knobs: `-ranks-per-node R` (consecutive blocks of R
/// ranks per node) and `-no-node-route` (tier classification only — the
/// "direct" baseline the node-aware bench compares leader routing
/// against). Like the backend flags, these never change solver
/// trajectories: the topology only re-prices the simulated wire
/// (DESIGN.md §13).
void apply_backend_args(const util::ArgParser& args, dist::DistRunOptions& opt);

/// Fail, naming the first one, on any flag the program has not read, so a
/// mistyped or retired flag cannot run silently. Every bench reads all of
/// its flags up front and calls this once, before its first solve.
void reject_unread_args(const util::ArgParser& args);

/// Shared `-trace <path>` flag: captures the trace log of every run a bench
/// performs and writes the file on destruction (docs/observability.md).
///
/// `-trace`: path ending in `.jsonl` selects JSON Lines (one
/// header/event/metric object per line, one header per captured run); any
/// other extension selects Chrome trace_event JSON, loadable in Perfetto or
/// chrome://tracing, with one "process" per captured run. The flag enables
/// tracing via `apply()`; without it, the capture is inert.
class TraceCapture {
 public:
  explicit TraceCapture(const util::ArgParser& args);
  ~TraceCapture();  ///< writes the files (best effort; logs failures)

  bool enabled() const { return !path_.empty(); }
  /// Enable tracing in `opt` when the flag was given (no-op otherwise).
  void apply(dist::DistRunOptions& opt) const;
  /// Capture one finished run under `label` (e.g. "fig8 ldoorp P=64 DS").
  /// Runs without a trace log (tracing off) are ignored.
  void add_run(const std::string& label, const dist::DistRunResult& result);
  /// Capture a merged trace log directly — the batched-run path
  /// (bench/throughput), where there is no DistRunResult to hand over.
  /// Null logs (tracing off) are ignored.
  void add_log(const std::string& label,
               std::shared_ptr<const trace::TraceLog> log);
  /// Write the capture file now (idempotent; the destructor calls it).
  void write();

 private:
  struct Captured {
    std::string label;
    std::shared_ptr<const trace::TraceLog> log;
  };
  std::string path_;  ///< -trace target ("" = off)
  bool jsonl_ = false;
  bool written_ = false;
  std::vector<Captured> runs_;
};

/// Shared `-json [<path>]` flag: machine-readable bench records for the
/// perf-regression gate (tools/bench_compare.py). Each captured run adds
/// one record — config plus the *deterministic* results (steps, modeled
/// time, CommStats totals, final residual; bit-identical across execution
/// backends) and the advisory wall clock — and destruction writes one
/// versioned JSON document (schema "dsouth.bench_record"). With no path
/// the file is `bench_results/BENCH_<bench>.json`; without `-json` the
/// recorder is inert.
class BenchRecorder {
 public:
  BenchRecorder(std::string bench_name, const util::ArgParser& args);
  ~BenchRecorder();  ///< writes the file (best effort; logs failures)

  bool enabled() const { return !path_.empty(); }
  /// Record one finished run. `matrix` is the problem name ("" if n/a).
  /// `extra_deterministic` appends bench-specific integer fields to the
  /// record's deterministic block (bench/scaling's allocs-per-step gate);
  /// anything listed here MUST be bit-identical across execution backends,
  /// or bench_compare.py's gate will trip on a legitimate rerun.
  void add_run(const std::string& label, const std::string& matrix,
               const dist::DistRunResult& result,
               const std::vector<std::pair<std::string, std::uint64_t>>&
                   extra_deterministic = {});
  /// Record one finished batched multi-tenant run (dist/batch.hpp). The
  /// deterministic block mirrors add_run's — steps, modeled time, shared-
  /// wire CommStats totals, worst tenant final residual — plus the batch
  /// size, runtime epochs, rejected-frame count, and per-tenant
  /// `tenant_{records,doubles,steps}_<t>` fields (the tenant's logical
  /// share of the shared frames; bit-identical across backends).
  /// tools/bench_compare.py groups the tenant_* family into one summary
  /// row so B = 64 records stay readable.
  void add_batch_run(const std::string& label, const std::string& matrix,
                     const dist::BatchRunResult& result,
                     const std::vector<std::pair<std::string, std::uint64_t>>&
                         extra_deterministic = {});
  /// Write the record file now (idempotent; the destructor calls it).
  void write();

 private:
  std::string bench_name_;
  std::string path_;
  bool written_ = false;
  std::vector<std::string> records_;  ///< pre-rendered JSON objects
};

}  // namespace dsouth::bench

namespace dsouth::bench {

/// Results of running BJ, PS and DS on the same problem and partition
/// (the Tables 2-4 protocol).
struct MethodRuns {
  dist::DistRunResult bj, ps, ds;
};

/// Partition once, run all three methods.
MethodRuns run_three_methods(const DistProblem& p, index_t num_ranks,
                             const dist::DistRunOptions& opt);

}  // namespace dsouth::bench
