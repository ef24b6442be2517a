#include "workload.hpp"

#include <bit>
#include <cmath>
#include <sstream>

#include "dist/batch.hpp"
#include "graph/graph.hpp"
#include "sparse/proxy_suite.hpp"
#include "sparse/scaling.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsouth::suite {

namespace {

// Table 2 targets: ‖r‖₂ ≤ 1e-4 from ‖r⁰‖₂ = 1 for the solo solves; the
// tenant and elastic solves stop at 1e-3 to keep a run near 20 s.
//
// Steps to the target move by up to ±6% from one instance to the next
// (elastic; ±3% elsewhere), so each run averages over several instances:
// six, eight on emilia (whose message counts move the most), four on bone
// (whose instances cost 2.5× emilia's and move the least).
const Workload kWorkloads[] = {
    {"ds-emilia-p16", "Emilia_923p", 1.0, 16, Kind::kSolo, 1e-4, 1, 8},
    {"ds-bone-p256", "bone010p", 1.0, 256, Kind::kSolo, 1e-4, 1, 4},
    {"batch-ldoor-b16", "ldoorp", 0.25, 16, Kind::kBatch, 1e-3, 16, 6},
    {"elastic-ldoor-p64", "ldoorp", 1.0, 64, Kind::kElastic, 1e-3, 1, 6},
};

/// Cap on parallel steps; every workload stops at its target long before.
constexpr index_t kMaxSteps = 5000;

/// Independent streams drawn from the one workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
enum Stream : std::uint64_t {
  kX0 = 0,
  kVariant = 1000,
  kInstance = 2000,
  kAsync = 3000,
  kFaults,
};

/// Event-driven runs stop on the residual recorded before the final drain,
/// which trails the drained residual by the updates still in flight (up to
/// 10% on elastic-ldoor-p64 over ten seeds); their final iterate must
/// reach this multiple of the target instead.
constexpr double kAsyncSlack = 1.25;

/// Random x⁰ scaled so ‖b − A x⁰‖₂ = 1 (paper §4.2).
std::vector<value_t> make_x0(const CsrMatrix& a, const std::vector<value_t>& b,
                             std::uint64_t seed) {
  std::vector<value_t> x(b.size());
  util::Rng rng(seed);
  rng.fill_uniform(x, -1.0, 1.0);
  sparse::normalize_initial_residual(a, b, x);
  return x;
}

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  template <typename T>
  void add_all(const std::vector<T>& v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (const T& x : v) add(x);
  }
};

void add_totals(Fnv& f, const dist::DistRunResult::CommTotals& c) {
  for (std::uint64_t v : {c.msgs, c.bytes, c.msgs_solve, c.msgs_residual,
                          c.msgs_other, c.msgs_logical}) {
    f.add(v);
  }
}

/// ‖b − A·x‖₂ with b = 0.
double true_residual(const CsrMatrix& a, const std::vector<value_t>& x) {
  std::vector<value_t> ax(x.size());
  a.spmv(x, ax);
  double s = 0.0;
  for (value_t v : ax) s += v * v;
  return std::sqrt(s);
}

/// FNV-1a over the bit patterns of a run's deterministic series and totals.
std::uint64_t digest(const dist::DistRunResult& r) {
  Fnv f;
  f.add_all(r.residual_norm);
  f.add_all(r.model_time);
  f.add_all(r.comm_cost);
  f.add_all(r.relaxations);
  f.add_all(r.final_x);
  add_totals(f, r.comm_totals);
  return f.h;
}

}  // namespace

const Workload& find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return w;
  }
  std::ostringstream known;
  for (const auto& w : kWorkloads) known << ' ' << w.name;
  DSOUTH_CHECK_MSG(false, "unknown workload '" << name << "'; known:"
                                               << known.str());
  return kWorkloads[0];
}

std::unique_ptr<Inputs> setup(const Workload& w, std::uint64_t seed,
                              Spans* spans) {
  auto owned = std::make_unique<Inputs>();
  Inputs& in = *owned;
  {
    const Scope s(spans, "sparse.make_proxy");
    in.a = sparse::make_proxy(w.matrix, w.size_factor).a;
  }
  in.b.assign(static_cast<std::size_t>(in.a.rows()), 0.0);
  {
    const Scope s(spans, "graph.partition");
    const auto g = graph::Graph::from_matrix_structure(in.a);
    in.part = graph::partition_recursive_bisection(g, w.procs);
  }
  {
    const Scope s(spans, "dist.layout");
    in.layout = std::make_unique<dist::DistLayout>(in.a, in.part);
  }
  // Batch tenants as bench/throughput builds them: even tenants share the
  // matrix with their own x⁰, odd tenants get a seeded coefficient sweep
  // on the same sparsity (so every layout shares the comm structure).
  for (std::size_t t = 0; t < w.tenants; ++t) {
    const CsrMatrix* mat = &in.a;
    const dist::DistLayout* layout = in.layout.get();
    if (t % 2 == 1) {
      {
        const Scope s(spans, "sparse.tenant_variant");
        in.variant_mats.push_back(std::make_unique<CsrMatrix>(
            sparse::make_tenant_variant(in.a, derive(seed, kVariant + t))));
      }
      mat = in.variant_mats.back().get();
      const Scope s(spans, "dist.layout");
      in.variant_layouts.push_back(
          std::make_unique<dist::DistLayout>(*mat, in.part));
      layout = in.variant_layouts.back().get();
    }
    in.mats.push_back(mat);
    in.layouts.push_back(layout);
  }

  for (std::size_t i = 0; i < w.instances; ++i) {
    const std::uint64_t iseed = derive(seed, kInstance + i);
    Instance inst;
    for (std::size_t t = 0; t < w.tenants; ++t) {
      const Scope s(spans, "sparse.x0");
      inst.x0s.push_back(make_x0(*in.mats[t], in.b, derive(iseed, kX0 + t)));
    }
    auto& opt = inst.opt;
    opt.max_parallel_steps = kMaxSteps;
    opt.stop_at_residual = w.target;
    // Plain Algorithm 3 (period 0) deadlocks on some initial guesses even
    // under bulk-synchronous delivery: no rank relaxes and no message
    // flows from about step 50 on (3 of 40 bone010p P=256 instances, 1 of
    // 200 on Emilia_923p P=16). A periodic exact-norm broadcast bounds the
    // stale estimates behind it; none of 640 solves stalled with it.
    opt.ds.heartbeat_period = 32;
    if (w.kind == Kind::kElastic) {
      opt.async = true;
      opt.async_seed = derive(iseed, kAsync);
      opt.async_min_latency = 0;
      opt.async_max_latency = 3;
      opt.max_staleness = 4;
      opt.faults.seed = derive(iseed, kFaults);
      opt.faults.defaults.drop_probability = 0.02;
      opt.faults.kills = {{3, 40}, {11, 80}};
    }
    in.instances.push_back(std::move(inst));
  }
  in.rec.checkpoint_every = 8;
  return owned;
}

dist::DistRunOptions kill_free(const dist::DistRunOptions& opt) {
  dist::DistRunOptions o = opt;
  o.faults.kills.clear();
  return o;
}

void check_residual(const CsrMatrix& a, const std::vector<value_t>& x,
                    double reported, double target, bool exact,
                    const std::string& what,
                    std::vector<std::string>& failures) {
  const double r = true_residual(a, x);
  const double limit = exact ? target : kAsyncSlack * target;
  std::ostringstream why;
  if (!(r <= limit)) {
    why << what << ": recomputed residual " << r << " above " << limit;
  } else if (exact && !(std::abs(r - reported) <= 1e-8 * reported)) {
    why << what << ": recomputed residual " << r << " differs from reported "
        << reported;
  }
  if (!why.str().empty()) failures.push_back(why.str());
}

SolveOutcome solve(const Workload& w, const Inputs& in, const Instance& inst,
                   bool traced) {
  SolveOutcome out;
  dist::DistRunOptions opt = inst.opt;
  opt.trace.enabled = traced;
  const auto method = dist::DistMethod::kDistributedSouthwell;

  auto take_run = [&](const dist::DistRunResult& r) {
    out.model_s = r.model_time.back();
    out.msgs = r.comm_totals.msgs;
    out.msgs_logical = r.comm_totals.msgs_logical;
    out.steps = static_cast<index_t>(r.steps_taken());
    out.executed_steps = r.steps_taken();
    out.digest = digest(r);
    out.trace_log = r.trace_log;
    check_residual(in.a, r.final_x, r.residual_norm.back(), w.target,
                   !opt.async, "solve", out.failures);
  };

  switch (w.kind) {
    case Kind::kSolo:
      take_run(dist::run_distributed(method, *in.layout, in.b, inst.x0s[0],
                                    opt));
      break;
    case Kind::kElastic: {
      const auto er = elastic::run_elastic(method, in.a, in.part, in.b,
                                           inst.x0s[0], opt, in.rec);
      take_run(er.run);
      out.recoveries = er.recoveries.size();
      out.checkpoints = static_cast<std::uint64_t>(er.checkpoints_taken);
      for (const auto& ev : er.recoveries) {
        out.rows_moved += static_cast<std::uint64_t>(ev.rows_moved);
        out.executed_steps +=
            static_cast<std::uint64_t>(ev.detected_step - ev.resumed_step);
      }
      if (out.recoveries != 2) {
        out.failures.push_back("elastic: " + std::to_string(out.recoveries) +
                               " recoveries, expected 2");
      }
      break;
    }
    case Kind::kBatch: {
      std::vector<dist::TenantSpec> specs;
      for (const auto& x0 : inst.x0s) {
        specs.push_back(dist::TenantSpec{in.b, x0, w.target});
      }
      const auto br = dist::run_distributed_batch(method, in.layouts, specs,
                                                  opt);
      out.model_s = br.model_time;
      out.msgs = br.comm_totals.msgs;
      out.msgs_logical = br.comm_totals.msgs_logical;
      out.steps = br.steps_taken;
      out.executed_steps = static_cast<std::uint64_t>(br.steps_taken);
      out.trace_log = br.trace_log;
      Fnv f;
      f.add(br.model_time);
      add_totals(f, br.comm_totals);
      for (std::size_t t = 0; t < br.tenants.size(); ++t) {
        const auto& tr = br.tenants[t];
        f.add_all(tr.residual_norm);
        f.add_all(tr.final_x);
        const std::string what = "tenant " + std::to_string(t);
        if (!tr.converged) out.failures.push_back(what + ": not converged");
        check_residual(*in.mats[t], tr.final_x, tr.final_residual, w.target,
                       true, what, out.failures);
      }
      out.digest = f.h;
      break;
    }
  }
  return out;
}

}  // namespace dsouth::suite
