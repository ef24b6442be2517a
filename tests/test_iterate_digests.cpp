/// Iterate digests: FNV-1a64 fingerprints of the residual series, modeled
/// time series, final iterate, and exact CommTotals of small Poisson runs,
/// pinned for every solver under each delivery/wire configuration, for
/// B = 3 batches (bulk-synchronous, and event-driven with drops), and for
/// an elastic single-kill recovery; the bytes
/// that six traced DS runs export (JSONL, the analyzer's JSON document and
/// the Chrome trace); plus the set-up outputs every run starts from: each
/// proxy's CSR and the small FEM problem's, the matrix graph and partition
/// of two proxies, and four DistLayouts (one after a two-rank failure); and
/// nine V(1,1) multigrid cycles on a geometric and an AMG hierarchy under
/// each smoother, with every level operator.
/// Host-side optimisations of the set-up, solve or trace path (assembly,
/// graph build, coupling-block storage, relax snapshots, sweep kernels,
/// event storage) must leave every matrix, iterate and exported byte where
/// it was; a changed digest means a changed trajectory or file format, not
/// a rounding detail. On a mismatch the failure prints the row to paste
/// back into kPinned — do that only for a change that is MEANT to move
/// iterates or the trace format.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/render.hpp"
#include "analysis/run_trace.hpp"
#include "dist/batch.hpp"
#include "dist/driver.hpp"
#include "dist/layout.hpp"
#include "elastic/elastic.hpp"
#include "graph/partition.hpp"
#include "multigrid/amg.hpp"
#include "multigrid/hierarchy.hpp"
#include "sparse/proxy_suite.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "sparse/vec.hpp"
#include "trace/export.hpp"
#include "util/rng.hpp"

namespace dsouth {
namespace {

using sparse::CsrMatrix;
using sparse::index_t;
using sparse::value_t;

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xffU;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t digest(std::span<const double> values) {
  std::uint64_t h = fnv1a(kFnvOffsetBasis, values.size());
  for (double v : values) h = fnv1a(h, std::bit_cast<std::uint64_t>(v));
  return h;
}

std::uint64_t digest(const dist::DistRunResult::CommTotals& c) {
  std::uint64_t h = kFnvOffsetBasis;
  for (std::uint64_t w :
       {c.msgs, c.bytes, c.msgs_solve, c.msgs_residual, c.msgs_other,
        c.msgs_logical, c.msgs_logical_solve, c.msgs_logical_residual}) {
    h = fnv1a(h, w);
  }
  return h;
}

/// Hashes each index widened to 64 bits, so the 32-bit CSR arrays digest
/// exactly as the same indices stored 64-bit do.
template <typename Index>
std::uint64_t digest_indices(std::span<const Index> indices) {
  std::uint64_t h = fnv1a(kFnvOffsetBasis, indices.size());
  for (const index_t i : indices) h = fnv1a(h, static_cast<std::uint64_t>(i));
  return h;
}

std::uint64_t digest(std::span<const index_t> indices) {
  return digest_indices(indices);
}

std::uint64_t digest(std::span<const sparse::csr_index_t> indices) {
  return digest_indices(indices);
}

std::uint64_t digest_bytes(std::string_view bytes) {
  std::uint64_t h = fnv1a(kFnvOffsetBasis, bytes.size());
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Three words per pinned row. A run fills them with its residual series,
/// final iterate and CommTotals; a trace row with its JSONL export,
/// analysis JSON and Chrome export; a set-up row with its structure,
/// column indices and values (see the tests below).
struct Digests {
  std::uint64_t residual = 0;  ///< residual series (+ modeled time series)
  std::uint64_t x = 0;         ///< final iterate
  std::uint64_t comm = 0;      ///< CommTotals
};

Digests digest_run(const dist::DistRunResult& r) {
  return {fnv1a(digest(r.residual_norm), digest(r.model_time)),
          digest(r.final_x), digest(r.comm_totals)};
}

/// {row_ptr and shape, col_idx, value bits}.
Digests digest_csr(const CsrMatrix& a) {
  return {fnv1a(digest(a.row_ptr()), static_cast<std::uint64_t>(a.cols())),
          digest(a.col_idx()), digest(a.values())};
}

/// {JSONL export, analysis JSON, Chrome export}, all labelled `label`.
Digests digest_trace(const trace::TraceLog& log, const std::string& label) {
  trace::TraceExportOptions eopt;
  eopt.run_label = label;
  std::ostringstream jsonl, chrome;
  trace::write_jsonl(jsonl, log, eopt);
  trace::write_chrome_trace(chrome, log, eopt);
  const auto a = analysis::analyze_run(analysis::from_trace_log(log, label));
  return {digest_bytes(jsonl.str()), digest_bytes(analysis::to_json(a)),
          digest_bytes(chrome.str())};
}

std::uint64_t fold(std::uint64_t h, const Digests& d) {
  return fnv1a(fnv1a(fnv1a(h, d.residual), d.x), d.comm);
}

struct Pinned {
  const char* name;
  Digests want;
};

// Recorded on the implementation these digests guard; see the file
// comment before editing.
const Pinned kPinned[] = {
    {"BJ/async",
     {0x1c2af47be8c408bcULL, 0x4b9272bbeade74c3ULL, 0x78b9a7d6a3510672ULL}},
    {"BJ/batch3",
     {0x7aa252bd69384244ULL, 0x8fc402990e76eaa8ULL, 0xbf9a7523a0f4f7bdULL}},
    {"BJ/batch3-async",
     {0x8231042a98623c16ULL, 0x9cbf591fd18cfe60ULL, 0xc94e894138abf0c9ULL}},
    {"BJ/bsp",
     {0x3182961ca665577fULL, 0x337d05b0f9aa9cbdULL, 0x0c38d0f1fd609ebcULL}},
    {"BJ/faults",
     {0x0c35985f1f47554eULL, 0x89bc557479716f12ULL, 0x78b9a7d6a3510672ULL}},
    {"BJ/node-route",
     {0x8103dd96f419c38eULL, 0x337d05b0f9aa9cbdULL, 0x0c38d0f1fd609ebcULL}},
    {"DS/async",
     {0x4089cea7ed644be7ULL, 0x27646752fc58b351ULL, 0xba9df60c247bad5aULL}},
    {"DS/batch3",
     {0xf0512863457306b6ULL, 0x2bbab3cc278fa040ULL, 0xc6c37eb804e2ba0fULL}},
    {"DS/batch3-async",
     {0x81f4d43b70b85d8dULL, 0xe828dce076396ab4ULL, 0x2231fd4a0a4fbbd1ULL}},
    {"DS/bsp",
     {0x4963f943a92d8106ULL, 0x1b68600299e5d661ULL, 0x32eb70815b2903ebULL}},
    {"DS/elastic-kill",
     {0x973fb861aba8d487ULL, 0x90e6d80261d8372aULL, 0x2955c25563ca9107ULL}},
    {"DS/faults",
     {0x273f58edc2ed02fbULL, 0xc91f490e9f79d3a7ULL, 0xdc5e96ad7f913f74ULL}},
    {"DS/node-route",
     {0xc40410105081276aULL, 0x1b68600299e5d661ULL, 0x32eb70815b2903ebULL}},
    {"MCBGS/async",
     {0xb4b339dceb7161e8ULL, 0x3f0be1f4d64e8ad9ULL, 0x4b6685559b8dad6fULL}},
    {"MCBGS/batch3",
     {0x00e4fb885ba238c3ULL, 0xcfc5140f77809a0bULL, 0x75f58929bb353868ULL}},
    {"MCBGS/batch3-async",
     {0x80c8db634abf2b84ULL, 0xd19692d945184512ULL, 0x3779cf86c03e2bf3ULL}},
    {"MCBGS/bsp",
     {0x1f072f73784bc41aULL, 0x192b67cc173cdb97ULL, 0xf3c3b91ae81afb3fULL}},
    {"MCBGS/faults",
     {0x6bcb79c1b824431fULL, 0x0ef11d0cd791a357ULL, 0x4b6685559b8dad6fULL}},
    {"MCBGS/node-route",
     {0x8904836c7afceb08ULL, 0x192b67cc173cdb97ULL, 0xf3c3b91ae81afb3fULL}},
    {"PS/async",
     {0x453783d3d5db92fdULL, 0x27646752fc58b351ULL, 0x6f44c267da088861ULL}},
    {"PS/batch3",
     {0x80098b1721d8e3a1ULL, 0x5ceba3d3026acaa6ULL, 0xffde612a7119c20dULL}},
    {"PS/batch3-async",
     {0xb9934e697ba1e5b3ULL, 0xc426d0c5070a9468ULL, 0x7e041d8b3080788bULL}},
    {"PS/bsp",
     {0xa595e6d81390b798ULL, 0x5f680170a700786cULL, 0x8b14ff2ae23945f1ULL}},
    {"PS/faults",
     {0xe7e7ed2725aef15dULL, 0x41e9ac654cdc2a1cULL, 0x0a099d3a4c38f5e4ULL}},
    {"PS/node-route",
     {0x571d9d3658dddb17ULL, 0x5f680170a700786cULL, 0x8b14ff2ae23945f1ULL}},
    {"csr/Emilia_923p",
     {0xa883bb9b7ce8a963ULL, 0x6a9efa4e1f42d2ebULL, 0x28ed4dfb38c3f4caULL}},
    {"csr/Fault_639p",
     {0xa883bb9b7ce8a963ULL, 0x6a9efa4e1f42d2ebULL, 0x9374213e0e1c406eULL}},
    {"csr/Flan_1565p",
     {0x785278584b189599ULL, 0x05920d977b2673f2ULL, 0xe20528203cf173bdULL}},
    {"csr/Geo_1438p",
     {0xd83cabdd0b49c120ULL, 0x2717c1f8a17e7684ULL, 0x8839451de4b8b5a0ULL}},
    {"csr/Hook_1498p",
     {0xd91126d07c2a43c3ULL, 0xf09f5e1c6bd4882bULL, 0x2f2009feebc4fa53ULL}},
    {"csr/Serenap",
     {0xd83cabdd0b49c120ULL, 0x2717c1f8a17e7684ULL, 0x7fc494b08bfbfcf1ULL}},
    {"csr/StocF-1465p",
     {0xf6b21618c247d8ccULL, 0xc4fa1d44ad755782ULL, 0x2a41d27fe32eccefULL}},
    {"csr/af_5_k101p",
     {0x86de5779daaf3a71ULL, 0xaf1ec8a53f77ad82ULL, 0x34da0a663ff8d0a7ULL}},
    {"csr/audikw_1p",
     {0xdd0c7cf94ae1348bULL, 0xc40a74348215dcd6ULL, 0x652fd362c2e7ea3eULL}},
    {"csr/bone010p",
     {0x6448dadcf80dabcaULL, 0x9ebb8d3d15d63b32ULL, 0x173ed01ab03dec22ULL}},
    {"csr/boneS10p",
     {0xdd0c7cf94ae1348bULL, 0xc40a74348215dcd6ULL, 0x43a7b5d0c47ac578ULL}},
    {"csr/inline_1p",
     {0x2976b3a770ee9b60ULL, 0x40055c4308ebf42dULL, 0xd32af82800798258ULL}},
    {"csr/ldoorp",
     {0x54c242ec662c982aULL, 0x10aeb6772b10279aULL, 0x19918eb5f43c3984ULL}},
    {"csr/msdoorp",
     {0xf3e97dcde50e8240ULL, 0x9665cb818faf9ad4ULL, 0xf906532ca4d963f7ULL}},
    {"csr/small-fem",
     {0x21c86c910813f381ULL, 0xfc59ddfc072ae1dfULL, 0xbb0f1d5ad544553eULL}},
    {"graph/Emilia_923p",
     {0x98fe40c0e13d9f7aULL, 0x4b9bc6b959dc466bULL, 0x34654eed12747f32ULL}},
    {"graph/bone010p",
     {0x8bd45a5cd1d08854ULL, 0x857907abc2ea051eULL, 0x9455f8a55d1214b7ULL}},
    {"layout/bone010p",
     {0x0a0b90159f513539ULL, 0x8028f4ab6d38edd8ULL, 0x8e94fb7be25944b6ULL}},
    {"layout-all/Emilia_923p",
     {0x24fb41067827d1ffULL, 0xd072b92b20a56ffaULL, 0x2658bb1cf4c4f477ULL}},
    {"layout-all/bone010p",
     {0xef0622ed5ee2df9cULL, 0x86f337fd6d6e2782ULL, 0x43eec92fa8598443ULL}},
    {"layout-all/ldoorp-dead-3-11",
     {0xed99270274238ebeULL, 0x4613390b36556645ULL, 0x4c4985d0689bb658ULL}},
    {"mg/amg-af_5_k101p-ds-1",
     {0x1aab85b4b8daa0a3ULL, 0x835a62fb88aee5f9ULL, 0x6256a5ad07f19b48ULL}},
    {"mg/amg-af_5_k101p-ds-half",
     {0x0c5dbdb753d4326eULL, 0xcf9ed358a580fff8ULL, 0x6256a5ad07f19b48ULL}},
    {"mg/amg-af_5_k101p-gs",
     {0x980da48cd670f1faULL, 0x3d477d04d0d6d2eaULL, 0x6256a5ad07f19b48ULL}},
    {"mg/geo31-chebyshev",
     {0xfd3380ea067d1261ULL, 0xb4c0ea01bc204c45ULL, 0xb48cddd5d368d1d9ULL}},
    {"mg/geo31-ds-1",
     {0x573b6919d2e7c5adULL, 0xf27a32b259939177ULL, 0xb48cddd5d368d1d9ULL}},
    {"mg/geo31-ds-half",
     {0x9e20dde0955a53d6ULL, 0xd3f084bc17017ac7ULL, 0xb48cddd5d368d1d9ULL}},
    {"mg/geo31-gs",
     {0x7d2d05e61163d939ULL, 0x1e7c12fb5ed3fbf8ULL, 0xb48cddd5d368d1d9ULL}},
    {"mg/geo31-jacobi",
     {0xeacaaa1d1b5a7ecaULL, 0x3a13440c73038a74ULL, 0xb48cddd5d368d1d9ULL}},
    {"trace/async",
     {0xeb033ee35803624dULL, 0x0ce1d99bb7912f92ULL, 0xa2e4494052c7e743ULL}},
    {"trace/batch3",
     {0x7ef2feaf6892322fULL, 0xf31c32a091e5beb4ULL, 0x301ef5bc84148867ULL}},
    {"trace/bsp",
     {0x6bb9ea6b6ffc0cfeULL, 0xfa16d482669f401cULL, 0xd64058d2ae8e52ccULL}},
    {"trace/elastic-kill",
     {0x2303b5ab5a393571ULL, 0x40f16b748a073681ULL, 0xf98a6671d9e7a289ULL}},
    {"trace/faults",
     {0x7ebe2b97521b4823ULL, 0x6fe3a1b5c0e6ae90ULL, 0xfedd8f2770cacef0ULL}},
    {"trace/node-route",
     {0xa02ba3f87d6798f0ULL, 0xc8fe3312f1786f32ULL, 0x8c217d4011af4bc2ULL}},
};

std::string pinned_row(const std::string& name, const Digests& d) {
  char row[160];
  std::snprintf(row, sizeof row,
                "{\"%s\",\n {0x%016llxULL, 0x%016llxULL, 0x%016llxULL}},",
                name.c_str(), static_cast<unsigned long long>(d.residual),
                static_cast<unsigned long long>(d.x),
                static_cast<unsigned long long>(d.comm));
  return row;
}

void expect_pinned(const std::string& name, const Digests& got) {
  for (const auto& p : kPinned) {
    if (name != p.name) continue;
    EXPECT_EQ(got.residual, p.want.residual) << pinned_row(name, got);
    EXPECT_EQ(got.x, p.want.x) << pinned_row(name, got);
    EXPECT_EQ(got.comm, p.want.comm) << pinned_row(name, got);
    return;
  }
  ADD_FAILURE() << "no pinned digest for " << name << "\n"
                << pinned_row(name, got);
}

struct Problem {
  CsrMatrix a;
  std::vector<value_t> b, x0;
  graph::Partition part;
};

Problem make_problem(index_t nx, index_t ranks, std::uint64_t seed) {
  Problem p;
  p.a = sparse::symmetric_unit_diagonal_scale(sparse::poisson2d_5pt(nx, nx)).a;
  p.b.assign(static_cast<std::size_t>(p.a.rows()), 0.0);
  p.x0.resize(p.b.size());
  util::Rng rng(seed);
  rng.fill_uniform(p.x0, -1.0, 1.0);
  sparse::normalize_initial_residual(p.a, p.b, p.x0);
  p.part = graph::partition_recursive_bisection(
      graph::Graph::from_matrix_structure(p.a), ranks);
  return p;
}

struct Method {
  const char* tag;
  dist::DistMethod m;
};

constexpr Method kMethods[] = {
    {"BJ", dist::DistMethod::kBlockJacobi},
    {"MCBGS", dist::DistMethod::kMulticolorBlockGs},
    {"PS", dist::DistMethod::kParallelSouthwell},
    {"DS", dist::DistMethod::kDistributedSouthwell},
};

struct Config {
  const char* tag;
  dist::DistRunOptions opt;
};

std::vector<Config> configs() {
  dist::DistRunOptions base;
  base.max_parallel_steps = 20;
  std::vector<Config> out;
  out.push_back({"bsp", base});
  auto async = base;
  async.async = true;
  out.push_back({"async", async});
  auto faulty = base;
  faulty.resilience.enabled = true;
  faulty.faults.defaults.drop_probability = 0.05;
  faulty.faults.defaults.duplicate_probability = 0.05;
  faulty.faults.defaults.reorder_probability = 0.05;
  faulty.faults.defaults.corrupt_probability = 0.02;
  faulty.ds.heartbeat_period = 4;
  out.push_back({"faults", faulty});
  auto routed = base;
  routed.ranks_per_node = 2;  // 6 ranks on 3 nodes, leader-routed
  out.push_back({"node-route", routed});
  return out;
}

TEST(IterateDigests, EveryMethodUnderEveryConfiguration) {
  const auto p = make_problem(12, 6, 2024);
  const dist::DistLayout layout(p.a, p.part);
  for (const auto& cfg : configs()) {
    for (const auto& m : kMethods) {
      const auto r = dist::run_distributed(m.m, layout, p.b, p.x0, cfg.opt);
      const std::string name = std::string(m.tag) + "/" + cfg.tag;
      expect_pinned(name, digest_run(r));
      // Every record of a solo run is its own physical message.
      EXPECT_EQ(r.comm_totals.msgs, r.comm_totals.msgs_logical) << name;
    }
  }
}

TEST(IterateDigests, BatchedThreeTenants) {
  const auto p = make_problem(12, 6, 2025);
  const dist::DistLayout layout(p.a, p.part);
  const CsrMatrix a2 = sparse::make_tenant_variant(p.a, 0x5eed, 0.25);
  const dist::DistLayout layout2(a2, p.part);
  std::vector<value_t> b1(p.b.size(), 0.0), x1(p.x0.size());
  util::Rng rng(7);
  rng.fill_uniform(x1, -1.0, 1.0);
  sparse::normalize_initial_residual(p.a, b1, x1);
  const dist::DistLayout* layouts[] = {&layout, &layout, &layout2};
  const dist::TenantSpec specs[] = {
      {p.b, p.x0, 0.0}, {b1, x1, 0.0}, {p.b, p.x0, 0.0}};
  dist::DistRunOptions bsp;
  bsp.max_parallel_steps = 20;
  auto async = bsp;
  async.async = true;
  async.faults.defaults.drop_probability = 0.05;
  const Config batch_configs[] = {{"batch3", bsp}, {"batch3-async", async}};
  for (const auto& cfg : batch_configs) {
    for (const auto& m : kMethods) {
      const auto r = dist::run_distributed_batch(m.m, layouts, specs, cfg.opt);
      ASSERT_EQ(r.tenants.size(), 3u);
      std::uint64_t res = kFnvOffsetBasis, x = kFnvOffsetBasis;
      for (const auto& t : r.tenants) {
        res = fnv1a(res, digest(t.residual_norm));
        x = fnv1a(x, digest(t.final_x));
      }
      res = fnv1a(res, std::bit_cast<std::uint64_t>(r.model_time));
      expect_pinned(std::string(m.tag) + "/" + cfg.tag,
                    {res, x, digest(r.comm_totals)});
    }
  }
}

TEST(IterateDigests, ElasticSingleKill) {
  const auto p = make_problem(12, 6, 2026);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 20;
  opt.faults.kills.push_back({2, 5});
  elastic::RecoveryOptions rec;
  rec.checkpoint_every = 4;
  const auto er = elastic::run_elastic(dist::DistMethod::kDistributedSouthwell,
                                       p.a, p.part, p.b, p.x0, opt, rec);
  ASSERT_EQ(er.recoveries.size(), 1u);
  expect_pinned("DS/elastic-kill", digest_run(er.run));
  EXPECT_EQ(er.run.comm_totals.msgs, er.run.comm_totals.msgs_logical);
}

/// {‖r‖/‖r⁰‖ after each of nine V(1,1) cycles from x = 0, final x, every
/// level operator's CSR folded in order}.
Digests digest_multigrid(multigrid::Hierarchy& mg,
                         multigrid::Smoother& smoother,
                         std::span<const value_t> b) {
  const CsrMatrix& a = mg.level_matrix(0);
  std::vector<value_t> x(b.size(), 0.0), r(b.size());
  a.residual(b, x, r);
  const double r0 = sparse::norm2(r);
  std::vector<double> rel;
  for (int c = 0; c < 9; ++c) {
    mg.vcycle(b, x, smoother);
    a.residual(b, x, r);
    rel.push_back(sparse::norm2(r) / r0);
  }
  std::uint64_t ops = kFnvOffsetBasis;
  for (int l = 0; l < mg.num_levels(); ++l) {
    ops = fold(ops, digest_csr(mg.level_matrix(l)));
  }
  return {digest(rel), digest(x), ops};
}

std::unique_ptr<multigrid::Smoother> make_smoother(std::string_view tag) {
  if (tag == "gs") return multigrid::make_gauss_seidel_smoother();
  if (tag == "ds-half") {
    return multigrid::make_distributed_southwell_smoother(0.5);
  }
  if (tag == "ds-1") return multigrid::make_distributed_southwell_smoother(1.0);
  if (tag == "jacobi") return multigrid::make_jacobi_smoother();
  return multigrid::make_chebyshev_smoother();
}

std::vector<value_t> uniform_rhs(std::size_t n, std::uint64_t seed) {
  std::vector<value_t> b(n);
  util::Rng rng(seed);
  rng.fill_uniform(b, -1.0, 1.0);
  return b;
}

// The geometric 31² hierarchy under every smoother, and a three-level AMG
// hierarchy on a proxy under the three the smoothing benches compare.
TEST(IterateDigests, MultigridSmoothing) {
  auto geo = multigrid::geometric_poisson_hierarchy(31);
  const auto b_geo = uniform_rhs(31 * 31, 0x316);
  for (const char* tag : {"gs", "ds-half", "ds-1", "jacobi", "chebyshev"}) {
    expect_pinned(std::string("mg/geo31-") + tag,
                  digest_multigrid(geo, *make_smoother(tag), b_geo));
  }

  auto amg =
      multigrid::amg_hierarchy(sparse::make_proxy("af_5_k101p", 0.05).a);
  ASSERT_EQ(amg.level_matrix(0).rows(), 1600);
  ASSERT_EQ(amg.num_levels(), 3);
  const auto b_amg = uniform_rhs(1600, 0xAF5);
  for (const char* tag : {"gs", "ds-half", "ds-1"}) {
    expect_pinned(std::string("mg/amg-af_5_k101p-") + tag,
                  digest_multigrid(amg, *make_smoother(tag), b_amg));
  }
}

// The exported bytes of six traced DS runs: plain bulk-synchronous,
// faults with resilience, event-driven async, node routing, a B = 3 batch
// and an elastic single kill. Together they record every event kind.
TEST(TraceExportDigests, SixTracedRuns) {
  const auto p = make_problem(12, 6, 2027);
  const dist::DistLayout layout(p.a, p.part);
  const auto ds = dist::DistMethod::kDistributedSouthwell;
  for (auto cfg : configs()) {
    cfg.opt.trace.enabled = true;
    const auto r = dist::run_distributed(ds, layout, p.b, p.x0, cfg.opt);
    ASSERT_TRUE(r.trace_log);
    const std::string name = std::string("trace/") + cfg.tag;
    expect_pinned(name, digest_trace(*r.trace_log, name));
  }

  dist::DistRunOptions opt;
  opt.max_parallel_steps = 20;
  opt.trace.enabled = true;
  const dist::DistLayout* layouts[] = {&layout, &layout, &layout};
  std::vector<value_t> x1(p.x0.size());
  util::Rng rng(11);
  rng.fill_uniform(x1, -1.0, 1.0);
  const dist::TenantSpec specs[] = {
      {p.b, p.x0, 0.0}, {p.b, x1, 0.0}, {p.b, p.x0, 0.0}};
  const auto br = dist::run_distributed_batch(ds, layouts, specs, opt);
  ASSERT_TRUE(br.trace_log);
  expect_pinned("trace/batch3", digest_trace(*br.trace_log, "trace/batch3"));

  opt.faults.kills.push_back({2, 5});
  elastic::RecoveryOptions rec;
  rec.checkpoint_every = 4;
  const auto er =
      elastic::run_elastic(ds, p.a, p.part, p.b, p.x0, opt, rec);
  ASSERT_EQ(er.recoveries.size(), 1u);
  ASSERT_TRUE(er.run.trace_log);
  expect_pinned("trace/elastic-kill",
                digest_trace(*er.run.trace_log, "trace/elastic-kill"));
}

TEST(SetupDigests, EveryProxyCsr) {
  for (const auto& name : sparse::proxy_names()) {
    expect_pinned("csr/" + name, digest_csr(sparse::make_proxy(name, 0.05).a));
  }
  expect_pinned("csr/small-fem",
                digest_csr(sparse::make_small_fem_problem().a));
}

TEST(SetupDigests, GraphAndPartition) {
  for (const char* name : {"bone010p", "Emilia_923p"}) {
    const auto g =
        graph::Graph::from_matrix_structure(sparse::make_proxy(name, 0.05).a);
    std::vector<index_t> degrees, adjacency;
    for (index_t v = 0; v < g.num_vertices(); ++v) {
      degrees.push_back(g.degree(v));
      for (index_t w : g.neighbors(v)) adjacency.push_back(w);
    }
    const auto part = graph::partition_recursive_bisection(g, 16);
    expect_pinned(std::string("graph/") + name,
                  {digest(degrees), digest(adjacency), digest(part.part)});
  }
}

TEST(SetupDigests, LayoutBlocks) {
  const CsrMatrix a = sparse::make_proxy("bone010p", 0.05).a;
  const dist::DistLayout layout(
      a, graph::partition_recursive_bisection(
             graph::Graph::from_matrix_structure(a), 16));
  Digests d{kFnvOffsetBasis, kFnvOffsetBasis, kFnvOffsetBasis};
  for (int p = 0; p < layout.num_ranks(); ++p) {
    const dist::RankData& rd = layout.rank(p);
    d.residual = fold(d.residual, digest_csr(rd.a_local));
    for (const dist::NeighborBlock& nb : rd.neighbors) {
      d.x = fold(fold(d.x, digest_csr(nb.a_pq)), digest_csr(nb.a_qp));
      d.comm = fnv1a(fnv1a(fnv1a(d.comm, static_cast<std::uint64_t>(nb.rank)),
                           digest(nb.ghost_rows)),
                     digest(nb.send_rows_local));
    }
  }
  expect_pinned("layout/bone010p", d);
}

/// {rows and a_local per rank, boundary_rows per rank, coupling blocks
/// with their channel lists}.
Digests digest_layout(const dist::DistLayout& layout) {
  Digests d{kFnvOffsetBasis, kFnvOffsetBasis, kFnvOffsetBasis};
  for (int p = 0; p < layout.num_ranks(); ++p) {
    const dist::RankData& rd = layout.rank(p);
    d.residual = fold(fnv1a(d.residual, digest(rd.rows)),
                      digest_csr(rd.a_local));
    d.x = fnv1a(d.x, digest(rd.boundary_rows));
    for (const dist::NeighborBlock& nb : rd.neighbors) {
      d.comm = fnv1a(d.comm, static_cast<std::uint64_t>(nb.rank));
      d.comm = fnv1a(d.comm, digest(nb.ghost_rows));
      d.comm = fnv1a(d.comm, digest(nb.send_rows_local));
      d.comm = fold(fold(d.comm, digest_csr(nb.a_pq)), digest_csr(nb.a_qp));
    }
  }
  return d;
}

TEST(SetupDigests, LayoutRowListsAndMoreShapes) {
  // The bone layout of LayoutBlocks, with the row lists it leaves out.
  const CsrMatrix bone = sparse::make_proxy("bone010p", 0.05).a;
  expect_pinned("layout-all/bone010p",
                digest_layout(dist::DistLayout(
                    bone, graph::partition_recursive_bisection(
                              graph::Graph::from_matrix_structure(bone), 16))));
  // A 3-D proxy.
  const CsrMatrix emilia = sparse::make_proxy("Emilia_923p", 0.05).a;
  expect_pinned("layout-all/Emilia_923p",
                digest_layout(dist::DistLayout(
                    emilia,
                    graph::partition_recursive_bisection(
                        graph::Graph::from_matrix_structure(emilia), 16))));
  // After a failure: parts 3 and 11 are empty, so two ranks own no rows.
  const CsrMatrix ldoor = sparse::make_proxy("ldoorp", 0.05).a;
  const auto g = graph::Graph::from_matrix_structure(ldoor);
  const std::vector<index_t> dead = {3, 11};
  const auto part = graph::repartition_after_failure(
      g, graph::partition_recursive_bisection(g, 16), dead);
  const dist::DistLayout layout(ldoor, part);
  ASSERT_EQ(layout.rank(3).num_rows(), 0);
  ASSERT_EQ(layout.rank(11).num_rows(), 0);
  expect_pinned("layout-all/ldoorp-dead-3-11", digest_layout(layout));
}

}  // namespace
}  // namespace dsouth
