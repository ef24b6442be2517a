#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/run_trace.hpp"
#include "dist/batch.hpp"
#include "dist/driver.hpp"
#include "elastic/elastic.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "simmpi/rank_context.hpp"
#include "simmpi/runtime.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace dsouth::trace {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry.
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, RegisterIsIdempotentAndFindable) {
  MetricsRegistry m(4);
  const MetricId a = m.register_metric("x.count", MetricKind::kCounter);
  const MetricId b = m.register_metric("x.count", MetricKind::kCounter);
  EXPECT_EQ(a, b);
  EXPECT_EQ(m.find("x.count"), a);
  EXPECT_EQ(m.find("missing"), kInvalidMetric);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.name(a), "x.count");
  EXPECT_EQ(m.kind(a), MetricKind::kCounter);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry m(2);
  m.register_metric("v", MetricKind::kCounter);
  EXPECT_THROW(m.register_metric("v", MetricKind::kGauge), util::CheckError);
}

TEST(MetricsRegistry, CounterAndGaugeSemantics) {
  MetricsRegistry m(3);
  const MetricId c = m.register_metric("c", MetricKind::kCounter);
  const MetricId g = m.register_metric("g", MetricKind::kGauge);
  m.add(c, 0, 2.0);
  m.add(c, 0, 3.0);
  m.add(c, 2, 1.0);
  m.set(g, 1, 7.0);
  m.set(g, 1, 9.0);
  EXPECT_EQ(m.value(c, 0), 5.0);
  EXPECT_EQ(m.value(c, 1), 0.0);
  EXPECT_EQ(m.total(c), 6.0);
  EXPECT_EQ(m.value(g, 1), 9.0);  // last write wins
  EXPECT_EQ(m.per_rank(c), (std::vector<double>{5.0, 0.0, 1.0}));
}

TEST(MetricsRegistry, InvalidIdIsANoOp) {
  MetricsRegistry m(2);
  m.add(kInvalidMetric, 0, 1.0);  // must not crash or register anything
  m.set(kInvalidMetric, 1, 1.0);
  EXPECT_EQ(m.size(), 0u);
}

TEST(MetricsRegistry, ConcurrentPerRankWritersAreExact) {
  // The registry's thread contract (one writer per rank slot, no atomics)
  // is what the threaded backend relies on; hammer it from real threads.
  constexpr int kRanks = 8;
  constexpr int kAdds = 20000;
  MetricsRegistry m(kRanks);
  const auto id = m.register_metric("test.hits", MetricKind::kCounter);
  std::vector<std::thread> threads;
  threads.reserve(kRanks);
  for (int rank = 0; rank < kRanks; ++rank) {
    threads.emplace_back([&m, id, rank] {
      for (int i = 0; i < kAdds; ++i) m.add(id, rank, 1.0);
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(m.find("test.hits"), id);
  EXPECT_EQ(m.total(id), static_cast<double>(kRanks) * kAdds);
  for (int rank = 0; rank < kRanks; ++rank) {
    EXPECT_EQ(m.value(id, rank), kAdds);
  }
}

// ---------------------------------------------------------------------------
// Tracer: lane merge ordering and ring-drop behavior.
// ---------------------------------------------------------------------------

TEST(Tracer, FenceMergesLanesInRankThenRecordOrder) {
  Tracer t(3);
  // Record out of rank order; the merge must come back rank-ascending,
  // FIFO within a rank, with the fence event appended last.
  t.record(2, EventKind::kRelax, -1, -1, 1.0, 0.0, 0, 0.0);
  t.record(0, EventKind::kRelax, -1, -1, 2.0, 0.0, 0, 0.0);
  t.record(2, EventKind::kPut, 0, 0, 3.0, 0.0, 0, 0.0);
  t.end_epoch(0, 0.5, 0.5, 1);
  const auto& ev = t.events();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[0].rank, 0);
  EXPECT_EQ(ev[1].rank, 2);
  EXPECT_EQ(ev[1].kind, EventKind::kRelax);
  EXPECT_EQ(ev[2].rank, 2);
  EXPECT_EQ(ev[2].kind, EventKind::kPut);
  EXPECT_EQ(ev[3].kind, EventKind::kFence);
  EXPECT_EQ(ev[3].rank, -1);
  // An event's seq is its index in the log: the export numbers the merged
  // stream densely.
  std::ostringstream os;
  write_jsonl(os, t.take_log());
  std::istringstream lines(os.str());
  std::string line;
  std::getline(lines, line);  // header
  for (std::size_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"seq\":" + std::to_string(k) + ","),
              std::string::npos)
        << line;
  }
}

TEST(Tracer, RejectsEpochsAndTagsAnEventCannotHold) {
  Tracer t(1);
  EXPECT_THROW(t.record(0, EventKind::kRelax, -1, -1, 0.0, 0.0, kEpochEnd,
                        0.0),
               util::CheckError);
  EXPECT_THROW(t.record(0, EventKind::kPut, 0, kTagEnd, 0.0, 0.0, 0, 0.0),
               util::CheckError);
  EXPECT_THROW(t.record(0, EventKind::kPut, 0, -2, 0.0, 0.0, 0, 0.0),
               util::CheckError);
  EXPECT_THROW(t.end_epoch(kEpochEnd, 0.0, 0.0, 0), util::CheckError);
  // The largest values that fit are stored exactly.
  t.record(0, EventKind::kPut, 0, kTagEnd - 1, 0.0, 0.0, kEpochEnd - 1, 0.0);
  t.end_epoch(kEpochEnd - 1, 0.0, 0.0, 1);
  const auto& ev = t.events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].tag, kTagEnd - 1);
  EXPECT_EQ(ev[0].epoch, kEpochEnd - 1);
  EXPECT_EQ(ev[1].epoch, kEpochEnd - 1);
}

// ---------------------------------------------------------------------------
// EventLog: the one store of merged events.
// ---------------------------------------------------------------------------

static_assert(sizeof(Event) == 40, "trace::Event is a 40-byte record");

TEST(EventLog, GrowsInChunksWithoutMovingEvents) {
  EventLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.begin(), log.end());
  const std::size_t n = 2 * EventLog::kChunkEvents + 5;
  std::vector<Event> batch(n);
  for (std::size_t i = 0; i < n; ++i) batch[i].a0 = static_cast<double>(i);
  log.append(std::span<const Event>(batch).first(3));
  const Event* first = &log[0];
  log.append(std::span<const Event>(batch).subspan(3));  // spans 3 chunks
  ASSERT_EQ(log.size(), n);
  EXPECT_EQ(&log[0], first);  // growth never moves a stored event
  std::size_t k = 0;
  for (const Event& e : log) {
    EXPECT_EQ(&e, &log[k]);  // iteration visits events in index order
    EXPECT_EQ(e.a0, static_cast<double>(k));
    ++k;
  }
  EXPECT_EQ(k, n);
  EXPECT_EQ(log.back().a0, static_cast<double>(n - 1));
  log.push_back(batch[0]);
  EXPECT_EQ(&log[0], first);
  EXPECT_EQ(log.size(), n + 1);
}

TEST(EventLog, CopiesShareChunksAndCopyASharedTailOnAppend) {
  const std::size_t full = EventLog::kChunkEvents;
  EventLog a;
  Event e;
  for (std::size_t i = 0; i < full + 10; ++i) {
    e.a0 = static_cast<double>(i);
    a.push_back(e);
  }
  EventLog b = a;
  EXPECT_EQ(&b[0], &a[0]);        // the full chunk is shared
  EXPECT_EQ(&b[full], &a[full]);  // so is the tail, until an append
  e.a0 = -1.0;
  b.push_back(e);
  EXPECT_EQ(&b[0], &a[0]);        // full chunks stay shared
  EXPECT_NE(&b[full], &a[full]);  // b took its own copy of the tail
  const Event* a_tail = &a[full];
  e.a0 = -2.0;
  a.push_back(e);  // a now holds its tail alone and appends in place
  EXPECT_EQ(&a[full], a_tail);
  ASSERT_EQ(a.size(), full + 11);
  ASSERT_EQ(b.size(), full + 11);
  EXPECT_EQ(a.back().a0, -2.0);
  EXPECT_EQ(b.back().a0, -1.0);
  for (std::size_t i = 0; i < full + 10; ++i) {
    EXPECT_EQ(a[i].a0, static_cast<double>(i));
    EXPECT_EQ(b[i].a0, static_cast<double>(i));
  }
}

TEST(Tracer, LanesKeepEveryEvent) {
  // More events in one epoch than an EventLog chunk holds: a lane keeps
  // them all, and the fence merges them in record order.
  constexpr int kEvents = 5000;
  Tracer t(1);
  for (int k = 0; k < kEvents; ++k) {
    t.record(0, EventKind::kRelax, -1, -1, static_cast<double>(k), 0.0, 0,
             0.0);
  }
  t.end_epoch(0, 0.0, 0.0, 0);
  const auto log = t.take_log();
  ASSERT_EQ(log.events.size(), static_cast<std::size_t>(kEvents) + 1);
  for (int k = 0; k < kEvents; ++k) {
    ASSERT_EQ(log.events[static_cast<std::size_t>(k)].a0,
              static_cast<double>(k));
  }
  EXPECT_EQ(log.events.back().kind, EventKind::kFence);
}

TEST(Tracer, FlushCollectsPostFenceEvents) {
  Tracer t(2);
  t.end_epoch(0, 0.0, 0.0, 0);
  // The absorb phase runs after the fence; its events sit in lanes until
  // the next fence — or a final flush.
  t.record(1, EventKind::kAbsorb, -1, -1, 2.0, 8.0, 1, 0.0);
  t.flush();
  const auto& ev = t.events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[1].kind, EventKind::kAbsorb);
  EXPECT_EQ(ev[1].epoch, 1u);
}

// ---------------------------------------------------------------------------
// Runtime integration: put/fence hooks and the simmpi.* metrics.
// ---------------------------------------------------------------------------

TEST(RuntimeTracing, PutAndFenceAreRecordedWithMetrics) {
  simmpi::Runtime rt(3);
  Tracer tracer(3);
  rt.set_tracer(&tracer);
  simmpi::RankContext c0(rt, 0);
  const double payload[3] = {1.0, 2.0, 3.0};
  c0.put(2, simmpi::MsgTag::kSolve, payload);
  c0.put(1, simmpi::MsgTag::kResidual, std::span<const double>(payload, 1));
  rt.fence();

  const auto& ev = tracer.events();
  ASSERT_EQ(ev.size(), 3u);  // 2 puts + fence
  EXPECT_EQ(ev[0].kind, EventKind::kPut);
  EXPECT_EQ(ev[0].rank, 0);
  EXPECT_EQ(ev[0].peer, 2);
  EXPECT_EQ(ev[0].tag, 0);
  EXPECT_EQ(ev[0].a0, 3.0);  // payload doubles
  EXPECT_EQ(ev[1].peer, 1);
  EXPECT_EQ(ev[1].tag, 1);
  EXPECT_EQ(ev[2].kind, EventKind::kFence);
  EXPECT_EQ(ev[2].a1, 2.0);  // epoch messages

  const auto& m = tracer.metrics();
  EXPECT_EQ(m.total(m.find("simmpi.msgs_sent")), 2.0);
  EXPECT_EQ(m.value(m.find("simmpi.msgs_sent"), 0), 2.0);
  EXPECT_EQ(m.total(m.find("simmpi.msgs_solve")), 1.0);
  EXPECT_EQ(m.total(m.find("simmpi.msgs_residual")), 1.0);
  EXPECT_EQ(m.total(m.find("simmpi.msgs_other")), 0.0);
  EXPECT_GT(m.total(m.find("simmpi.bytes_sent")), 0.0);
  rt.set_tracer(nullptr);
}

TEST(RuntimeTracing, RankCountMismatchIsRejected) {
  simmpi::Runtime rt(3);
  Tracer tracer(2);
  EXPECT_THROW(rt.set_tracer(&tracer), util::CheckError);
}

// ---------------------------------------------------------------------------
// Minimal JSON validity checker for the exporter tests (structure only; no
// value model). Accepts exactly the RFC 8259 grammar the exporters emit.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') return ++pos_, true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            ++pos_;
            if (pos_ >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }
  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

bool is_valid_json(std::string_view s) { return JsonChecker(s).valid(); }

TEST(JsonChecker, SelfTest) {
  EXPECT_TRUE(is_valid_json(R"({"a": [1, -2.5e3, "x\n"], "b": null})"));
  EXPECT_FALSE(is_valid_json(R"({"a": })"));
  EXPECT_FALSE(is_valid_json(R"({"a": 1} trailing)"));
  EXPECT_FALSE(is_valid_json("{'a': 1}"));
  EXPECT_FALSE(is_valid_json(R"([1,])"));
}

}  // namespace
}  // namespace dsouth::trace

// ---------------------------------------------------------------------------
// End-to-end: traced distributed runs. The merged trace stream — and hence
// the default exporter output — must be byte-identical across execution
// backends and thread counts, for every solver and rank count; the per-tag
// trace counters must reproduce the CommStats breakdown exactly; and
// tracing must be invisible to the simulation itself.
// ---------------------------------------------------------------------------

namespace dsouth::dist {
namespace {

struct Problem {
  CsrMatrix a;
  std::vector<value_t> b, x0;
  graph::Partition part;
};

Problem make_problem(index_t nx, index_t k, std::uint64_t seed) {
  Problem p;
  p.a = sparse::symmetric_unit_diagonal_scale(sparse::poisson2d_5pt(nx, nx)).a;
  p.b.assign(static_cast<std::size_t>(p.a.rows()), 0.0);
  p.x0.resize(p.b.size());
  util::Rng rng(seed);
  rng.fill_uniform(p.x0, -1.0, 1.0);
  sparse::normalize_initial_residual(p.a, p.b, p.x0);
  auto g = graph::Graph::from_matrix_structure(p.a);
  p.part = graph::partition_recursive_bisection(g, k);
  return p;
}

std::string jsonl_of(const trace::TraceLog& log,
                     const trace::TraceExportOptions& opt = {}) {
  std::ostringstream os;
  trace::write_jsonl(os, log, opt);
  return os.str();
}

std::string chrome_of(const trace::TraceLog& log) {
  std::ostringstream os;
  trace::write_chrome_trace(os, log);
  return os.str();
}

class TraceDeterminism
    : public ::testing::TestWithParam<std::tuple<DistMethod, index_t>> {};

TEST_P(TraceDeterminism, ExportIsByteIdenticalAcrossBackends) {
  const auto [method, nranks] = GetParam();
  auto p = make_problem(10, nranks, 23 + static_cast<std::uint64_t>(nranks));

  DistRunOptions opt;
  opt.max_parallel_steps = 12;
  opt.trace.enabled = true;

  DistRunOptions seq_opt = opt;
  seq_opt.backend = simmpi::BackendKind::kSequential;
  auto seq = run_distributed(method, p.a, p.part, p.b, p.x0, seq_opt);

  DistRunOptions thr_opt = opt;
  thr_opt.backend = simmpi::BackendKind::kThreadPool;
  thr_opt.num_threads = 4;
  auto thr = run_distributed(method, p.a, p.part, p.b, p.x0, thr_opt);

  ASSERT_TRUE(seq.trace_log);
  ASSERT_TRUE(thr.trace_log);
  EXPECT_GT(seq.trace_log->events.size(), 0u);

  // Default exports (no wall clock) are pure functions of the deterministic
  // trace, so a string comparison is the whole determinism check.
  EXPECT_EQ(jsonl_of(*seq.trace_log), jsonl_of(*thr.trace_log));
  EXPECT_EQ(chrome_of(*seq.trace_log), chrome_of(*thr.trace_log));
}

TEST_P(TraceDeterminism, StreamIsWellFormed) {
  const auto [method, nranks] = GetParam();
  auto p = make_problem(8, nranks, 31);
  DistRunOptions opt;
  opt.max_parallel_steps = 8;
  opt.trace.enabled = true;
  auto r = run_distributed(method, p.a, p.part, p.b, p.x0, opt);
  ASSERT_TRUE(r.trace_log);
  const auto& ev = r.trace_log->events;
  std::uint64_t last_epoch = 0;
  auto it = ev.begin();
  for (std::size_t k = 0; k < ev.size(); ++k, ++it) {
    EXPECT_EQ(&*it, &ev[k]);  // iteration visits events in seq (index) order
    EXPECT_GE(ev[k].epoch, last_epoch);  // epochs are nondecreasing
    last_epoch = ev[k].epoch;
    switch (ev[k].kind) {
      case trace::EventKind::kPut:
        EXPECT_GE(ev[k].peer, 0);
        EXPECT_GE(ev[k].tag, 0);
        EXPECT_GE(ev[k].rank, 0);
        break;
      case trace::EventKind::kFence:
        EXPECT_EQ(ev[k].rank, -1);
        break;
      default:
        EXPECT_GE(ev[k].rank, 0);
        EXPECT_EQ(ev[k].peer, -1);
        break;
    }
  }
  EXPECT_EQ(it, ev.end());
}

INSTANTIATE_TEST_SUITE_P(
    AllMethodsRanks, TraceDeterminism,
    ::testing::Combine(
        ::testing::Values(DistMethod::kBlockJacobi,
                          DistMethod::kParallelSouthwell,
                          DistMethod::kDistributedSouthwell,
                          DistMethod::kMulticolorBlockGs),
        ::testing::Values<index_t>(1, 4, 13)),
    [](const auto& info) {
      return std::string(method_name(std::get<0>(info.param))) + "_P" +
             std::to_string(std::get<1>(info.param));
    });

// Exporter output parses as JSON: every JSONL line and the whole Chrome
// document (which is what Perfetto ingests).
TEST(TraceExport, JsonlAndChromeAreValidJson) {
  auto p = make_problem(8, 4, 7);
  DistRunOptions opt;
  opt.max_parallel_steps = 6;
  opt.trace.enabled = true;
  auto r = run_distributed(DistMethod::kDistributedSouthwell, p.a, p.part,
                           p.b, p.x0, opt);
  ASSERT_TRUE(r.trace_log);

  trace::TraceExportOptions eopt;
  eopt.run_label = "unit \"quoted\" label\n";
  std::istringstream lines(jsonl_of(*r.trace_log, eopt));
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(trace::is_valid_json(line)) << "line " << count << ": "
                                            << line;
    ++count;
  }
  // header + every event + every metric.
  EXPECT_EQ(count, 1 + r.trace_log->events.size() +
                       r.trace_log->metrics.size());

  EXPECT_TRUE(trace::is_valid_json(chrome_of(*r.trace_log)));
}

// The run label is the one name the Chrome writer takes from its caller;
// add_run writes it as the process name. A hostile label comes out
// escaped, and a strict JSON parser reads it back exactly.
TEST(ChromeTraceWriter, EscapesSpanAndThreadNames) {
  auto p = make_problem(8, 4, 7);
  DistRunOptions opt;
  opt.max_parallel_steps = 6;
  opt.trace.enabled = true;
  auto r = run_distributed(DistMethod::kDistributedSouthwell, p.a, p.part,
                           p.b, p.x0, opt);
  ASSERT_TRUE(r.trace_log);
  const std::string hostile = "ph\"ase\\ with\nnewline\tand\x01" "ctl";
  trace::TraceExportOptions eopt;
  eopt.run_label = hostile;
  std::ostringstream os;
  trace::ChromeTraceWriter writer(os);
  writer.add_run(*r.trace_log, eopt);
  writer.finish();

  const std::string out = os.str();
  EXPECT_NE(out.find("ph\\\"ase\\\\ with\\nnewline\\tand\\u0001ctl"),
            std::string::npos);
  const auto doc = util::parse_json(out);
  int process_names = 0, label_hits = 0;
  for (const auto& ev : doc.at("traceEvents").as_array()) {
    const auto* name = ev.find("name");
    const auto* args = ev.find("args");
    const auto* arg_name = args ? args->find("name") : nullptr;
    if (arg_name && arg_name->as_string() == hostile) {
      ++label_hits;
      if (name && name->as_string() == "process_name") ++process_names;
    }
  }
  EXPECT_EQ(label_hits, 1);     // the label appears once, unmangled...
  EXPECT_EQ(process_names, 1);  // ...as the run's process name
}

// The Table-3 cross-check: per-tag trace counters reproduce the CommStats
// communication breakdown exactly (they share no code path past put()).
TEST(TraceMetrics, PerTagCountersMatchCommStatsExactly) {
  auto p = make_problem(10, 13, 3);
  for (auto method : {DistMethod::kParallelSouthwell,
                      DistMethod::kDistributedSouthwell}) {
    DistRunOptions opt;
    opt.max_parallel_steps = 15;
    opt.trace.enabled = true;
    auto r = run_distributed(method, p.a, p.part, p.b, p.x0, opt);
    ASSERT_TRUE(r.trace_log);
    const auto& m = r.trace_log->metrics;
    const double pcount = static_cast<double>(r.num_ranks);
    EXPECT_EQ(m.total(m.find("simmpi.msgs_solve")) / pcount,
              r.solve_comm.back());
    EXPECT_EQ(m.total(m.find("simmpi.msgs_residual")) / pcount,
              r.res_comm.back());
    EXPECT_EQ(m.total(m.find("simmpi.msgs_sent")) / pcount,
              r.comm_cost.back());
    // Event counts agree with the counters.
    std::size_t puts = 0;
    for (const auto& ev : r.trace_log->events) {
      puts += ev.kind == trace::EventKind::kPut;
    }
    EXPECT_EQ(static_cast<double>(puts), m.total(m.find("simmpi.msgs_sent")));
  }
}

// DS-specific counters mirror the solver's own per-rank tallies.
TEST(TraceMetrics, DistributedSouthwellCountersMatchSolver) {
  auto p = make_problem(10, 8, 5);
  DistRunOptions opt;
  opt.max_parallel_steps = 15;
  opt.trace.enabled = true;
  opt.ds.send_threshold = 0.05;  // exercise the deferral counter too
  auto r = run_distributed(DistMethod::kDistributedSouthwell, p.a, p.part,
                           p.b, p.x0, opt);
  ASSERT_TRUE(r.trace_log);
  const auto& m = r.trace_log->metrics;
  // res_comm counts exactly the correction messages, so the ds counter must
  // agree with the runtime's per-tag stats.
  EXPECT_EQ(m.total(m.find("ds.corrections_sent")),
            m.total(m.find("simmpi.msgs_residual")));
  EXPECT_NE(m.find("ds.deferred_sends"), trace::kInvalidMetric);
}

// Tracing must be invisible: the simulation's results with tracing enabled
// are bit-identical to a run without it, and a run without it carries no
// trace log.
TEST(TraceOverhead, TracingDoesNotPerturbTheSimulation) {
  auto p = make_problem(10, 6, 11);
  DistRunOptions off;
  off.max_parallel_steps = 12;
  auto a = run_distributed(DistMethod::kDistributedSouthwell, p.a, p.part,
                           p.b, p.x0, off);
  EXPECT_FALSE(a.trace_log);

  DistRunOptions on = off;
  on.trace.enabled = true;
  auto b = run_distributed(DistMethod::kDistributedSouthwell, p.a, p.part,
                           p.b, p.x0, on);
  ASSERT_TRUE(b.trace_log);

  EXPECT_EQ(a.residual_norm, b.residual_norm);
  EXPECT_EQ(a.model_time, b.model_time);
  EXPECT_EQ(a.comm_cost, b.comm_cost);
  EXPECT_EQ(a.solve_comm, b.solve_comm);
  EXPECT_EQ(a.res_comm, b.res_comm);
  EXPECT_EQ(a.relaxations, b.relaxations);
  EXPECT_EQ(a.final_x, b.final_x);
}

// ---------------------------------------------------------------------------
// One schema: every traced run, whatever it turns on, writes the same header
// version and the same ordered simmpi.* metric set, and each feature's event
// tallies equal its counters (both zero when the feature is off).
// ---------------------------------------------------------------------------

std::uint64_t metric_total(const analysis::RunTrace& run, const char* name) {
  const auto* m = run.find_metric(name);
  EXPECT_NE(m, nullptr) << name;
  return m ? static_cast<std::uint64_t>(m->total()) : 0;
}

TEST(TraceSchema, EveryFeatureWritesOneVersionAndCounterSet) {
  auto p = make_problem(12, 8, 91);
  const auto method = DistMethod::kDistributedSouthwell;
  DistRunOptions base;
  base.max_parallel_steps = 16;
  base.trace.enabled = true;

  struct SchemaRun {
    const char* name;
    trace::EventKind feature;  ///< the run must record events of this kind
    std::shared_ptr<const trace::TraceLog> log;
  };
  std::vector<SchemaRun> runs;
  runs.push_back({"plain", trace::EventKind::kPut,
                  run_distributed(method, p.a, p.part, p.b, p.x0, base)
                      .trace_log});

  DistRunOptions faulty = base;
  faulty.faults.defaults.drop_probability = 0.05;
  faulty.faults.defaults.duplicate_probability = 0.05;
  faulty.faults.defaults.reorder_probability = 0.05;
  faulty.faults.defaults.corrupt_probability = 0.05;
  faulty.resilience.enabled = true;
  runs.push_back({"faults", trace::EventKind::kFault,
                  run_distributed(method, p.a, p.part, p.b, p.x0, faulty)
                      .trace_log});

  DistRunOptions async = base;
  async.async = true;
  runs.push_back({"async", trace::EventKind::kDeliver,
                  run_distributed(method, p.a, p.part, p.b, p.x0, async)
                      .trace_log});

  DistRunOptions node = base;
  node.ranks_per_node = 2;
  node.node_route = true;
  runs.push_back({"node", trace::EventKind::kHop,
                  run_distributed(method, p.a, p.part, p.b, p.x0, node)
                      .trace_log});

  DistLayout layout(p.a, p.part);
  const DistLayout* layouts[] = {&layout};
  const TenantSpec specs[] = {
      {p.b, p.x0, 0.0}, {p.b, p.x0, 0.0}, {p.b, p.x0, 0.0}};
  runs.push_back({"batch", trace::EventKind::kPut,
                  run_distributed_batch(method, layouts, specs, base)
                      .trace_log});

  DistRunOptions killed = base;
  killed.faults.kills.push_back({3, 6});
  elastic::RecoveryOptions rec;
  rec.checkpoint_every = 4;
  runs.push_back(
      {"elastic", trace::EventKind::kElastic,
       elastic::run_elastic(method, p.a, p.part, p.b, p.x0, killed, rec)
           .run.trace_log});

  std::vector<std::string> first_names;
  for (const auto& r : runs) {
    SCOPED_TRACE(r.name);
    ASSERT_TRUE(r.log);
    const std::string text = jsonl_of(*r.log);
    const auto header = util::parse_json(text.substr(0, text.find('\n')));
    EXPECT_EQ(header.at("version").as_int(), trace::kTraceVersion);
    const auto parsed = analysis::parse_jsonl(text);
    ASSERT_EQ(parsed.size(), 1u);
    const analysis::RunTrace& run = parsed[0];

    std::vector<std::string> names;
    for (const auto& m : run.metrics) {
      if (m.name.rfind("simmpi.", 0) == 0) names.push_back(m.name);
    }
    if (first_names.empty()) first_names = names;
    EXPECT_EQ(names, first_names);

    std::array<std::uint64_t, trace::kNumEventKinds> by_kind{};
    std::array<std::uint64_t, 7> fault_actions{};
    std::uint64_t staleness = 0, intra = 0, inter = 0, frames = 0;
    for (const auto& e : run.events) {
      ++by_kind[static_cast<std::size_t>(e.kind)];
      if (e.kind == trace::EventKind::kFault) {
        ++fault_actions.at(static_cast<std::size_t>(e.tag));
      } else if (e.kind == trace::EventKind::kDeliver) {
        staleness += static_cast<std::uint64_t>(e.a0);
      } else if (e.kind == trace::EventKind::kHop) {
        ++(trace::hop_is_inter(e.tag) ? inter : intra);
        frames += e.tag == trace::kHopInterLeader;
      }
    }
    EXPECT_GT(by_kind[static_cast<std::size_t>(r.feature)], 0u);
    // Fault action codes as trace.hpp documents them (5 = stall has no
    // counter).
    EXPECT_EQ(fault_actions[0], metric_total(run, "simmpi.faults_dropped"));
    EXPECT_EQ(fault_actions[1],
              metric_total(run, "simmpi.faults_duplicated"));
    EXPECT_EQ(fault_actions[2], metric_total(run, "simmpi.faults_reordered"));
    EXPECT_EQ(fault_actions[3] + fault_actions[4],
              metric_total(run, "simmpi.faults_corrupted"));
    EXPECT_EQ(fault_actions[6], metric_total(run, "simmpi.faults_killed"));
    EXPECT_EQ(by_kind[static_cast<std::size_t>(trace::EventKind::kDeliver)],
              metric_total(run, "simmpi.async_delivered"));
    EXPECT_EQ(staleness, metric_total(run, "simmpi.async_staleness_sum"));
    EXPECT_EQ(intra, metric_total(run, "simmpi.node_msgs_intra"));
    EXPECT_EQ(inter, metric_total(run, "simmpi.node_msgs_inter"));
    EXPECT_EQ(frames, metric_total(run, "simmpi.node_forward_frames"));
  }
}

}  // namespace
}  // namespace dsouth::dist
