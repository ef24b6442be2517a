#include "analysis/analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace dsouth::analysis {

namespace {

/// Per-(rank, epoch) accumulators, rebuilt the way the runtime builds its
/// own per-epoch counters: walk the stream in seq order, add each event to
/// its recording rank's slot, and close the epoch at the fence event. The
/// stream's merge order (rank-ascending, FIFO per rank within an epoch)
/// makes the floating-point flop sums reproduce the runtime's bit-exactly.
struct EpochScan {
  struct RankSlot {
    double flops = 0.0;
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
    // Physical-hop tier accumulators (node-aware traces; see tiered
    // below). Filled from "hop" events; zero otherwise.
    std::uint64_t msgs_intra = 0;
    std::uint64_t bytes_intra = 0;
    std::uint64_t msgs_inter = 0;
    std::uint64_t bytes_inter = 0;
  };

  std::vector<RankSlot> slots;
  /// True when the trace carries hop events: the runtime then charged the
  /// machine model per physical hop (rank_cost_tiered), with puts only
  /// contributing the logical view, so cost rebuilds must read the hop
  /// accumulators instead of the put ones. A whole-trace property — the
  /// topology is attached for the full run.
  bool tiered = false;

  explicit EpochScan(const RunTrace& run)
      : slots(static_cast<std::size_t>(run.num_ranks)) {
    for (const trace::Event& e : run.events) {
      if (e.kind == trace::EventKind::kHop) {
        tiered = true;
        break;
      }
    }
  }

  void add(const trace::Event& e) {
    DSOUTH_CHECK(e.rank >= 0 &&
                 e.rank < static_cast<std::int32_t>(slots.size()));
    RankSlot& s = slots[static_cast<std::size_t>(e.rank)];
    switch (e.kind) {
      case trace::EventKind::kCompute:
        s.flops += e.a0;
        break;
      case trace::EventKind::kPut:
        s.msgs += 1;
        s.bytes += static_cast<std::uint64_t>(e.a1);
        break;
      case trace::EventKind::kHop:
        if (trace::hop_is_inter(e.tag)) {
          s.msgs_inter += 1;
          s.bytes_inter += static_cast<std::uint64_t>(e.a0);
        } else {
          s.msgs_intra += 1;
          s.bytes_intra += static_cast<std::uint64_t>(e.a0);
        }
        break;
      default:
        break;
    }
  }

  /// The rank's modeled busy cost, matching the runtime's charging path
  /// for this trace (rank_cost_tiered under a topology, rank_cost
  /// otherwise). Integer hop tallies make the tiered rebuild
  /// order-independent, so both paths land on the fence's doubles
  /// bit-exactly.
  double rank_cost(const simmpi::MachineModel& model,
                   const RankSlot& s) const {
    if (tiered) {
      return model.rank_cost_tiered(s.flops, s.msgs_intra, s.bytes_intra,
                                    s.msgs_inter, s.bytes_inter);
    }
    return model.rank_cost(s.flops, s.msgs, s.bytes);
  }

  /// The rank's physical messages this epoch (the fence's γ-term count).
  std::uint64_t physical_msgs(const RankSlot& s) const {
    return tiered ? s.msgs_intra + s.msgs_inter : s.msgs;
  }

  void reset() {
    for (RankSlot& s : slots) s = RankSlot{};
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// (a) Timeline
// ---------------------------------------------------------------------------

TimelineReport analyze_timeline(const RunTrace& run,
                                const simmpi::MachineModel& model) {
  DSOUTH_CHECK(run.num_ranks > 0);
  const int p = run.num_ranks;
  TimelineReport rep;
  rep.num_ranks = p;
  rep.ranks.resize(static_cast<std::size_t>(p));

  EpochScan scan(run);
  for (const trace::Event& e : run.events) {
    if (e.kind == trace::EventKind::kFence) {
      // Close the epoch: charge each rank its busy split and the shared
      // wait remainder, and record the step's balance numbers.
      TimelineReport::Step step;
      step.epoch = e.epoch;
      step.epoch_seconds = e.a0;
      double sum_cost = 0.0;
      for (int r = 0; r < p; ++r) {
        const auto& s = scan.slots[static_cast<std::size_t>(r)];
        const double cost = scan.rank_cost(model, s);
        sum_cost += cost;
        if (cost > step.max_cost) {
          step.max_cost = cost;
          step.straggler = r;
        }
        auto& acc = rep.ranks[static_cast<std::size_t>(r)];
        acc.compute_seconds += s.flops * model.flop_time;
        if (scan.tiered) {
          // Tiered traces pay per physical hop: inter-node hops at the
          // headline α/β, intra-node hops at the intra tier.
          acc.send_seconds +=
              static_cast<double>(s.msgs_inter) * model.alpha +
              static_cast<double>(s.bytes_inter) * model.beta +
              static_cast<double>(s.msgs_intra) * model.alpha_intra +
              static_cast<double>(s.bytes_intra) * model.beta_intra;
        } else {
          acc.send_seconds += static_cast<double>(s.msgs) * model.alpha +
                              static_cast<double>(s.bytes) * model.beta;
        }
        acc.wait_seconds += step.epoch_seconds - cost;
      }
      step.mean_cost = sum_cost / static_cast<double>(p);
      if (step.max_cost == 0.0) step.straggler = -1;  // all-idle epoch
      rep.total_model_seconds += step.epoch_seconds;
      rep.steps.push_back(step);
      scan.reset();
      continue;
    }
    scan.add(e);
    auto& acc = rep.ranks[static_cast<std::size_t>(e.rank)];
    switch (e.kind) {
      case trace::EventKind::kRelax:
        acc.relax_phases += 1;
        acc.rows_relaxed += static_cast<std::uint64_t>(e.a0);
        break;
      case trace::EventKind::kAbsorb:
        acc.absorb_phases += 1;
        acc.absorbed_msgs += static_cast<std::uint64_t>(e.a0);
        break;
      case trace::EventKind::kPut:
        acc.msgs_sent += 1;
        break;
      default:
        break;
    }
  }

  if (!rep.steps.empty()) {
    double sum = 0.0;
    double mx = 0.0;
    for (const auto& s : rep.steps) {
      sum += s.imbalance();
      mx = std::max(mx, s.imbalance());
    }
    rep.max_imbalance = mx;
    rep.mean_imbalance = sum / static_cast<double>(rep.steps.size());
  }
  return rep;
}

// ---------------------------------------------------------------------------
// (b) Communication matrix
// ---------------------------------------------------------------------------

double CommMatrixReport::comm_cost() const {
  return static_cast<double>(total_msgs) / static_cast<double>(num_ranks);
}

double CommMatrixReport::comm_cost(simmpi::MsgTag tag) const {
  return static_cast<double>(total_by_tag[static_cast<std::size_t>(tag)]) /
         static_cast<double>(num_ranks);
}

const CommMatrixReport::Pair* CommMatrixReport::find(int src, int dst) const {
  // `pairs` is sorted (src, dst) ascending.
  const auto it = std::lower_bound(
      pairs.begin(), pairs.end(), std::pair<int, int>(src, dst),
      [](const Pair& a, const std::pair<int, int>& key) {
        if (a.src != key.first) return a.src < key.first;
        return a.dst < key.second;
      });
  if (it == pairs.end() || it->src != src || it->dst != dst) return nullptr;
  return &*it;
}

CommMatrixReport analyze_comm_matrix(const RunTrace& run) {
  DSOUTH_CHECK(run.num_ranks > 0);
  const int p = run.num_ranks;
  CommMatrixReport rep;
  rep.num_ranks = p;

  // Output-sensitive build: index touched (src, dst) cells in a flat
  // linear-probe table during the one event scan instead of materialising
  // the dense P×P matrix. DS only talks to graph neighbors, so this is
  // O(events + pairs), where the dense build's P² allocation and scan made
  // analysis bytes scale ~P² (bench/scaling). A flat table rather than
  // std::unordered_map because the map's one node allocation per pair
  // would put the analysis alloc *count* on an O(pairs)-growth curve of
  // its own; probing keeps it at a handful of geometric regrowths.
  constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};  // src has no
                                                           // sign bit
  const auto hash_key = [](std::uint64_t k) {
    k ^= k >> 33U;
    k *= 0xff51afd7ed558ccdULL;  // SplitMix64-style finalizer
    k ^= k >> 33U;
    return k;
  };
  std::vector<std::uint64_t> slot_key(64, kEmptySlot);
  std::vector<std::uint32_t> slot_idx(64);
  const auto find_slot = [&hash_key](const std::vector<std::uint64_t>& keys,
                                     std::uint64_t key) {
    const std::uint64_t mask = keys.size() - 1;  // size is a power of two
    std::size_t i = static_cast<std::size_t>(hash_key(key) & mask);
    while (keys[i] != kEmptySlot && keys[i] != key) {
      i = (i + 1) & mask;
    }
    return i;
  };

  for (const trace::Event& e : run.events) {
    if (e.kind != trace::EventKind::kPut) continue;
    DSOUTH_CHECK(e.rank >= 0 && e.rank < p && e.peer >= 0 && e.peer < p);
    DSOUTH_CHECK(e.tag >= 0 && e.tag < simmpi::kNumTags);
    const std::uint64_t key =
        (static_cast<std::uint64_t>(e.rank) << 32U) |
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.peer));
    if (2 * (rep.pairs.size() + 1) > slot_key.size()) {
      // Keep load factor ≤ 1/2: double and rehash.
      std::vector<std::uint64_t> grown_key(slot_key.size() * 2, kEmptySlot);
      std::vector<std::uint32_t> grown_idx(grown_key.size());
      for (std::size_t i = 0; i < slot_key.size(); ++i) {
        if (slot_key[i] == kEmptySlot) continue;
        const std::size_t j = find_slot(grown_key, slot_key[i]);
        grown_key[j] = slot_key[i];
        grown_idx[j] = slot_idx[i];
      }
      slot_key.swap(grown_key);
      slot_idx.swap(grown_idx);
    }
    const std::size_t slot = find_slot(slot_key, key);
    if (slot_key[slot] == kEmptySlot) {
      slot_key[slot] = key;
      slot_idx[slot] = static_cast<std::uint32_t>(rep.pairs.size());
      CommMatrixReport::Pair cell;
      cell.src = e.rank;
      cell.dst = e.peer;
      rep.pairs.push_back(cell);
    }
    auto& cell = rep.pairs[slot_idx[slot]];
    const auto bytes = static_cast<std::uint64_t>(e.a1);
    cell.msgs += 1;
    cell.bytes += bytes;
    cell.msgs_by_tag[static_cast<std::size_t>(e.tag)] += 1;
    rep.total_msgs += 1;
    rep.total_bytes += bytes;
    rep.total_by_tag[static_cast<std::size_t>(e.tag)] += 1;
  }

  // (src, dst) ascending — exactly the order the old dense row-major scan
  // emitted nonzero cells in, so comm_matrix_csv stays byte-identical.
  std::sort(rep.pairs.begin(), rep.pairs.end(),
            [](const CommMatrixReport::Pair& a,
               const CommMatrixReport::Pair& b) {
              if (a.src != b.src) return a.src < b.src;
              return a.dst < b.dst;
            });
  rep.hot_pairs = rep.pairs;
  std::sort(rep.hot_pairs.begin(), rep.hot_pairs.end(),
            [](const CommMatrixReport::Pair& a,
               const CommMatrixReport::Pair& b) {
              if (a.msgs != b.msgs) return a.msgs > b.msgs;
              if (a.bytes != b.bytes) return a.bytes > b.bytes;
              if (a.src != b.src) return a.src < b.src;
              return a.dst < b.dst;
            });
  return rep;
}

// ---------------------------------------------------------------------------
// (c) Critical path
// ---------------------------------------------------------------------------

const char* cost_term_name(CostTerm term) {
  switch (term) {
    case CostTerm::kCompute:
      return "compute";
    case CostTerm::kLatency:
      return "latency";
    case CostTerm::kBandwidth:
      return "bandwidth";
    case CostTerm::kNetwork:
      return "network";
    case CostTerm::kSync:
      return "sync";
    case CostTerm::kLatencyIntra:
      return "latency_intra";
    case CostTerm::kBandwidthIntra:
      return "bandwidth_intra";
  }
  return "?";
}

CriticalPathReport analyze_critical_path(const RunTrace& run,
                                         const simmpi::MachineModel& model) {
  DSOUTH_CHECK(run.num_ranks > 0);
  const int p = run.num_ranks;
  CriticalPathReport rep;
  rep.num_ranks = p;
  rep.straggler_epochs.assign(static_cast<std::size_t>(p), 0);
  rep.model_matches = true;

  EpochScan scan(run);
  rep.tiered = scan.tiered;
  std::uint64_t epoch_delivered = 0;
  std::uint64_t epoch_staleness_max = 0;
  for (const trace::Event& e : run.events) {
    if (e.kind != trace::EventKind::kFence) {
      // Non-fence delivery: a deliver event marks data maturing this
      // epoch whose send cost was charged when it was put —
      // tallied per step so the attribution can point at stale arrivals.
      if (e.kind == trace::EventKind::kDeliver) {
        epoch_delivered += 1;
        epoch_staleness_max =
            std::max(epoch_staleness_max, static_cast<std::uint64_t>(e.a0));
      }
      scan.add(e);
      continue;
    }
    CriticalPathReport::Step step;
    step.epoch = e.epoch;
    step.recorded_seconds = e.a0;
    step.async_delivered = epoch_delivered;
    step.async_staleness_max = epoch_staleness_max;
    epoch_delivered = 0;
    epoch_staleness_max = 0;
    // Reproduce the fence's accounting loop (runtime.cpp): running max in
    // rank order (so ties pick the lowest rank) and the epoch's aggregate
    // message count.
    double max_cost = 0.0;
    std::uint64_t epoch_msgs = 0;
    int straggler = -1;
    for (int r = 0; r < p; ++r) {
      const auto& s = scan.slots[static_cast<std::size_t>(r)];
      const double cost = scan.rank_cost(model, s);
      if (cost > max_cost) {
        max_cost = cost;
        straggler = r;
      }
      epoch_msgs += scan.physical_msgs(s);
    }
    step.modeled_seconds = model.epoch_seconds(max_cost, epoch_msgs, p);
    step.straggler = straggler;
    if (straggler >= 0) {
      const auto& s = scan.slots[static_cast<std::size_t>(straggler)];
      step.terms[static_cast<std::size_t>(CostTerm::kCompute)] =
          s.flops * model.flop_time;
      if (scan.tiered) {
        // Tiered attribution: α/β cover the straggler's inter-node hops,
        // the intra terms its intra-node hops.
        step.terms[static_cast<std::size_t>(CostTerm::kLatency)] =
            static_cast<double>(s.msgs_inter) * model.alpha;
        step.terms[static_cast<std::size_t>(CostTerm::kBandwidth)] =
            static_cast<double>(s.bytes_inter) * model.beta;
        step.terms[static_cast<std::size_t>(CostTerm::kLatencyIntra)] =
            static_cast<double>(s.msgs_intra) * model.alpha_intra;
        step.terms[static_cast<std::size_t>(CostTerm::kBandwidthIntra)] =
            static_cast<double>(s.bytes_intra) * model.beta_intra;
      } else {
        step.terms[static_cast<std::size_t>(CostTerm::kLatency)] =
            static_cast<double>(s.msgs) * model.alpha;
        step.terms[static_cast<std::size_t>(CostTerm::kBandwidth)] =
            static_cast<double>(s.bytes) * model.beta;
      }
      rep.straggler_epochs[static_cast<std::size_t>(straggler)] += 1;
    }
    step.terms[static_cast<std::size_t>(CostTerm::kNetwork)] =
        model.gamma * static_cast<double>(epoch_msgs) /
        static_cast<double>(p);
    step.terms[static_cast<std::size_t>(CostTerm::kSync)] = model.sigma;
    // Dominant term: largest share; ties go to the earlier term in enum
    // order (compute before latency before …), deterministically.
    int dom = 0;
    for (int t = 1; t < kNumCostTerms; ++t) {
      if (step.terms[static_cast<std::size_t>(t)] >
          step.terms[static_cast<std::size_t>(dom)]) {
        dom = t;
      }
    }
    step.dominant = static_cast<CostTerm>(dom);

    rep.epochs_dominated[static_cast<std::size_t>(dom)] += 1;
    for (int t = 0; t < kNumCostTerms; ++t) {
      rep.total_seconds_by_term[static_cast<std::size_t>(t)] +=
          step.terms[static_cast<std::size_t>(t)];
    }
    rep.total_recorded_seconds += step.recorded_seconds;
    rep.total_modeled_seconds += step.modeled_seconds;
    if (step.modeled_seconds != step.recorded_seconds) {
      rep.model_matches = false;
    }
    rep.steps.push_back(step);
    scan.reset();
  }
  return rep;
}

// ---------------------------------------------------------------------------
// (d) Convergence
// ---------------------------------------------------------------------------

ConvergenceReport analyze_convergence(const RunTrace& run) {
  DSOUTH_CHECK(run.num_ranks > 0);
  const int p = run.num_ranks;
  ConvergenceReport rep;
  rep.num_ranks = p;

  std::vector<double> last_norm2(static_cast<std::size_t>(p), 0.0);
  std::vector<bool> seen(static_cast<std::size_t>(p), false);
  int reporting = 0;
  std::uint64_t epoch_relax = 0;

  for (const trace::Event& e : run.events) {
    if (e.kind == trace::EventKind::kRelax) {
      const auto r = static_cast<std::size_t>(e.rank);
      last_norm2[r] = e.a1;
      if (!seen[r]) {
        seen[r] = true;
        ++reporting;
      }
      ++epoch_relax;
      continue;
    }
    if (e.kind != trace::EventKind::kFence) continue;
    ConvergenceReport::Point pt;
    pt.epoch = e.epoch;
    pt.t_model = e.t_model;
    pt.relax_events = epoch_relax;
    pt.msgs = static_cast<std::uint64_t>(e.a1);
    pt.ranks_reporting = reporting;
    double sum = 0.0;
    for (double v : last_norm2) sum += v;
    pt.residual_estimate = std::sqrt(sum);
    rep.points.push_back(pt);
    epoch_relax = 0;
  }

  // Stall runs: maximal spans of fenced epochs with no relax anywhere.
  std::optional<ConvergenceReport::Stall> open;
  for (const auto& pt : rep.points) {
    if (pt.relax_events == 0) {
      ++rep.stalled_epochs;
      if (open) {
        open->last_epoch = pt.epoch;
      } else {
        open = ConvergenceReport::Stall{pt.epoch, pt.epoch};
      }
    } else if (open) {
      rep.stalls.push_back(*open);
      open.reset();
    }
  }
  if (open) rep.stalls.push_back(*open);

  if (const MetricSeries* m = run.find_metric("ds.corrections_sent")) {
    rep.ds_corrections_sent = m->total();
  }
  if (const MetricSeries* m = run.find_metric("ds.deferred_sends")) {
    rep.ds_deferred_sends = m->total();
    if (m->total() > 0.0) {
      int arg = 0;
      for (int r = 1; r < p; ++r) {
        if (m->per_rank[static_cast<std::size_t>(r)] >
            m->per_rank[static_cast<std::size_t>(arg)]) {
          arg = r;
        }
      }
      rep.max_deferral_rank = arg;
    }
  }
  return rep;
}

// ---------------------------------------------------------------------------
// (e) Fault injection
// ---------------------------------------------------------------------------

const char* FaultReport::action_name(int action) {
  switch (action) {
    case kDrop:
      return "drop";
    case kDuplicate:
      return "duplicate";
    case kReorder:
      return "reorder";
    case kCorrupt:
      return "corrupt";
    case kTruncate:
      return "truncate";
    case kStall:
      return "stall";
    case kDeadDrop:
      return "dead_drop";
    default:
      return "?";
  }
}

FaultReport analyze_faults(const RunTrace& run) {
  DSOUTH_CHECK(run.num_ranks > 0);
  FaultReport rep;
  rep.by_source.assign(static_cast<std::size_t>(run.num_ranks), 0);
  for (const trace::Event& e : run.events) {
    if (e.kind != trace::EventKind::kFault) continue;
    DSOUTH_CHECK(e.rank >= 0 &&
                 e.rank < static_cast<std::int32_t>(run.num_ranks));
    DSOUTH_CHECK_MSG(e.tag >= 0 && e.tag < FaultReport::kNumActions,
                     "fault event with unknown action " << e.tag);
    rep.by_action[static_cast<std::size_t>(e.tag)] += 1;
    rep.by_source[static_cast<std::size_t>(e.rank)] += 1;
    rep.total += 1;
  }
  return rep;
}

// ---------------------------------------------------------------------------
// (f) Asynchronous delivery
// ---------------------------------------------------------------------------

AsyncReport analyze_async(const RunTrace& run) {
  DSOUTH_CHECK(run.num_ranks > 0);
  AsyncReport rep;
  rep.by_dest.assign(static_cast<std::size_t>(run.num_ranks), 0);
  for (const trace::Event& e : run.events) {
    if (e.kind != trace::EventKind::kDeliver) continue;
    DSOUTH_CHECK(e.rank >= 0 &&
                 e.rank < static_cast<std::int32_t>(run.num_ranks));
    DSOUTH_CHECK(e.peer >= 0 &&
                 e.peer < static_cast<std::int32_t>(run.num_ranks));
    const auto staleness = static_cast<std::uint64_t>(e.a0);
    if (staleness >= rep.staleness_histogram.size()) {
      rep.staleness_histogram.resize(
          static_cast<std::size_t>(staleness) + 1, 0);
    }
    rep.staleness_histogram[static_cast<std::size_t>(staleness)] += 1;
    rep.by_dest[static_cast<std::size_t>(e.rank)] += 1;
    rep.delivered += 1;
    rep.staleness_sum += staleness;
    rep.staleness_max = std::max(rep.staleness_max, staleness);
  }
  return rep;
}

// ---------------------------------------------------------------------------
// (g) Node-aware routing
// ---------------------------------------------------------------------------

const char* NodeReport::hop_name(int kind) {
  switch (kind) {
    case trace::kHopIntraDirect:
      return "intra_direct";
    case trace::kHopRelayUp:
      return "relay_up";
    case trace::kHopInterLeader:
      return "inter_leader";
    case trace::kHopRelayDown:
      return "relay_down";
    case trace::kHopInterDirect:
      return "inter_direct";
    default:
      return "?";
  }
}

NodeReport analyze_node_routing(const RunTrace& run) {
  DSOUTH_CHECK(run.num_ranks > 0);
  NodeReport rep;
  for (const trace::Event& e : run.events) {
    if (e.kind != trace::EventKind::kHop) continue;
    DSOUTH_CHECK(e.rank >= 0 &&
                 e.rank < static_cast<std::int32_t>(run.num_ranks));
    DSOUTH_CHECK_MSG(e.tag >= 0 && e.tag < NodeReport::kNumHopKinds,
                     "hop event with unknown kind " << e.tag);
    const auto bytes = static_cast<std::uint64_t>(e.a0);
    rep.hops_by_kind[static_cast<std::size_t>(e.tag)] += 1;
    rep.bytes_by_kind[static_cast<std::size_t>(e.tag)] += bytes;
    if (trace::hop_is_inter(e.tag)) {
      rep.msgs_inter += 1;
      rep.bytes_inter += bytes;
    } else {
      rep.msgs_intra += 1;
      rep.bytes_intra += bytes;
    }
    if (e.tag == trace::kHopInterLeader) {
      const auto records = static_cast<std::uint64_t>(e.a1);
      rep.forwarded_records += records;
      // Leader pairs are few (≤ nodes²): linear scan, then rank below.
      NodeReport::LeaderPair* pair = nullptr;
      for (auto& lp : rep.leader_pairs) {
        if (lp.src == e.rank && lp.dst == e.peer) {
          pair = &lp;
          break;
        }
      }
      if (!pair) {
        rep.leader_pairs.push_back(NodeReport::LeaderPair{
            static_cast<int>(e.rank), static_cast<int>(e.peer), 0, 0, 0});
        pair = &rep.leader_pairs.back();
      }
      pair->frames += 1;
      pair->records += records;
      pair->bytes += bytes;
    }
  }
  std::sort(rep.leader_pairs.begin(), rep.leader_pairs.end(),
            [](const NodeReport::LeaderPair& a,
               const NodeReport::LeaderPair& b) {
              if (a.frames != b.frames) return a.frames > b.frames;
              if (a.bytes != b.bytes) return a.bytes > b.bytes;
              if (a.src != b.src) return a.src < b.src;
              return a.dst < b.dst;
            });
  return rep;
}

// ---------------------------------------------------------------------------
// (h) Elastic recovery
// ---------------------------------------------------------------------------

const char* ElasticReport::action_name(int action) {
  switch (action) {
    case kCheckpoint:
      return "checkpoint";
    case kKill:
      return "kill";
    case kRestore:
      return "restore";
    case kRepartition:
      return "repartition";
    default:
      return "?";
  }
}

ElasticReport analyze_elastic(const RunTrace& run) {
  DSOUTH_CHECK(run.num_ranks > 0);
  ElasticReport rep;
  for (const trace::Event& e : run.events) {
    if (e.kind != trace::EventKind::kElastic) continue;
    DSOUTH_CHECK_MSG(e.tag >= 0 && e.tag < ElasticReport::kNumActions,
                     "elastic event with unknown action " << e.tag);
    rep.by_action[static_cast<std::size_t>(e.tag)] += 1;
    rep.total += 1;
    switch (e.tag) {
      case ElasticReport::kCheckpoint: {
        const auto bytes = static_cast<std::uint64_t>(e.a0);
        rep.checkpoint_bytes_last = bytes;
        rep.checkpoint_bytes_max = std::max(rep.checkpoint_bytes_max, bytes);
        rep.checkpoint_bytes_min =
            rep.by_action[ElasticReport::kCheckpoint] == 1
                ? bytes
                : std::min(rep.checkpoint_bytes_min, bytes);
        break;
      }
      case ElasticReport::kKill:
        rep.dead_ranks.push_back(static_cast<int>(e.a0));
        break;
      case ElasticReport::kRestore:
        if (rep.by_action[ElasticReport::kCheckpoint] == 0 ||
            rep.by_action[ElasticReport::kKill] <
                rep.by_action[ElasticReport::kRestore]) {
          rep.restores_ordered = false;
        }
        break;
      case ElasticReport::kRepartition:
        rep.rows_moved += static_cast<std::uint64_t>(e.a1);
        break;
      default:
        break;
    }
  }
  return rep;
}

}  // namespace dsouth::analysis
