#include "analysis/analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace dsouth::analysis {

// ---------------------------------------------------------------------------
// Report names and lookups
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

// ---------------------------------------------------------------------------
// The walk
// ---------------------------------------------------------------------------

namespace {

/// Touched (src, dst) cells of the comm matrix, indexed in a flat
/// linear-probe table instead of the dense P×P matrix. DS only talks to
/// graph neighbors, so this is O(events + pairs), where the dense build's
/// P² allocation and scan made analysis bytes scale ~P² (bench/scaling). A
/// flat table rather than std::unordered_map because the map's one node
/// allocation per pair would put the analysis alloc *count* on an
/// O(pairs)-growth curve of its own; probing keeps it at a handful of
/// geometric regrowths.
class PairTable {
 public:
  /// The cell for (src, dst), appended to `pairs` on first touch.
  CommMatrixReport::Pair& cell(std::vector<CommMatrixReport::Pair>& pairs,
                               int src, int dst) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(src) << 32U) |
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst));
    if (2 * (pairs.size() + 1) > keys_.size()) {
      // Keep load factor <= 1/2: double and rehash.
      std::vector<std::uint64_t> grown_key(keys_.size() * 2, kEmptySlot);
      std::vector<std::uint32_t> grown_idx(grown_key.size());
      for (std::size_t i = 0; i < keys_.size(); ++i) {
        if (keys_[i] == kEmptySlot) continue;
        const std::size_t j = find_slot(grown_key, keys_[i]);
        grown_key[j] = keys_[i];
        grown_idx[j] = idx_[i];
      }
      keys_.swap(grown_key);
      idx_.swap(grown_idx);
    }
    const std::size_t slot = find_slot(keys_, key);
    if (keys_[slot] == kEmptySlot) {
      keys_[slot] = key;
      idx_[slot] = static_cast<std::uint32_t>(pairs.size());
      CommMatrixReport::Pair fresh;
      fresh.src = src;
      fresh.dst = dst;
      pairs.push_back(fresh);
    }
    return pairs[idx_[slot]];
  }

 private:
  /// No key equals it: a src rank has no sign bit.
  static constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};
  static constexpr std::size_t kInitialSlots = 64;

  static std::size_t find_slot(const std::vector<std::uint64_t>& keys,
                               std::uint64_t key) {
    std::uint64_t h = key;  // SplitMix64-style finalizer
    h ^= h >> 33U;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33U;
    const std::uint64_t mask = keys.size() - 1;  // size is a power of two
    auto i = static_cast<std::size_t>(h & mask);
    while (keys[i] != kEmptySlot && keys[i] != key) i = (i + 1) & mask;
    return i;
  }

  std::vector<std::uint64_t> keys_ =
      std::vector<std::uint64_t>(kInitialSlots, kEmptySlot);
  std::vector<std::uint32_t> idx_ = std::vector<std::uint32_t>(kInitialSlots);
};

/// One walk over a run's events that builds every report. Each event
/// updates the reports of its kind; a fence closes the epoch, rebuilding
/// every rank's cost once for the timeline and the critical path alike.
class Walk {
 public:
  Walk(const RunTrace& run, const simmpi::MachineModel& model)
      : model_(model),
        p_(run.num_ranks),
        slots_(static_cast<std::size_t>(run.num_ranks)),
        last_norm2_(static_cast<std::size_t>(run.num_ranks), 0.0),
        seen_(static_cast<std::size_t>(run.num_ranks), false) {
    const auto ranks = static_cast<std::size_t>(p_);
    a_.label = run.label;
    a_.num_ranks = p_;
    a_.timeline.num_ranks = p_;
    a_.timeline.ranks.resize(ranks);
    a_.comm.num_ranks = p_;
    a_.critical_path.num_ranks = p_;
    a_.critical_path.straggler_epochs.assign(ranks, 0);
    a_.critical_path.model_matches = true;
    a_.convergence.num_ranks = p_;
    a_.faults.by_source.assign(ranks, 0);
    a_.async.by_dest.assign(ranks, 0);
  }

  void add(const trace::Event& e) {
    if (e.kind == trace::EventKind::kFence) {
      close_epoch(e);
      return;
    }
    DSOUTH_CHECK(e.rank >= 0 && e.rank < p_);
    const auto r = static_cast<std::size_t>(e.rank);
    Slot& s = slots_[r];
    auto& rank = a_.timeline.ranks[r];
    switch (e.kind) {
      case trace::EventKind::kCompute:
        s.flops += e.a0;
        break;
      case trace::EventKind::kPut:
        s.msgs += 1;
        s.bytes += static_cast<std::uint64_t>(e.a1);
        rank.msgs_sent += 1;
        add_put(e);
        break;
      case trace::EventKind::kHop:
        epoch_hops_ = true;
        if (trace::hop_is_inter(e.tag)) {
          s.msgs_inter += 1;
          s.bytes_inter += static_cast<std::uint64_t>(e.a0);
        } else {
          s.msgs_intra += 1;
          s.bytes_intra += static_cast<std::uint64_t>(e.a0);
        }
        add_hop(e);
        break;
      case trace::EventKind::kRelax:
        rank.relax_phases += 1;
        rank.rows_relaxed += static_cast<std::uint64_t>(e.a0);
        last_norm2_[r] = e.a1;
        if (!seen_[r]) {
          seen_[r] = true;
          ++reporting_;
        }
        ++epoch_relax_;
        break;
      case trace::EventKind::kAbsorb:
        rank.absorb_phases += 1;
        rank.absorbed_msgs += static_cast<std::uint64_t>(e.a0);
        break;
      case trace::EventKind::kFault:
        add_fault(e);
        break;
      case trace::EventKind::kDeliver:
        add_deliver(e);
        break;
      case trace::EventKind::kElastic:
        add_elastic(e);
        break;
      case trace::EventKind::kFence:
        break;  // handled above
    }
  }

  RunAnalysis finish(const RunTrace& run) {
    TimelineReport& tl = a_.timeline;
    if (!tl.steps.empty()) {
      double sum = 0.0;
      double mx = 0.0;
      for (const auto& s : tl.steps) {
        sum += s.imbalance();
        mx = std::max(mx, s.imbalance());
      }
      tl.max_imbalance = mx;
      tl.mean_imbalance = sum / static_cast<double>(tl.steps.size());
    }

    // (src, dst) ascending — the order a dense row-major scan that skips
    // zeros would visit, which CommMatrixReport::find searches.
    CommMatrixReport& cm = a_.comm;
    std::sort(cm.pairs.begin(), cm.pairs.end(),
              [](const CommMatrixReport::Pair& x,
                 const CommMatrixReport::Pair& y) {
                if (x.src != y.src) return x.src < y.src;
                return x.dst < y.dst;
              });
    cm.hot_pairs = cm.pairs;
    std::sort(cm.hot_pairs.begin(), cm.hot_pairs.end(),
              [](const CommMatrixReport::Pair& x,
                 const CommMatrixReport::Pair& y) {
                if (x.msgs != y.msgs) return x.msgs > y.msgs;
                if (x.bytes != y.bytes) return x.bytes > y.bytes;
                if (x.src != y.src) return x.src < y.src;
                return x.dst < y.dst;
              });

    ConvergenceReport& cv = a_.convergence;
    if (open_stall_) cv.stalls.push_back(*open_stall_);
    if (const MetricSeries* m = run.find_metric("ds.corrections_sent")) {
      cv.ds_corrections_sent = m->total();
    }
    if (const MetricSeries* m = run.find_metric("ds.deferred_sends")) {
      cv.ds_deferred_sends = m->total();
      if (m->total() > 0.0) {
        int arg = 0;
        for (int r = 1; r < p_; ++r) {
          if (m->per_rank[static_cast<std::size_t>(r)] >
              m->per_rank[static_cast<std::size_t>(arg)]) {
            arg = r;
          }
        }
        cv.max_deferral_rank = arg;
      }
    }

    std::sort(a_.node.leader_pairs.begin(), a_.node.leader_pairs.end(),
              [](const NodeReport::LeaderPair& x,
                 const NodeReport::LeaderPair& y) {
                if (x.frames != y.frames) return x.frames > y.frames;
                if (x.bytes != y.bytes) return x.bytes > y.bytes;
                if (x.src != y.src) return x.src < y.src;
                return x.dst < y.dst;
              });
    return std::move(a_);
  }

 private:
  /// One rank's accumulators for the epoch in flight, built the way the
  /// runtime builds its own: the stream's merge order (rank-ascending,
  /// FIFO per rank within an epoch) makes the floating-point flop sums
  /// reproduce the runtime's bit-exactly.
  struct Slot {
    double flops = 0.0;
    std::uint64_t msgs = 0;  // puts
    std::uint64_t bytes = 0;
    // Physical hops by tier (node-aware traces; zero otherwise).
    std::uint64_t msgs_intra = 0;
    std::uint64_t bytes_intra = 0;
    std::uint64_t msgs_inter = 0;
    std::uint64_t bytes_inter = 0;
  };

  /// A rank's link seconds for the epoch: latency, bandwidth, intra
  /// latency, intra bandwidth. Epochs with hops pay per physical hop
  /// (inter-node hops at the headline α/β, intra-node hops at the intra
  /// tier), the others per put.
  std::array<double, 4> link_seconds(const Slot& s, bool tiered) const {
    if (tiered) {
      return {static_cast<double>(s.msgs_inter) * model_.alpha,
              static_cast<double>(s.bytes_inter) * model_.beta,
              static_cast<double>(s.msgs_intra) * model_.alpha_intra,
              static_cast<double>(s.bytes_intra) * model_.beta_intra};
    }
    return {static_cast<double>(s.msgs) * model_.alpha,
            static_cast<double>(s.bytes) * model_.beta, 0.0, 0.0};
  }

  /// The fence: rebuild each rank's cost the way the runtime charged it
  /// (rank_cost_tiered in an epoch with hops, rank_cost otherwise), then
  /// close the epoch in the timeline, critical path and convergence
  /// reports.
  void close_epoch(const trace::Event& fence) {
    const bool tiered = epoch_hops_;
    TimelineReport::Step tstep;
    tstep.epoch = fence.epoch;
    tstep.epoch_seconds = fence.a0;
    // The fence's accounting loop (runtime.cpp): running max in rank
    // order, so ties pick the lowest rank, and the physical message count.
    double sum_cost = 0.0;
    std::uint64_t epoch_msgs = 0;
    for (int r = 0; r < p_; ++r) {
      const Slot& s = slots_[static_cast<std::size_t>(r)];
      const double cost =
          tiered ? model_.rank_cost_tiered(s.flops, s.msgs_intra,
                                           s.bytes_intra, s.msgs_inter,
                                           s.bytes_inter)
                 : model_.rank_cost(s.flops, s.msgs, s.bytes);
      sum_cost += cost;
      if (cost > tstep.max_cost) {
        tstep.max_cost = cost;
        tstep.straggler = r;
      }
      epoch_msgs += tiered ? s.msgs_intra + s.msgs_inter : s.msgs;
      const auto link = link_seconds(s, tiered);
      auto& acc = a_.timeline.ranks[static_cast<std::size_t>(r)];
      acc.compute_seconds += s.flops * model_.flop_time;
      acc.send_seconds += link[0] + link[1] + link[2] + link[3];
      acc.wait_seconds += fence.a0 - cost;
    }
    tstep.mean_cost = sum_cost / static_cast<double>(p_);
    a_.timeline.total_model_seconds += tstep.epoch_seconds;
    a_.timeline.steps.push_back(tstep);

    CriticalPathReport& cp = a_.critical_path;
    CriticalPathReport::Step step;
    step.epoch = fence.epoch;
    step.recorded_seconds = fence.a0;
    step.async_delivered = epoch_delivered_;
    step.async_staleness_max = epoch_staleness_max_;
    step.modeled_seconds =
        model_.epoch_seconds(tstep.max_cost, epoch_msgs, p_);
    step.straggler = tstep.straggler;
    if (step.straggler >= 0) {
      const Slot& s = slots_[static_cast<std::size_t>(step.straggler)];
      const auto link = link_seconds(s, tiered);
      step.terms[static_cast<std::size_t>(CostTerm::kCompute)] =
          s.flops * model_.flop_time;
      step.terms[static_cast<std::size_t>(CostTerm::kLatency)] = link[0];
      step.terms[static_cast<std::size_t>(CostTerm::kBandwidth)] = link[1];
      step.terms[static_cast<std::size_t>(CostTerm::kLatencyIntra)] = link[2];
      step.terms[static_cast<std::size_t>(CostTerm::kBandwidthIntra)] =
          link[3];
      cp.straggler_epochs[static_cast<std::size_t>(step.straggler)] += 1;
    }
    step.terms[static_cast<std::size_t>(CostTerm::kNetwork)] =
        model_.gamma * static_cast<double>(epoch_msgs) /
        static_cast<double>(p_);
    step.terms[static_cast<std::size_t>(CostTerm::kSync)] = model_.sigma;
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
    cp.epochs_dominated[static_cast<std::size_t>(dom)] += 1;
    for (int t = 0; t < kNumCostTerms; ++t) {
      cp.total_seconds_by_term[static_cast<std::size_t>(t)] +=
          step.terms[static_cast<std::size_t>(t)];
    }
    cp.total_recorded_seconds += step.recorded_seconds;
    cp.total_modeled_seconds += step.modeled_seconds;
    if (step.modeled_seconds != step.recorded_seconds) {
      cp.model_matches = false;
    }
    cp.tiered = cp.tiered || tiered;
    cp.steps.push_back(step);

    // Convergence: √(Σ_p last ‖r_p‖²) after the fence; an epoch in which no
    // rank relaxed extends the open stall run.
    ConvergenceReport& cv = a_.convergence;
    ConvergenceReport::Point pt;
    pt.epoch = fence.epoch;
    pt.t_model = fence.t_model;
    pt.relax_events = epoch_relax_;
    pt.msgs = static_cast<std::uint64_t>(fence.a1);
    pt.ranks_reporting = reporting_;
    double sum = 0.0;
    for (double v : last_norm2_) sum += v;
    pt.residual_estimate = std::sqrt(sum);
    cv.points.push_back(pt);
    if (pt.relax_events == 0) {
      ++cv.stalled_epochs;
      if (open_stall_) {
        open_stall_->last_epoch = pt.epoch;
      } else {
        open_stall_ = ConvergenceReport::Stall{pt.epoch, pt.epoch};
      }
    } else if (open_stall_) {
      cv.stalls.push_back(*open_stall_);
      open_stall_.reset();
    }

    for (Slot& s : slots_) s = Slot{};
    epoch_hops_ = false;
    epoch_delivered_ = 0;
    epoch_staleness_max_ = 0;
    epoch_relax_ = 0;
  }

  void add_put(const trace::Event& e) {
    DSOUTH_CHECK(e.peer >= 0 && e.peer < p_);
    DSOUTH_CHECK(e.tag >= 0 && e.tag < simmpi::kNumTags);
    CommMatrixReport& cm = a_.comm;
    auto& cell = pairs_.cell(cm.pairs, e.rank, e.peer);
    const auto bytes = static_cast<std::uint64_t>(e.a1);
    const auto tag = static_cast<std::size_t>(e.tag);
    cell.msgs += 1;
    cell.bytes += bytes;
    cell.msgs_by_tag[tag] += 1;
    cm.total_msgs += 1;
    cm.total_bytes += bytes;
    cm.total_by_tag[tag] += 1;
  }

  void add_hop(const trace::Event& e) {
    DSOUTH_CHECK_MSG(e.tag >= 0 && e.tag < NodeReport::kNumHopKinds,
                     "hop event with unknown kind " << e.tag);
    NodeReport& rep = a_.node;
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
    if (e.tag != trace::kHopInterLeader) return;
    const auto records = static_cast<std::uint64_t>(e.a1);
    rep.forwarded_records += records;
    // Leader pairs are few (<= nodes²): linear scan, ranked in finish().
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

  void add_fault(const trace::Event& e) {
    DSOUTH_CHECK_MSG(e.tag >= 0 && e.tag < FaultReport::kNumActions,
                     "fault event with unknown action " << e.tag);
    FaultReport& rep = a_.faults;
    rep.by_action[static_cast<std::size_t>(e.tag)] += 1;
    rep.by_source[static_cast<std::size_t>(e.rank)] += 1;
    rep.total += 1;
  }

  /// A deliver event marks data maturing this epoch whose send cost was
  /// charged when it was put — tallied per step too, so the critical path
  /// can point at stale arrivals.
  void add_deliver(const trace::Event& e) {
    DSOUTH_CHECK(e.peer >= 0 && e.peer < p_);
    AsyncReport& rep = a_.async;
    const auto staleness = static_cast<std::uint64_t>(e.a0);
    if (staleness >= rep.staleness_histogram.size()) {
      rep.staleness_histogram.resize(static_cast<std::size_t>(staleness) + 1,
                                     0);
    }
    rep.staleness_histogram[static_cast<std::size_t>(staleness)] += 1;
    rep.by_dest[static_cast<std::size_t>(e.rank)] += 1;
    rep.delivered += 1;
    rep.staleness_sum += staleness;
    rep.staleness_max = std::max(rep.staleness_max, staleness);
    epoch_delivered_ += 1;
    epoch_staleness_max_ = std::max(epoch_staleness_max_, staleness);
  }

  void add_elastic(const trace::Event& e) {
    DSOUTH_CHECK_MSG(e.tag >= 0 && e.tag < ElasticReport::kNumActions,
                     "elastic event with unknown action " << e.tag);
    ElasticReport& rep = a_.elastic;
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

  const simmpi::MachineModel& model_;
  const int p_;
  RunAnalysis a_;
  PairTable pairs_;
  // The epoch in flight.
  std::vector<Slot> slots_;
  bool epoch_hops_ = false;  // selects the epoch's cost formula
  std::uint64_t epoch_delivered_ = 0;
  std::uint64_t epoch_staleness_max_ = 0;
  std::uint64_t epoch_relax_ = 0;
  // Convergence state across epochs.
  std::vector<double> last_norm2_;  // each rank's latest ‖r_p‖²
  std::vector<bool> seen_;          // rank has relaxed at least once
  int reporting_ = 0;
  std::optional<ConvergenceReport::Stall> open_stall_;
};

}  // namespace

RunAnalysis analyze_run(const RunTrace& run, const AnalyzeOptions& opt) {
  DSOUTH_CHECK(run.num_ranks > 0);
  Walk walk(run, opt.model);
  for (const trace::Event& e : run.events) walk.add(e);
  return walk.finish(run);
}

}  // namespace dsouth::analysis
