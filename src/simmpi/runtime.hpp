#pragma once

/// \file runtime.hpp
/// Deterministic simulated one-sided message-passing runtime.
///
/// This is the repository's substitute for MPI-3 RMA on a real cluster
/// (DESIGN.md §1). It simulates P ranks executing in *epochs*. Within an
/// epoch a rank may read its window (the messages delivered at the previous
/// fence), do local compute (reported via add_flops), and `put()` data into
/// other ranks' windows. `fence()` closes the epoch: staged puts become
/// visible in the destination windows, the machine model charges the epoch,
/// and per-put statistics accumulate.
///
/// Correspondence with the paper's MPI formulation:
///   MPI_Win_allocate            -> Runtime construction (one window/rank)
///   MPI_Win_post/start          -> implicit epoch open after fence()
///   MPI_Put                     -> put()
///   MPI_Win_complete/wait       -> fence()
/// The paper's algorithms are bulk-synchronous per parallel step (every
/// rank opens and closes the same access epochs), so this superstep
/// semantics is exact, and it makes every experiment bit-reproducible.
///
/// By default a staged put becomes visible at the closing fence exactly as
/// above. An AsyncDelivery setting (delivery.hpp) instead matures messages
/// on a deterministic virtual clock with bounded staleness — the
/// asynchronous regime the paper's deadlock discussion is about. Either
/// way delivery stays bit-reproducible across backends.
///
/// Concurrency contract (the ExecutionBackend discipline, execution.hpp):
/// within an epoch, at most one thread drives a given rank, and every call
/// it makes is indexed by that rank — put(source=rank, ...) appends to the
/// rank's own staging lane, add_flops(rank, ...) bumps the rank's own
/// counter, window(rank)/consume(rank) touch the rank's own window. Ranks
/// therefore never share mutable state mid-epoch and may run on concurrent
/// threads. fence() is called by exactly one thread after the epoch's rank
/// programs have completed (the backend joins them); it merges the staging
/// lanes in (source, send-order) order — identical to the chronological
/// put order of a sequential rank sweep — so delivery order, fault draws,
/// CommStats, and modeled time are bit-identical whichever backend
/// staged the puts.

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "simmpi/delivery.hpp"
#include "simmpi/machine_model.hpp"
#include "simmpi/node_topology.hpp"
#include "simmpi/stats.hpp"
#include "trace/trace.hpp"

namespace dsouth::faults {
class FaultSchedule;
}

namespace dsouth::simmpi {

/// A delivered message as seen in the destination window.
struct Message {
  int source = -1;
  MsgTag tag = MsgTag::kOther;
  std::vector<double> payload;
};

/// Options accompanying a NodeTopology attachment (set_node_topology).
struct NodeRoutingOptions {
  /// Route inter-node records through one leader rank per node: relay up
  /// to the source-node leader, one aggregated leader->leader message per
  /// (source node, destination node, tag) group, relay down to the final
  /// destination. When false the topology only *classifies* traffic into
  /// intra-/inter-node tiers (every message a direct hop) — the
  /// apples-to-apples baseline the node-aware bench compares against.
  bool route_via_leaders = true;
  /// Dense num_nodes × num_nodes (row-major) count of static plan channels
  /// crossing each ordered node pair — exactly
  /// wire::node_pair_channel_counts(). The runtime needs only the counts
  /// (to size forward-frame presence bitmaps), which is what keeps simmpi
  /// below the wire layer in the dependency order. Required (and checked)
  /// when route_via_leaders is true; ignored otherwise.
  std::vector<std::uint32_t> pair_channel_counts;
};

/// The runtime cursors an elastic recovery carries across a generation
/// rebuild (src/elastic, DESIGN.md §15): epoch, model time, send counters
/// and CommStats. Everything here is bit-identical across execution
/// backends, so a serialized snapshot is too. Unconsumed windows and
/// in-flight messages are not part of it: a permanent failure loses them,
/// and the fresh solver's setup re-derives every estimate they would have
/// updated. Staging lanes must be empty at capture (checked): a checkpoint
/// is taken at a step boundary, after the fence.
struct RuntimeState {
  explicit RuntimeState(int num_ranks) : stats(num_ranks) {}

  std::uint64_t epochs = 0;
  double model_time = 0.0;
  double last_epoch_seconds = 0.0;
  std::uint64_t arrival_counter = 0;  ///< Deferred::arrival source
  std::vector<std::uint64_t> lane_seq;  ///< per-source send counters
  CommStats stats;                      ///< full counter snapshot
};

class Runtime {
 public:
  explicit Runtime(int num_ranks, MachineModel model = {});

  int num_ranks() const { return num_ranks_; }
  const MachineModel& model() const { return model_; }

  /// Messages delivered to `rank` and not yet consumed, in fence order
  /// (within a fence: sorted by source rank, ties by send order). Windows
  /// accumulate across fences until consume() — mirroring one-sided RMA,
  /// where written data persists until the target processes it.
  std::span<const Message> window(int rank) const;

  /// Discard `rank`'s window contents (call after processing them).
  /// Payload buffers return to the rank's window pool for reuse, and a
  /// pathologically over-grown window (capacity > 4× the consumed size
  /// after a delivery burst) is swap-shrunk so burst capacity is not held
  /// forever.
  void consume(int rank);

  /// One-sided put: stage `payload` for delivery into `dest`'s window at
  /// the next fence. Counts as exactly one message from `source`. Staged
  /// into `source`'s private lane; safe to call concurrently from distinct
  /// sources. Per-message accounting (stats, fault draws) happens
  /// at the fence, in (source, send-order) order.
  /// Implemented as stage() + copy; callers that can encode in place
  /// should use stage() directly and skip the copy.
  void put(int source, int dest, MsgTag tag, std::span<const double> payload);

  /// Zero-copy put: reserve a `doubles`-long staged message from `source`
  /// to `dest` and return its payload span for the caller to encode into
  /// directly. The buffer comes from the source's free-list pool (no heap
  /// allocation once warm) and the span stays valid until the next
  /// fence(). The caller must write every element before the fence.
  ///
  /// `logical_records` is the number of wire records the message carries
  /// (> 1 for batched tenant frames, see wire/comm_plan.hpp): CommStats
  /// and the "simmpi.msgs_logical" metric count records, while every
  /// physical counter (per-put stats, bytes, the machine model) counts
  /// this one message. Accounting is otherwise identical to put().
  std::span<double> stage(int source, int dest, MsgTag tag,
                          std::size_t doubles,
                          std::uint64_t logical_records = 1);

  /// Report local computation performed by `rank` in this epoch (flops).
  void add_flops(int rank, double flops);

  /// Close the epoch: deliver staged puts, charge the machine model,
  /// clear per-epoch counters. Single caller at a time (the backend joins
  /// the epoch's rank programs first).
  void fence();

  /// Cumulative modeled time (seconds) over all fenced epochs.
  double model_time_seconds() const { return model_time_; }

  /// Modeled time charged by the most recent fence().
  double last_epoch_seconds() const { return last_epoch_seconds_; }

  std::uint64_t epochs_completed() const { return epochs_; }

  /// Messages currently held back — by async delivery's latency draws
  /// or by fault-injection reordering/stalls — awaiting a later fence.
  std::uint64_t delayed_in_flight() const {
    std::uint64_t n = 0;
    for (const auto& held : deferred_) n += held.size();
    return n;
  }

  /// Run extra empty fences until every staged or deferred message has
  /// landed in its destination window. Semantics:
  ///   - puts staged since the last fence are fenced first (an implicit
  ///     epoch close), then fences repeat while async delivery or the
  ///     fault schedule still holds messages in flight;
  ///   - windows are NOT consumed — drained messages stay visible until
  ///     the ranks call consume(), exactly as after a normal fence;
  ///   - every extra fence charges the machine model for an (otherwise
  ///     empty) epoch and increments epochs_completed(), so modeled time
  ///     advances — drain before reading a "final" modeled time;
  ///   - no-op when nothing is staged or deferred.
  void drain_delayed();

  const CommStats& stats() const { return stats_; }

  /// Zero the communication counters (e.g. to measure a phase in
  /// isolation). The explicit API replaces the old mutable stats()
  /// accessor — accounting is written only by the runtime itself. Also
  /// discards per-tenant tallies still waiting in their staging lanes for
  /// the next fence — a reset means "nothing has been sent", including
  /// attributions not yet folded into CommStats.
  void reset_stats();

  /// Declare `n` co-scheduled batch tenants (dist/batch.hpp). Sizes the
  /// per-source tenant-attribution lanes and CommStats' tenant slots.
  /// Call before the first epoch, like set_tracer; n = 0 (the default)
  /// disables tenant accounting entirely.
  void set_num_tenants(std::size_t n);
  std::size_t num_tenants() const { return num_tenants_; }

  /// Attribute `records` wire records totalling `doubles` payload doubles,
  /// staged by `source`, to batch tenant `tenant`. Same concurrency
  /// discipline as put(): writes only `source`'s private lane, so distinct
  /// ranks may call concurrently; the fence folds the lanes into CommStats
  /// in ascending source order (deterministic, like every other counter).
  void add_tenant_records(int source, int tenant, std::uint64_t records,
                          std::uint64_t doubles);

  /// Attach a structured-event tracer (docs/observability.md). Not owned;
  /// must outlive the runtime (or be detached with nullptr). Registers
  /// every "simmpi.*" metric into the tracer's registry, in one fixed
  /// order, whatever else is attached: counters of a feature that is off
  /// stay zero. Call before the first epoch: registration is not
  /// thread-safe against in-flight rank programs, and attaching mid-run
  /// would start the trace at a nonzero epoch.
  ///
  /// Determinism: the trace stream inherits the fence-merge guarantee —
  /// per-rank event lanes merge at each fence() in (source, record-order)
  /// order, so the stream is bit-identical across execution backends.
  /// With no tracer attached every hook below is an inlined null test;
  /// attaching one never changes results.
  void set_tracer(trace::Tracer* tracer);

  /// The attached tracer, or nullptr.
  trace::Tracer* tracer() const { return tracer_; }

  /// Attach a compiled fault-injection schedule (src/faults,
  /// docs/resilience.md). Not owned; must outlive the runtime (or be
  /// detached with nullptr). The schedule is consulted once per staged
  /// message at fence time — drops, duplications, reordering, payload
  /// corruption/truncation, stalls, kills. It adds no cost term of its
  /// own: the fence charges only what the trace records (puts, hops,
  /// flops). Call before the first epoch, like set_tracer.
  ///
  /// Composition and determinism: fault draws are stateless hashes of
  /// (epoch, src, dst, seq), so runs are bit-identical across execution
  /// backends. With no schedule attached (the default) every hook is an
  /// inlined null test and no message is touched. When a tracer is also
  /// attached, the runtime bumps the "simmpi.faults_*" counters and emits
  /// kFault trace events.
  void set_fault_schedule(const faults::FaultSchedule* schedule);

  /// The attached fault schedule, or nullptr.
  const faults::FaultSchedule* fault_schedule() const { return faults_; }

  /// True when `rank` is permanently dead at the current epoch (a fault
  /// schedule with kills is attached and its kill epoch has passed —
  /// faults::FaultSchedule::dead). Stable mid-epoch: the epoch counter
  /// only advances at the fence, so rank programs may consult this. Dead
  /// ranks stop relaxing (the solver base skips their phases), their
  /// staged and in-flight traffic is swallowed at the fence, and traffic
  /// addressed to them is swallowed too — peers observe silence. The
  /// elastic subsystem (src/elastic) rebuilds the layout around them.
  bool rank_dead(int rank) const;

  /// Capture the runtime cursors (epoch/model-time cursors, send
  /// counters, CommStats) for an elastic checkpoint. Must be called
  /// between epochs (checked: staging lanes empty).
  RuntimeState capture_state() const;

  /// Restore previously captured cursors into a fresh runtime of the same
  /// rank count. The runtime must hold no traffic (checked: staging lanes,
  /// windows and deferred queues all empty) — recovery resumes with
  /// nothing in flight.
  void restore_state(const RuntimeState& state);

  /// Switch to event-driven delivery (simmpi/delivery.hpp). Without this
  /// call every message is delivered at the fence that closes its staging
  /// epoch. Checks 0 <= min_latency_epochs <= max_latency_epochs. Call
  /// before the first epoch, like set_tracer: switching mid-run would mix
  /// delivery semantics within one trace.
  ///
  /// Each message's delivery fence is pushed back by the stateless latency
  /// draw, clamped so no message lands more than max_staleness epochs
  /// after it was staged; the runtime then counts deliveries and
  /// staleness in CommStats, and — when a tracer is also attached — bumps
  /// the "simmpi.async_*" metrics and emits kDeliver trace events into
  /// destination lanes. A staleness bound of 0 keeps bulk-synchronous
  /// delivery.
  void set_async_delivery(const AsyncDelivery& delivery);

  /// True when event-driven delivery is on (a nonzero staleness bound) —
  /// the solvers' cue to switch to single-epoch relax-on-arrival stepping.
  bool async_delivery() const { return async_; }

  /// Attach a two-level node topology (node_topology.hpp,
  /// docs/communication.md), kept by value; a flat one detaches. Call
  /// before the first epoch, like set_tracer.
  ///
  /// With a (non-flat) topology attached the fence charges the machine
  /// model per *physical hop* on the two-tier network instead of per
  /// staged put: intra-node hops at (alpha_intra, beta_intra), inter-node
  /// hops at (alpha, beta) — see MachineModel::rank_cost_tiered. Delivery
  /// itself is untouched: windows receive exactly the same payloads in
  /// exactly the same order as without a topology, so solver iterates are
  /// bit-identical with the feature on or off, under either execution
  /// backend, and composed with faults or async delivery.
  /// The topology changes what the simulated wire *costs*, never what it
  /// *delivers* — the invariant DESIGN.md §13 pins down.
  ///
  /// Hop accounting (trace::EventKind::kHop, recorded into the paying
  /// rank's lane; CommStats tier counters; "simmpi.node_*" metrics when a
  /// tracer is attached):
  ///   - same-node put            -> one intra direct hop charged to src;
  ///   - inter-node, routing off  -> one inter direct hop charged to src;
  ///   - inter-node, routing on   -> relay-up (src -> src leader, intra,
  ///     skipped when src is its leader), one aggregated leader->leader
  ///     inter hop per (src node, dst node, tag) group charged to the src
  ///     leader, relay-down (dst leader -> dst, intra, skipped when dst is
  ///     its leader). A group of one ships bare (byte-identical to the
  ///     direct charge); groups of two or more are charged at the
  ///     forward-frame size: one magic word, a presence bitmap with one
  ///     bit per plan channel of the node pair, and the bodies.
  ///   - a message the fault schedule drops died at its source: it is
  ///     charged as a single direct hop and no relay ever saw it.
  ///
  /// Attaching a *flat* topology (every node holds exactly one rank) is
  /// equivalent to detaching: there is no intra-node tier to model, the
  /// runtime charges per staged put, and results stay byte-identical to a
  /// topology-free run — the same degeneracy contract staleness-0 async
  /// delivery follows.
  void set_node_topology(NodeTopology topo, NodeRoutingOptions opts = {});

  /// The effective topology, or nullptr (never a flat topology — those
  /// degenerate to detached at attach time).
  const NodeTopology* node_topology() const {
    return topo_ ? &*topo_ : nullptr;
  }

  /// True when inter-node records route through node leaders (only
  /// meaningful while node_topology() is attached).
  bool node_routing() const { return node_route_; }

  /// Record a solver-level event for `rank` (relax/absorb — see
  /// trace::EventKind). Inlined no-op when no tracer is attached. Safe to
  /// call from `rank`'s program mid-epoch: the epoch counter and modeled
  /// time it stamps are only mutated at the fence.
  void trace_rank_event(int rank, trace::EventKind kind, double a0,
                        double a1) {
    if (tracer_) {
      tracer_->record(rank, kind, /*peer=*/-1, /*tag=*/-1, a0, a1, epochs_,
                      model_time_);
    }
  }

  /// Bump a per-rank metric slot (inlined no-op when untraced or when the
  /// id is trace::kInvalidMetric).
  void metric_add(trace::MetricId id, int rank, double v) {
    if (tracer_) tracer_->metrics().add(id, rank, v);
  }

 private:
  /// Per-rank free list of payload buffers. The runtime keeps two closed
  /// loops per rank — staging buffers (handed out by stage(), returned at
  /// the fence) and window buffers (filled at the fence, returned by
  /// consume()) — so steady-state message traffic performs no heap
  /// allocation: buffers circulate and converge to the largest payload
  /// size their rank uses.
  class BufferPool {
   public:
    std::vector<double> acquire(std::size_t doubles) {
      if (free_.empty()) return std::vector<double>(doubles);
      std::vector<double> v = std::move(free_.back());
      free_.pop_back();
      if (v.capacity() < doubles) {
        // Grow geometrically, not to the exact request: DS stages
        // variable-size records, and the LIFO rotation keeps pairing
        // requests with buffers a few doubles too small — exact resizing
        // then reallocates on nearly every such pairing, forever
        // (bench/scaling's allocs-per-step curve). Doubling converges
        // every circulating buffer to its rank's peak payload in O(log)
        // reallocations instead.
        v.reserve(std::max(doubles, 2 * v.capacity()));
      }
      v.resize(doubles);
      return v;
    }
    void release(std::vector<double>&& v) {
      if (free_.size() < kMaxPooled) free_.push_back(std::move(v));
    }

   private:
    // Bounds hoarding after bursts; far above any per-epoch buffer count
    // the solvers reach.
    static constexpr std::size_t kMaxPooled = 1024;
    std::vector<std::vector<double>> free_;
  };

  /// A put staged in its source's lane, awaiting the fence.
  struct Staged {
    int dest;
    MsgTag tag;
    std::uint64_t seq;  // per-source send counter (monotonic, never reset)
    std::uint64_t records;  // logical wire records carried (1 unless framed)
    std::vector<double> payload;  // from the source's stage pool
  };
  /// A message held back by the delivery model, keyed for the
  /// deterministic (source, send-order) delivery sort.
  struct Deferred {
    int source;
    MsgTag tag;
    std::uint64_t seq;
    std::uint64_t staged_epoch;   // epoch the put was staged in (staleness
                                  // = delivering epoch - staged_epoch)
    std::uint64_t deliver_epoch;  // earliest fence that may deliver it
    /// Push-order tiebreaker for the maturation sort: duplicated messages
    /// share a (source, seq) key, and their delivery order must not depend
    /// on the sort's tie-breaking. An explicit total order lets the fence
    /// use in-place std::sort (std::stable_sort allocates a temp buffer
    /// every call, which would break the allocation-free steady state).
    std::uint64_t arrival;
    std::vector<double> payload;
  };

  /// The fence's node-aware accounting pre-pass (topology attached only):
  /// walks the staging lanes in (source, send-order) order — the same
  /// deterministic order the delivery merge uses — classifying every put
  /// into physical hops, filling the per-rank tier accumulators, and
  /// recording kHop events / CommStats / metrics. Runs before the model
  /// is charged and consumes nothing: lanes and payloads are left exactly
  /// as the delivery merge expects them.
  void node_prepass();

  int num_ranks_;
  MachineModel model_;
  trace::Tracer* tracer_ = nullptr;
  // Runtime-owned metric ids, all registered by set_tracer whatever is
  // attached (kInvalidMetric while untraced).
  trace::MetricId m_msgs_sent_ = trace::kInvalidMetric;
  trace::MetricId m_bytes_sent_ = trace::kInvalidMetric;
  // Wire records carried (docs/observability.md): exceeds msgs_sent only
  // when batched tenant frames are in flight.
  trace::MetricId m_msgs_logical_ = trace::kInvalidMetric;
  std::array<trace::MetricId, kNumTags> m_msgs_by_tag_{
      trace::kInvalidMetric, trace::kInvalidMetric, trace::kInvalidMetric};
  trace::MetricId m_faults_dropped_ = trace::kInvalidMetric;
  trace::MetricId m_faults_duplicated_ = trace::kInvalidMetric;
  trace::MetricId m_faults_corrupted_ = trace::kInvalidMetric;
  trace::MetricId m_faults_reordered_ = trace::kInvalidMetric;
  trace::MetricId m_faults_killed_ = trace::kInvalidMetric;
  trace::MetricId m_async_delivered_ = trace::kInvalidMetric;
  trace::MetricId m_async_staleness_sum_ = trace::kInvalidMetric;
  trace::MetricId m_async_staleness_max_ = trace::kInvalidMetric;
  trace::MetricId m_node_msgs_intra_ = trace::kInvalidMetric;
  trace::MetricId m_node_bytes_intra_ = trace::kInvalidMetric;
  trace::MetricId m_node_msgs_inter_ = trace::kInvalidMetric;
  trace::MetricId m_node_bytes_inter_ = trace::kInvalidMetric;
  trace::MetricId m_node_forward_frames_ = trace::kInvalidMetric;
  trace::MetricId m_node_forwarded_records_ = trace::kInvalidMetric;
  const faults::FaultSchedule* faults_ = nullptr;
  // Cached faults_->any_kills() so kill-free fences never touch the
  // schedule's kill table (set_fault_schedule refreshes it).
  bool kills_ = false;
  // Event-driven delivery setting; read only while `async_` is set.
  AsyncDelivery delivery_{};
  bool async_ = false;
  CommStats stats_;
  // Per-source pending tenant attributions (batched serving): slot
  // [s * num_tenants_ + t] accumulates what source s staged for tenant t
  // since the last fence. Touched only by s's thread mid-epoch; the fence
  // folds and re-zeroes them in ascending source order. Empty unless
  // set_num_tenants configured a batch.
  std::size_t num_tenants_ = 0;
  std::vector<std::uint64_t> tenant_lane_records_, tenant_lane_doubles_;
  std::vector<std::vector<Message>> windows_;   // delivered, per rank
  std::vector<std::vector<Staged>> lanes_;      // pending, per SOURCE rank
  std::vector<std::uint64_t> lane_seq_;         // per-source send counters
  std::vector<std::vector<Deferred>> deferred_;  // delayed, per dest rank
  // Buffer recycling (see BufferPool): stage_pools_[s] feeds stage(s, ...)
  // mid-epoch (touched only by s's thread); window_pools_[d] feeds the
  // fence's delivery copies and is refilled by consume(d). The fence runs
  // single-threaded, so it may touch every pool.
  std::vector<BufferPool> stage_pools_, window_pools_;
  // Fence scratch, hoisted so steady-state fences do not allocate.
  std::vector<std::vector<Deferred>> fence_matured_;  // per dest rank
  std::vector<Deferred> fence_keep_;
  std::uint64_t arrival_counter_ = 0;  // Deferred::arrival source
  // Per-epoch accounting for the machine model.
  std::vector<double> epoch_flops_;
  std::vector<std::uint64_t> epoch_msgs_, epoch_bytes_;
  // Node-aware state. topo_ is the *effective* topology (flat attachments
  // degenerate to nullptr); node_pair_channels_ is the dense node-pair
  // channel-count matrix from NodeRoutingOptions. The group_* vectors are
  // the prepass's dense (src node, dst node, tag) scratch — touched slots
  // are listed in group_touched_ and re-zeroed as the leader->leader
  // charges are emitted, so steady-state fences stay allocation-free. The
  // epoch_*_intra_/inter_ vectors are the per-rank physical-hop tier
  // accumulators rank_cost_tiered charges from.
  std::optional<NodeTopology> topo_;
  bool node_route_ = false;
  std::vector<std::uint32_t> node_pair_channels_;
  std::vector<std::uint32_t> group_puts_;
  std::vector<std::uint64_t> group_records_, group_doubles_;
  std::vector<std::size_t> group_touched_;
  std::vector<std::uint64_t> epoch_msgs_intra_, epoch_bytes_intra_;
  std::vector<std::uint64_t> epoch_msgs_inter_, epoch_bytes_inter_;
  std::uint64_t epochs_ = 0;
  double model_time_ = 0.0;
  double last_epoch_seconds_ = 0.0;
};

/// Message byte size as charged to the model: payload plus a fixed header.
constexpr std::uint64_t kMessageHeaderBytes = 16;
inline std::uint64_t message_bytes(std::size_t payload_doubles) {
  return kMessageHeaderBytes + 8 * static_cast<std::uint64_t>(payload_doubles);
}

}  // namespace dsouth::simmpi
