#pragma once

/// \file trace.hpp
/// Deterministic structured event tracer for the simulated runtime and the
/// distributed solvers (docs/observability.md).
///
/// Design: each rank records events into its *own* lane, a plain vector,
/// while an epoch is in flight — the same one-thread-per-rank discipline
/// the simmpi Runtime uses for staging lanes, so recording never contends
/// and never perturbs the simulation. At every fence the lanes are merged
/// into the global event stream in (source rank, record order) order —
/// exactly the order the Runtime merges staged puts — which makes the
/// merged stream **bit-identical across execution backends and thread
/// counts**. Every event field is deterministic; host time stays out of
/// the trace.
///
/// Lossless: a lane keeps every event its rank records, so the trace holds
/// every input of the machine model and the analysis layer can rebuild
/// each fence's modeled seconds from it bit for bit (src/analysis).
///
/// Overhead contract: tracing is attached by pointer
/// (Runtime::set_tracer); with no tracer attached every hook is an inlined
/// null-pointer test, and attaching one never changes the simulation's
/// results, CommStats, or modeled time (TraceOverhead tests). With a
/// tracer attached, recording is a push_back onto the rank's lane, and the
/// fence appends each lane to the shared EventLog with one contiguous copy
/// and clears it, keeping its capacity for the next epoch.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "trace/metrics.hpp"

namespace dsouth::trace {

/// What happened. Solver-level kinds (relax/absorb) are recorded through
/// RankContext; runtime-level kinds (put/fence) by the Runtime itself.
enum class EventKind : std::uint8_t {
  kPut = 0,     ///< one-sided put staged (a0 = payload doubles, a1 = bytes)
  kFence = 1,   ///< epoch closed (a0 = epoch model seconds, a1 = epoch msgs)
  kRelax = 2,   ///< a rank relaxed its subdomain (a0 = rows, a1 = new ‖r‖²)
  kAbsorb = 3,  ///< a rank drained its window (a0 = msgs, a1 = payload dbls)
  /// Local computation charged to the machine model (a0 = flops, a1 = 0),
  /// recorded by Runtime::add_flops. Together with the put events this lets
  /// the analysis layer rebuild every per-rank epoch cost term of the α–β–γ
  /// model from the trace alone (src/analysis).
  kCompute = 4,
  /// A fault-injection action applied to a staged message at the fence
  /// (src/faults, docs/resilience.md), recorded by the Runtime into the
  /// *source* rank's lane. `peer` = destination, `tag` = action code
  /// (0 drop, 1 duplicate, 2 reorder, 3 corrupt, 4 truncate, 5 stall,
  /// 6 dead-endpoint drop under a kill plan),
  /// a0 = the message's per-source send seq, a1 = action detail (extra
  /// epochs for reorder/stall, flipped-bit index for corrupt, delivered
  /// length for truncate, 0 otherwise).
  kFault = 5,
  /// A message matured into a destination window under asynchronous
  /// delivery (simmpi/delivery.hpp), recorded by the Runtime into
  /// the *destination* rank's lane at the delivering fence. `peer` =
  /// source rank, `tag` = the message's simmpi::MsgTag as int, a0 =
  /// staleness (epochs between staging and delivery), a1 = payload
  /// doubles. Bulk-synchronous runs record none of these.
  kDeliver = 6,
  /// One physical transfer under a node topology (simmpi/node_topology.hpp,
  /// DESIGN.md §13), recorded by the Runtime at the fence into the *paying*
  /// rank's lane. `peer` = physical destination rank, `tag` = hop kind
  /// (0 intra-node direct, 1 source → leader relay, 2 leader → leader
  /// inter-node, 3 leader → destination relay, 4 inter-node direct),
  /// a0 = modeled bytes of the hop, a1 = logical wire records it carries.
  /// Tier: tags 2 and 4 are inter-node, the rest intra-node. Topology-free
  /// runs record none of these.
  kHop = 7,
  /// An elastic checkpoint/recovery action (src/elastic, docs/resilience.md
  /// "Permanent failure and recovery"), recorded by the elastic driver into
  /// rank 0's lane at the step boundary where it acted. `tag` = action code
  /// (0 checkpoint taken, 1 permanent rank death detected, 2 state restored
  /// from checkpoint, 3 repartition applied), a0/a1 = action detail:
  /// checkpoint → bytes encoded / step, kill → dead rank / kill epoch,
  /// restore → restored step / restored epoch, repartition → dead rank /
  /// rows redistributed. Fault-free runs record none of these.
  kElastic = 8,
};
inline constexpr int kNumEventKinds = 9;

/// The JSONL schema version (docs/observability.md). One schema covers
/// every run: a feature that is off just records no events of its kind
/// and leaves its counters at zero. write_jsonl always writes this number
/// and analysis::parse_jsonl accepts no other.
inline constexpr int kTraceVersion = 9;

/// Hop kinds carried in a kHop event's tag field.
inline constexpr int kHopIntraDirect = 0;  ///< same-node message
inline constexpr int kHopRelayUp = 1;      ///< source -> its node leader
inline constexpr int kHopInterLeader = 2;  ///< leader -> leader (aggregated)
inline constexpr int kHopRelayDown = 3;    ///< leader -> destination rank
inline constexpr int kHopInterDirect = 4;  ///< cross-node, routing off

/// True when a hop kind crosses the node boundary (pays inter-node α/β).
inline bool hop_is_inter(int hop_tag) {
  return hop_tag == kHopInterLeader || hop_tag == kHopInterDirect;
}

/// Returns "put"/"fence"/"relax"/"absorb"/"compute"/"fault"/"deliver"/"hop".
const char* event_kind_name(EventKind kind);

/// Exclusive bounds on the narrow Event fields; Tracer::record and the
/// JSONL parser reject values outside them.
inline constexpr std::uint64_t kEpochEnd = std::uint64_t{1} << 32;
inline constexpr int kTagEnd = 128;

/// One trace record: 40 bytes, every field deterministic. An event has no
/// stored sequence number: its position in the EventLog is its seq. The
/// doubles come first so the record packs without interior padding.
struct Event {
  double a0 = 0.0;          ///< kind-specific (see EventKind)
  double a1 = 0.0;          ///< kind-specific (see EventKind)
  double t_model = 0.0;     ///< modeled seconds at record time
  std::int32_t rank = -1;   ///< recording rank; -1 for runtime-wide (fence)
  std::int32_t peer = -1;   ///< other rank (see EventKind); -1 if none
  std::uint32_t epoch = 0;  ///< epoch in flight when recorded
  EventKind kind = EventKind::kPut;
  std::int8_t tag = -1;  ///< kind-specific code (see EventKind); -1 if none
};

/// The one store of merged trace events: the Tracer's stream, TraceLog,
/// and the analysis layer's RunTrace (in memory or parsed from JSONL) all
/// hold an EventLog. Append-only; it grows in fixed chunks of
/// kChunkEvents, never by reallocation. Copying a log shares its chunks:
/// full chunks never change, and a partly filled tail chunk is copied only
/// when a log that shares it is appended to. An append invalidates
/// iterators; references stay valid, except those into a shared tail that
/// the append replaced with this log's own copy. Const access is safe
/// from any thread; an append needs exclusive access to the log it
/// appends to, as with any container.
class EventLog {
  using Chunk = std::vector<Event>;  // reserved to kChunkEvents, never grown
  using ChunkPtr = std::shared_ptr<Chunk>;

 public:
  static constexpr std::size_t kChunkEvents = 4096;

  /// Forward iterator that walks the chunks in order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Event;
    using difference_type = std::ptrdiff_t;
    using pointer = const Event*;
    using reference = const Event&;

    const_iterator() = default;
    reference operator*() const { return *cur_; }
    pointer operator->() const { return cur_; }
    const_iterator& operator++() {
      if (++cur_ == chunk_end_ && next_ != last_) enter(next_++);
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const const_iterator& o) const { return cur_ == o.cur_; }

   private:
    friend class EventLog;
    void enter(const ChunkPtr* chunk) {
      cur_ = (*chunk)->data();
      chunk_end_ = cur_ + (*chunk)->size();
    }

    const Event* cur_ = nullptr;
    const Event* chunk_end_ = nullptr;
    const ChunkPtr* next_ = nullptr;  // the chunk after the current one
    const ChunkPtr* last_ = nullptr;  // one past the final chunk
  };

  std::size_t size() const {
    return chunks_.empty()
               ? 0
               : (chunks_.size() - 1) * kChunkEvents + chunks_.back()->size();
  }
  bool empty() const { return chunks_.empty(); }
  const Event& operator[](std::size_t i) const {
    return (*chunks_[i / kChunkEvents])[i % kChunkEvents];
  }
  const Event& back() const { return chunks_.back()->back(); }
  const_iterator begin() const;
  const_iterator end() const;

  void push_back(const Event& e) { append(std::span<const Event>(&e, 1)); }
  /// Append `events` in order, filling the tail chunk with contiguous
  /// copies before starting the next.
  void append(std::span<const Event> events);

 private:
  /// The tail chunk with room for one more event, made first when the
  /// tail is full or missing, and copied first when another log shares it.
  Chunk& writable_tail();

  std::vector<ChunkPtr> chunks_;  // every chunk but the last is full
};

/// Tracer switch. `enabled` is consumed by the callers that own the
/// tracer's lifetime (dist::DistRunOptions, the benches' -trace flag); a
/// constructed Tracer is always live.
struct TraceOptions {
  bool enabled = false;
};

/// The merged result of a traced run (what DistRunResult carries and the
/// exporters consume).
struct TraceLog {
  int num_ranks = 0;
  EventLog events;          ///< fence-merged; an event's seq is its index
  MetricsRegistry metrics;  ///< final per-rank counter/gauge values

  explicit TraceLog(int ranks) : num_ranks(ranks), metrics(ranks) {}
};

/// Per-rank lane event recorder with a deterministic fence merge.
/// Thread-safety contract (mirrors Runtime's): during an epoch at most one
/// thread records for a given rank; distinct ranks may record concurrently.
/// end_epoch()/flush() are single-caller, between epochs.
class Tracer {
 public:
  explicit Tracer(int num_ranks);

  int num_ranks() const { return num_ranks_; }

  /// The metrics registry solvers and the runtime register into.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Record an event into `rank`'s lane. `epoch` and `t_model` come from
  /// the runtime (they are epoch-stable, hence safe to read mid-epoch).
  /// Throws CheckError when `epoch` >= kEpochEnd or `tag` is outside
  /// [-1, kTagEnd), the ranges an Event stores.
  void record(int rank, EventKind kind, int peer, int tag, double a0,
              double a1, std::uint64_t epoch, double t_model);

  /// Merge all rank lanes into the global stream in (rank, record order)
  /// order, then append the fence event itself. Called by Runtime::fence().
  /// Throws CheckError when `closed_epoch` >= kEpochEnd.
  void end_epoch(std::uint64_t closed_epoch, double t_model_after,
                 double epoch_seconds, std::uint64_t epoch_msgs);

  /// Merge any events still sitting in rank lanes (the absorb phase after
  /// the final fence records there). Call once, at end of run.
  void flush();

  /// Events merged so far (valid between epochs).
  const EventLog& events() const { return merged_; }

  /// Move the merged stream + metrics out into a TraceLog.
  TraceLog take_log();

 private:
  void merge_lanes();

  int num_ranks_;
  MetricsRegistry metrics_;
  /// One lane per rank: the events it recorded since the last merge. A
  /// lane grows on demand, so idle ranks cost nothing, and keeps its
  /// capacity across merges.
  std::vector<std::vector<Event>> lanes_;
  EventLog merged_;
};

}  // namespace dsouth::trace
