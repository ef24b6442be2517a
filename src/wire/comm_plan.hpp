#pragma once

/// \file comm_plan.hpp
/// Precomputed communication plans and per-neighbor staging channels.
///
/// A CommPlan is the static half of a rank's communication: who its
/// neighbors are and the directed boundary widths of each channel. It is
/// computed once at layout time (DistLayout owns one) and shared by every
/// solver run on that layout.
///
/// A ChannelSet is the dynamic half: one per (solver, rank), it stages
/// typed wire records (wire.hpp) to the rank's peers. Records encode in
/// place — directly into the runtime's pooled staging buffer, or into the
/// channel's persistent per-peer buffer in batch-staging mode — so the
/// solver hot paths perform no heap allocation per epoch once buffers are
/// warm. Each record is one physical message: a bare v1 record, or a
/// sequenced envelope when sequencing is on. Only batch staging merges
/// records, across tenants, into shared tenant frames (ship_batch).
///
/// Thread-safety: a ChannelSet belongs to one rank and is only touched by
/// the thread driving that rank's phase (the ExecutionBackend discipline,
/// simmpi/execution.hpp).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "simmpi/node_topology.hpp"
#include "simmpi/rank_context.hpp"
#include "wire/wire.hpp"

namespace dsouth::wire {

/// Static per-rank communication plan: the peer list with directed
/// channel widths, in the deterministic neighbor order the solvers
/// iterate (ascending peer rank — dist/layout.hpp).
class CommPlan {
 public:
  struct Peer {
    int rank = -1;               ///< peer rank id
    std::size_t send_width = 0;  ///< doubles per boundary segment we send
    std::size_t recv_width = 0;  ///< doubles per boundary segment we receive
  };

  CommPlan() = default;
  explicit CommPlan(std::vector<std::vector<Peer>> peers_per_rank)
      : peers_(std::move(peers_per_rank)) {}

  int num_ranks() const { return static_cast<int>(peers_.size()); }
  std::span<const Peer> peers(int rank) const;

 private:
  std::vector<std::vector<Peer>> peers_;
};

/// Dense num_nodes × num_nodes counts (row-major, source node first) of
/// the directed rank channels of `plan` that cross each ordered node pair
/// of `topo`; same-node channels are not counted. The runtime charges a
/// node-routed forward frame one bitmap bit per channel of its node pair
/// (Runtime::set_node_topology, docs/communication.md), so both leaders
/// must derive the same counts — they do, from the same plan and topology.
std::vector<std::uint32_t> node_pair_channel_counts(
    const CommPlan& plan, const simmpi::NodeTopology& topo);

/// Per-rank staging facade over the plan. open() hands out encode-in-place
/// segments; flush() seals the phase's envelopes.
class ChannelSet {
 public:
  ChannelSet(const CommPlan& plan, int rank);

  /// Toggle sequenced envelopes (wire v2, resilient mode). When on, every
  /// record ships wrapped in an envelope carrying a per-peer monotonically
  /// increasing sequence number and a checksum (wire.hpp), which the
  /// receiving solver uses to reject duplicated/stale/corrupted payloads
  /// (docs/resilience.md). Envelope checksums are sealed at flush() —
  /// call flush() at the end of every put phase that used open().
  void set_sequencing(bool on);
  bool sequencing() const { return sequence_; }

  /// Toggle batch-sink staging (batched multi-tenant serving,
  /// dist/batch.hpp). While on, open() buffers every record — including
  /// sequenced envelopes, whose checksums are sealed at flush() — and
  /// flush() ships nothing: the buffered records wait for ship_batch(),
  /// which merges the staging of all co-scheduled tenants into one tenant
  /// frame per (peer, tag). Must be toggled between epochs (checked: no
  /// buffered records).
  void set_batch_staging(bool on);
  bool batch_staging() const { return batch_; }

  /// Ship everything the co-scheduled tenants buffered: for each peer and
  /// each MsgTag (tag-enum order), the buffered records of every set — in
  /// `sets` order, preserving each tenant's own send order — merge into
  /// ONE physical tenant frame (wire.hpp) counted as one logical record
  /// per entry, with each entry's records/doubles attributed to its tenant
  /// (RankContext::add_tenant_records). A lone entry still ships framed:
  /// the receiver needs the tenant id to demux (a batch of one stages no
  /// frames — the coordinator leaves its channels in direct mode). All
  /// sets must be batch-staged views of the same (plan, rank); `tenants[i]`
  /// is the batch index of `sets[i]`. Buffers are cleared on return; the
  /// entry list reuses the first set's scratch, so a warm ship allocates
  /// nothing.
  static void ship_batch(simmpi::RankContext& ctx,
                         std::span<ChannelSet* const> sets,
                         std::span<const int> tenants);

  /// Begin a record of type `t` addressed to peer index `k` (plan order ==
  /// layout neighbor order). Direct mode: the record is staged into the
  /// runtime immediately (one physical put, encoded in place). Batch
  /// staging: the record is buffered until ship_batch(). Returned spans
  /// are valid until this ChannelSet's next open() in batch staging, and
  /// until the runtime's next fence() in direct mode; the caller must
  /// write every element.
  MutableRecord open(simmpi::RankContext& ctx, std::size_t k, RecordType t,
                     double norm2 = 0.0, double gamma2 = 0.0);

  /// Seal any unsealed envelope checksums (sequencing mode — the staged
  /// spans stay valid until the fence, so sealing here covers everything
  /// the phase encoded after open()). Ships nothing: direct mode staged
  /// each record at open(), and batch staging waits for ship_batch(). A
  /// no-op without sequencing. Call at the end of every put phase that
  /// used open().
  void flush();

  /// Records currently buffered for peer `k` (batch staging only).
  std::size_t buffered(std::size_t k) const;

 private:
  struct PeerBuffer {
    std::vector<double> bodies;  ///< concatenated records or envelopes
    std::vector<RecordType> types;
    std::vector<std::size_t> lengths;
  };

  const CommPlan* plan_;
  int rank_;
  bool sequence_ = false;
  bool batch_ = false;
  std::vector<PeerBuffer> buffers_;  ///< indexed like peers(rank_)
  std::vector<std::uint64_t> send_seq_;    ///< per-peer envelope counters
  std::vector<std::span<double>> pending_;  ///< envelopes awaiting seal
  /// ship_batch's entry list, kept in the first set it ships (a set of
  /// the shipping rank, so only that rank's phase touches it).
  std::vector<TenantEntry> ship_entries_;
};

}  // namespace dsouth::wire
