#include "wire/comm_plan.hpp"

#include "util/error.hpp"

namespace dsouth::wire {

std::span<const CommPlan::Peer> CommPlan::peers(int rank) const {
  DSOUTH_CHECK(rank >= 0 && rank < num_ranks());
  return peers_[static_cast<std::size_t>(rank)];
}

std::vector<std::uint32_t> node_pair_channel_counts(
    const CommPlan& plan, const simmpi::NodeTopology& topo) {
  DSOUTH_CHECK(plan.num_ranks() == topo.num_ranks());
  const auto nn = static_cast<std::size_t>(topo.num_nodes());
  std::vector<std::uint32_t> counts(nn * nn, 0);
  for (int s = 0; s < plan.num_ranks(); ++s) {
    for (const CommPlan::Peer& p : plan.peers(s)) {
      if (topo.same_node(s, p.rank)) continue;
      const auto x = static_cast<std::size_t>(topo.node_of(s));
      const auto y = static_cast<std::size_t>(topo.node_of(p.rank));
      ++counts[x * nn + y];
    }
  }
  return counts;
}

ChannelSet::ChannelSet(const CommPlan& plan, int rank)
    : plan_(&plan), rank_(rank) {
  DSOUTH_CHECK(rank >= 0 && rank < plan.num_ranks());
  buffers_.resize(plan.peers(rank).size());
  send_seq_.assign(plan.peers(rank).size(), 0);
}

void ChannelSet::set_sequencing(bool on) {
  DSOUTH_CHECK_MSG(pending_.empty(),
                   "cannot toggle sequencing with unsealed envelopes");
  sequence_ = on;
}

void ChannelSet::set_batch_staging(bool on) {
  for (const auto& buf : buffers_) {
    DSOUTH_CHECK_MSG(buf.types.empty(),
                     "cannot toggle batch staging with records buffered");
  }
  batch_ = on;
}

std::size_t ChannelSet::buffered(std::size_t k) const {
  DSOUTH_CHECK(k < buffers_.size());
  return buffers_[k].types.size();
}

MutableRecord ChannelSet::open(simmpi::RankContext& ctx, std::size_t k,
                               RecordType t, double norm2, double gamma2) {
  const auto peers = plan_->peers(rank_);
  DSOUTH_CHECK(k < peers.size());
  const auto& peer = peers[k];
  const std::size_t len = encoded_doubles(t, peer.send_width);
  if (batch_) {
    // Batch sink: buffer the record's full physical encoding — an
    // envelope when sequencing, a bare body otherwise — for ship_batch()
    // to merge across tenants. Envelope checksums are sealed at flush()
    // like in direct mode (the caller fills the body after open()
    // returns); the returned spans alias the peer buffer and stay valid
    // until this set's next open(), which is all the encode loops need.
    auto& buf = buffers_[k];
    const std::size_t off = buf.bodies.size();
    const std::size_t total = sequence_ ? kEnvelopeDoubles + len : len;
    buf.bodies.resize(off + total);
    buf.types.push_back(t);
    buf.lengths.push_back(total);
    auto out = std::span<double>(buf.bodies).subspan(off, total);
    if (sequence_) {
      auto body = begin_envelope(out, send_seq_[k]++);
      return begin_record(t, norm2, gamma2, body, peer.send_width);
    }
    return begin_record(t, norm2, gamma2, out, peer.send_width);
  }
  if (sequence_) {
    // Sequenced: the record rides inside a wire-v2 envelope. The envelope
    // header (with this channel's next seq) is written now; the checksum
    // is sealed at flush(), once the caller has filled the record body
    // (the staged span stays valid until the fence).
    auto out = ctx.stage(peer.rank, tag_of(t), kEnvelopeDoubles + len);
    auto body = begin_envelope(out, send_seq_[k]++);
    pending_.push_back(out);
    return begin_record(t, norm2, gamma2, body, peer.send_width);
  }
  // Direct: one physical put per record, encoded straight into the
  // runtime's pooled staging buffer (no copy — see Runtime::stage).
  auto out = ctx.stage(peer.rank, tag_of(t), len);
  return begin_record(t, norm2, gamma2, out, peer.send_width);
}

void ChannelSet::flush() {
  if (!sequence_) return;
  for (auto span : pending_) seal_envelope(span);
  pending_.clear();
  if (!batch_) return;
  // Batch sink: seal buffered envelopes now that the phase has filled
  // their bodies — re-sealing ones from an earlier flush of the same epoch
  // is harmless (the checksum recomputes over unchanged content) — and
  // keep everything for ship_batch().
  for (auto& buf : buffers_) {
    std::size_t off = 0;
    for (std::size_t len : buf.lengths) {
      seal_envelope(std::span<double>(buf.bodies).subspan(off, len));
      off += len;
    }
  }
}

void ChannelSet::ship_batch(simmpi::RankContext& ctx,
                            std::span<ChannelSet* const> sets,
                            std::span<const int> tenants) {
  DSOUTH_CHECK(!sets.empty());
  DSOUTH_CHECK(sets.size() == tenants.size());
  ChannelSet& first = *sets.front();
  for (const ChannelSet* s : sets) {
    DSOUTH_CHECK_MSG(s->batch_,
                     "ship_batch needs batch-staged channel sets");
    // Tenant layouts may own distinct (but structurally identical —
    // dist/batch.cpp verifies it) CommPlan objects, so compare shape, not
    // object identity.
    DSOUTH_CHECK_MSG(s->rank_ == first.rank_ &&
                         s->buffers_.size() == first.buffers_.size(),
                     "ship_batch sets must share one rank and peer list");
  }
  const auto peers = first.plan_->peers(first.rank_);
  std::vector<TenantEntry>& entries = first.ship_entries_;
  for (std::size_t k = 0; k < peers.size(); ++k) {
    for (int tag_i = 0; tag_i < simmpi::kNumTags; ++tag_i) {
      const auto tag = static_cast<simmpi::MsgTag>(tag_i);
      entries.clear();
      std::size_t total_body = 0;
      for (std::size_t si = 0; si < sets.size(); ++si) {
        const auto& buf = sets[si]->buffers_[k];
        std::size_t off = 0;
        for (std::size_t j = 0; j < buf.types.size(); ++j) {
          if (tag_of(buf.types[j]) == tag) {
            entries.push_back(TenantEntry{
                tenants[si], std::span<const double>(buf.bodies)
                                 .subspan(off, buf.lengths[j])});
            total_body += buf.lengths[j];
          }
          off += buf.lengths[j];
        }
      }
      if (entries.empty()) continue;
      const std::size_t total = kTenantHeaderDoubles +
                                entries.size() * kTenantEntryDoubles +
                                total_body;
      // One physical put carries every tenant's record for this (peer,
      // tag): the frame counts one logical record per entry, and each
      // entry's share — one record, its body's doubles — is attributed to
      // its tenant for the per-tenant CommStats tallies.
      auto out = ctx.stage(peers[k].rank, tag, total, entries.size());
      encode_tenant_frame(entries, out);
      for (const TenantEntry& e : entries) {
        ctx.add_tenant_records(e.tenant, 1, e.body.size());
      }
    }
  }
  entries.clear();  // its spans alias the buffers cleared below
  for (ChannelSet* s : sets) {
    for (auto& buf : s->buffers_) {
      buf.bodies.clear();
      buf.types.clear();
      buf.lengths.clear();
    }
  }
}

}  // namespace dsouth::wire
