#include "simmpi/stats.hpp"

#include "util/error.hpp"

namespace dsouth::simmpi {

CommStats::CommStats(int num_ranks)
    : num_ranks_(num_ranks),
      msgs_per_rank_(static_cast<std::size_t>(num_ranks), 0) {
  DSOUTH_CHECK(num_ranks > 0);
}

void CommStats::record_send(int source, MsgTag tag, std::uint64_t bytes,
                            std::uint64_t logical) {
  DSOUTH_CHECK(source >= 0 && source < num_ranks_);
  const auto t = static_cast<std::size_t>(tag);
  DSOUTH_CHECK(t < kNumTags);
  DSOUTH_CHECK(logical >= 1);
  ++msgs_by_tag_[t];
  logical_by_tag_[t] += logical;
  bytes_by_tag_[t] += bytes;
  ++msgs_per_rank_[static_cast<std::size_t>(source)];
}

void CommStats::bump_fault(int source, std::uint64_t& counter) {
  DSOUTH_CHECK(source >= 0 && source < num_ranks_);
  ++counter;
}

std::uint64_t CommStats::total_messages() const {
  std::uint64_t sum = 0;
  for (auto m : msgs_by_tag_) sum += m;
  return sum;
}

std::uint64_t CommStats::total_messages(MsgTag tag) const {
  return msgs_by_tag_[static_cast<std::size_t>(tag)];
}

std::uint64_t CommStats::logical_messages() const {
  std::uint64_t sum = 0;
  for (auto m : logical_by_tag_) sum += m;
  return sum;
}

std::uint64_t CommStats::logical_messages(MsgTag tag) const {
  return logical_by_tag_[static_cast<std::size_t>(tag)];
}

std::uint64_t CommStats::total_bytes() const {
  std::uint64_t sum = 0;
  for (auto b : bytes_by_tag_) sum += b;
  return sum;
}

std::uint64_t CommStats::messages_from(int rank) const {
  DSOUTH_CHECK(rank >= 0 && rank < num_ranks_);
  return msgs_per_rank_[static_cast<std::size_t>(rank)];
}

double CommStats::comm_cost() const {
  return static_cast<double>(total_messages()) /
         static_cast<double>(num_ranks_);
}

double CommStats::comm_cost(MsgTag tag) const {
  return static_cast<double>(total_messages(tag)) /
         static_cast<double>(num_ranks_);
}

void CommStats::configure_tenants(std::size_t n) {
  tenant_records_.assign(n, 0);
  tenant_doubles_.assign(n, 0);
}

void CommStats::record_tenant(std::size_t tenant, std::uint64_t records,
                              std::uint64_t doubles) {
  DSOUTH_CHECK(tenant < tenant_records_.size());
  tenant_records_[tenant] += records;
  tenant_doubles_[tenant] += doubles;
}

std::uint64_t CommStats::tenant_records(std::size_t tenant) const {
  DSOUTH_CHECK(tenant < tenant_records_.size());
  return tenant_records_[tenant];
}

std::uint64_t CommStats::tenant_doubles(std::size_t tenant) const {
  DSOUTH_CHECK(tenant < tenant_doubles_.size());
  return tenant_doubles_[tenant];
}

void CommStats::save(std::vector<std::uint64_t>& out) const {
  out.push_back(static_cast<std::uint64_t>(num_ranks_));
  out.push_back(static_cast<std::uint64_t>(tenant_records_.size()));
  for (auto v : msgs_by_tag_) out.push_back(v);
  for (auto v : logical_by_tag_) out.push_back(v);
  for (auto v : bytes_by_tag_) out.push_back(v);
  out.push_back(msgs_dropped_);
  out.push_back(msgs_duplicated_);
  out.push_back(msgs_corrupted_);
  out.push_back(msgs_dead_dropped_);
  out.push_back(msgs_async_delivered_);
  out.push_back(async_staleness_sum_);
  out.push_back(async_staleness_max_);
  out.push_back(msgs_intra_);
  out.push_back(bytes_intra_);
  out.push_back(msgs_inter_);
  out.push_back(bytes_inter_);
  out.push_back(forward_frames_);
  out.push_back(forwarded_records_);
  for (auto v : msgs_per_rank_) out.push_back(v);
  for (auto v : tenant_records_) out.push_back(v);
  for (auto v : tenant_doubles_) out.push_back(v);
}

void CommStats::load(std::span<const std::uint64_t> in) {
  DSOUTH_CHECK_MSG(in.size() >= 2, "CommStats stream: truncated header");
  DSOUTH_CHECK_MSG(
      in[0] == static_cast<std::uint64_t>(num_ranks_),
      "CommStats stream: rank count mismatch (stream " << in[0] << ", this "
                                                       << num_ranks_ << ")");
  // Each tenant takes two words, so bounding the count by the stream
  // first keeps saved_words from wrapping on a corrupt count.
  const auto tenants = static_cast<std::size_t>(in[1]);
  DSOUTH_CHECK_MSG(
      in[1] <= in.size() && in.size() == saved_words(num_ranks_, tenants),
      "CommStats stream: bad length " << in.size() << " for " << num_ranks_
                                      << " ranks, " << tenants << " tenants");
  std::size_t k = 2;
  for (auto& v : msgs_by_tag_) v = in[k++];
  for (auto& v : logical_by_tag_) v = in[k++];
  for (auto& v : bytes_by_tag_) v = in[k++];
  msgs_dropped_ = in[k++];
  msgs_duplicated_ = in[k++];
  msgs_corrupted_ = in[k++];
  msgs_dead_dropped_ = in[k++];
  msgs_async_delivered_ = in[k++];
  async_staleness_sum_ = in[k++];
  async_staleness_max_ = in[k++];
  msgs_intra_ = in[k++];
  bytes_intra_ = in[k++];
  msgs_inter_ = in[k++];
  bytes_inter_ = in[k++];
  forward_frames_ = in[k++];
  forwarded_records_ = in[k++];
  for (auto& v : msgs_per_rank_) v = in[k++];
  tenant_records_.assign(tenants, 0);
  tenant_doubles_.assign(tenants, 0);
  for (auto& v : tenant_records_) v = in[k++];
  for (auto& v : tenant_doubles_) v = in[k++];
}

void CommStats::reset() {
  msgs_by_tag_.fill(0);
  logical_by_tag_.fill(0);
  bytes_by_tag_.fill(0);
  msgs_dropped_ = 0;
  msgs_duplicated_ = 0;
  msgs_corrupted_ = 0;
  msgs_dead_dropped_ = 0;
  msgs_async_delivered_ = 0;
  async_staleness_sum_ = 0;
  async_staleness_max_ = 0;
  msgs_intra_ = 0;
  bytes_intra_ = 0;
  msgs_inter_ = 0;
  bytes_inter_ = 0;
  forward_frames_ = 0;
  forwarded_records_ = 0;
  for (auto& m : msgs_per_rank_) m = 0;
  // Tenant slots keep their COUNT (the batch layout) but re-zero their
  // tallies — see configure_tenants.
  for (auto& t : tenant_records_) t = 0;
  for (auto& t : tenant_doubles_) t = 0;
}

}  // namespace dsouth::simmpi
