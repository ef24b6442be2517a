#include "trace/trace.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace dsouth::trace {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kPut:
      return "put";
    case EventKind::kFence:
      return "fence";
    case EventKind::kRelax:
      return "relax";
    case EventKind::kAbsorb:
      return "absorb";
    case EventKind::kCompute:
      return "compute";
    case EventKind::kFault:
      return "fault";
    case EventKind::kDeliver:
      return "deliver";
    case EventKind::kHop:
      return "hop";
    case EventKind::kElastic:
      return "elastic";
  }
  return "?";
}

EventLog::const_iterator EventLog::begin() const {
  const_iterator it;
  if (chunks_.empty()) return it;
  it.next_ = chunks_.data() + 1;
  it.last_ = chunks_.data() + chunks_.size();
  it.enter(chunks_.data());
  return it;
}

EventLog::const_iterator EventLog::end() const {
  const_iterator it;
  if (chunks_.empty()) return it;
  it.cur_ = chunks_.back()->data() + chunks_.back()->size();
  return it;
}

EventLog::Chunk& EventLog::writable_tail() {
  if (chunks_.empty() || chunks_.back()->size() == kChunkEvents) {
    chunks_.push_back(std::make_shared<Chunk>());
    chunks_.back()->reserve(kChunkEvents);
  } else if (chunks_.back().use_count() > 1) {
    // Another log shares this partly filled tail: give this log its own
    // copy, so the events the other log holds are never overwritten.
    auto own = std::make_shared<Chunk>();
    own->reserve(kChunkEvents);
    own->assign(chunks_.back()->begin(), chunks_.back()->end());
    chunks_.back() = std::move(own);
  }
  return *chunks_.back();
}

void EventLog::append(std::span<const Event> events) {
  while (!events.empty()) {
    Chunk& tail = writable_tail();
    const std::size_t n = std::min(events.size(), kChunkEvents - tail.size());
    tail.insert(tail.end(), events.begin(), events.begin() + n);
    events = events.subspan(n);
  }
}

Tracer::Tracer(int num_ranks)
    : num_ranks_(num_ranks),
      metrics_(num_ranks),
      lanes_(static_cast<std::size_t>(num_ranks)) {
  DSOUTH_CHECK(num_ranks > 0);
}

void Tracer::record(int rank, EventKind kind, int peer, int tag, double a0,
                    double a1, std::uint64_t epoch, double t_model) {
  DSOUTH_ASSERT(rank >= 0 && rank < num_ranks_);
  DSOUTH_CHECK(epoch < kEpochEnd);
  DSOUTH_CHECK(tag >= -1 && tag < kTagEnd);
  Event e;
  e.kind = kind;
  e.rank = rank;
  e.peer = peer;
  e.tag = static_cast<std::int8_t>(tag);
  e.epoch = static_cast<std::uint32_t>(epoch);
  e.a0 = a0;
  e.a1 = a1;
  e.t_model = t_model;
  lanes_[static_cast<std::size_t>(rank)].push_back(e);
}

void Tracer::merge_lanes() {
  for (std::vector<Event>& lane : lanes_) {
    merged_.append(lane);
    lane.clear();
  }
}

void Tracer::end_epoch(std::uint64_t closed_epoch, double t_model_after,
                       double epoch_seconds, std::uint64_t epoch_msgs) {
  DSOUTH_CHECK(closed_epoch < kEpochEnd);
  merge_lanes();
  Event e;
  e.kind = EventKind::kFence;
  e.rank = -1;
  e.epoch = static_cast<std::uint32_t>(closed_epoch);
  e.a0 = epoch_seconds;
  e.a1 = static_cast<double>(epoch_msgs);
  e.t_model = t_model_after;
  merged_.push_back(e);
}

void Tracer::flush() { merge_lanes(); }

TraceLog Tracer::take_log() {
  TraceLog log(num_ranks_);
  log.events = std::exchange(merged_, EventLog{});
  log.metrics = std::move(metrics_);
  return log;
}

}  // namespace dsouth::trace
