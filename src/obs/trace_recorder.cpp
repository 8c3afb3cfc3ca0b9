#include "obs/trace_recorder.hpp"

#include <algorithm>
#include <cstring>

namespace sa::obs {

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::AdaptationRequested: return "adaptation_requested";
    case EventKind::PlanComputed: return "plan_computed";
    case EventKind::StepStarted: return "step_started";
    case EventKind::StepCommitted: return "step_committed";
    case EventKind::StepRolledBack: return "step_rolled_back";
    case EventKind::AdaptationFinished: return "adaptation_finished";
    case EventKind::ManagerPhase: return "manager_phase";
    case EventKind::AgentState: return "agent_state";
    case EventKind::MessageSent: return "message_sent";
    case EventKind::MessageDelivered: return "message_delivered";
    case EventKind::MessageDropped: return "message_dropped";
    case EventKind::MessageDuplicated: return "message_duplicated";
    case EventKind::TimerArmed: return "timer_armed";
    case EventKind::TimerFired: return "timer_fired";
    case EventKind::TimerCancelled: return "timer_cancelled";
    case EventKind::CoordinatorPhase: return "coordinator_phase";
    case EventKind::EpochOpened: return "epoch_opened";
    case EventKind::EpochSealed: return "epoch_sealed";
    case EventKind::EpochCompleted: return "epoch_completed";
    case EventKind::TicketSubmitted: return "ticket_submitted";
    case EventKind::TicketDone: return "ticket_done";
    case EventKind::FlowLink: return "flow_link";
    case EventKind::BlockedWindow: return "blocked_window";
  }
  return "?";
}

bool is_message_event(EventKind kind) {
  switch (kind) {
    case EventKind::MessageSent:
    case EventKind::MessageDelivered:
    case EventKind::MessageDropped:
    case EventKind::MessageDuplicated:
      return true;
    default:
      return false;
  }
}

namespace detail {

Ring::Ring(std::size_t capacity_pow2)
    : capacity(capacity_pow2), slots(new Slot[capacity_pow2]) {}

// Seqlock write (Boehm, "Can seqlocks get along with programming language
// memory models?"): odd seq marks the write in flight, a release fence
// orders it before the payload words, the even seq store publishes them.
void Ring::push(const PackedEvent& packed) {
  const std::uint64_t pos = wpos.load(std::memory_order_relaxed);
  Slot& slot = slots[pos & (capacity - 1)];
  slot.seq.store(2 * pos + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  std::uint64_t buf[kPackedWords];
  std::memcpy(buf, &packed, sizeof(packed));
  for (std::size_t i = 0; i < kPackedWords; ++i) {
    slot.words[i].store(buf[i], std::memory_order_relaxed);
  }
  slot.seq.store(2 * pos + 2, std::memory_order_release);
  wpos.store(pos + 1, std::memory_order_release);
}

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void pack(const Event& event, PackedEvent& out) {
  out.time = event.time;
  out.track = event.track;
  out.from = event.from;
  out.to = event.to;
  out.span = event.span;
  out.parent_span = event.parent_span;
  out.epoch = event.epoch;
  out.request = event.coords.request;
  out.value = event.value;
  out.plan = event.coords.plan;
  out.step = event.coords.step;
  out.attempt = event.coords.attempt;
  out.kind = static_cast<std::uint8_t>(event.kind);
  out.has_value = event.has_value ? 1 : 0;
  out.name_len = static_cast<std::uint8_t>(std::min(event.name.size(), kNameCap));
  out.detail_len = static_cast<std::uint8_t>(std::min(event.detail.size(), kDetailCap));
  std::memcpy(out.name, event.name.data(), out.name_len);
  std::memcpy(out.detail, event.detail.data(), out.detail_len);
}

Event unpack(const PackedEvent& packed) {
  Event event;
  event.time = packed.time;
  event.kind = static_cast<EventKind>(packed.kind);
  event.track = packed.track;
  event.from = packed.from;
  event.to = packed.to;
  event.span = packed.span;
  event.parent_span = packed.parent_span;
  event.epoch = packed.epoch;
  event.coords.request = packed.request;
  event.coords.plan = packed.plan;
  event.coords.step = packed.step;
  event.coords.attempt = packed.attempt;
  event.name.assign(packed.name, packed.name_len);
  event.detail.assign(packed.detail, packed.detail_len);
  event.value = packed.value;
  event.has_value = packed.has_value != 0;
  return event;
}

/// Seqlock read: acquire the slot's seq, copy the words relaxed, then
/// re-check the seq behind an acquire fence. A mismatch means the slot was
/// being overwritten while we copied — the caller counts it as dropped.
bool read_slot(const Slot& slot, std::uint64_t pos, PackedEvent& out) {
  const std::uint64_t want = 2 * pos + 2;
  if (slot.seq.load(std::memory_order_acquire) != want) return false;
  std::uint64_t buf[kPackedWords];
  for (std::size_t i = 0; i < kPackedWords; ++i) {
    buf[i] = slot.words[i].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.seq.load(std::memory_order_relaxed) != want) return false;
  std::memcpy(&out, buf, sizeof(out));
  return true;
}

struct TlsCache {
  std::uint64_t recorder_id = 0;
  Ring* ring = nullptr;
};
thread_local TlsCache tls_cache;

std::atomic<std::uint64_t> next_recorder_id{1};

}  // namespace

}  // namespace detail

TraceRecorder::TraceRecorder()
    : id_(detail::next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(16384) {}

TraceRecorder::~TraceRecorder() = default;

detail::Ring& TraceRecorder::ring_for_this_thread() {
  std::lock_guard lock(mutex_);
  const auto tid = std::this_thread::get_id();
  const auto it = thread_rings_.find(tid);
  if (it != thread_rings_.end()) return *rings_[it->second];
  rings_.push_back(std::make_unique<detail::Ring>(detail::round_up_pow2(capacity_)));
  thread_rings_.emplace(tid, rings_.size() - 1);
  return *rings_.back();
}

void TraceRecorder::record(const Event& event) {
  if (!wants(event.kind)) return;  // backstop for sites that only check enabled()
  detail::Ring* ring = detail::tls_cache.ring;
  if (detail::tls_cache.recorder_id != id_ || ring == nullptr) {
    ring = &ring_for_this_thread();
    detail::tls_cache.recorder_id = id_;
    detail::tls_cache.ring = ring;
  }
  detail::PackedEvent packed{};
  detail::pack(event, packed);
  ring->push(packed);
}

void TraceRecorder::set_capacity(std::size_t capacity) {
  std::lock_guard lock(mutex_);
  capacity_ = capacity == 0 ? 1 : capacity;
}

std::size_t TraceRecorder::capacity() const {
  std::lock_guard lock(mutex_);
  return capacity_;
}

void TraceRecorder::set_track_name(std::int64_t track, std::string name) {
  std::lock_guard lock(mutex_);
  const auto it = std::lower_bound(
      tracks_.begin(), tracks_.end(), track,
      [](const std::pair<std::int64_t, std::string>& t, std::int64_t key) { return t.first < key; });
  if (it != tracks_.end() && it->first == track) {
    it->second = std::move(name);
  } else {
    tracks_.emplace(it, track, std::move(name));
  }
}

void TraceRecorder::set_node_track(runtime::NodeId node, std::int64_t track) {
  std::lock_guard lock(mutex_);
  if (node >= node_tracks_.size()) node_tracks_.resize(node + 1, kNoTrack);
  node_tracks_[node] = track;
}

std::vector<Event> TraceRecorder::merge(std::size_t want_tail) const {
  // Snapshot the ring set under the mutex (producers only take it on their
  // first record), then read slots lock-free so draining never stalls them.
  std::vector<detail::Ring*> rings;
  {
    std::lock_guard lock(mutex_);
    rings.reserve(rings_.size());
    for (const auto& ring : rings_) rings.push_back(ring.get());
  }

  struct Keyed {
    detail::PackedEvent packed;
    std::size_t ring;
    std::uint64_t pos;
  };
  std::vector<Keyed> merged;
  for (std::size_t r = 0; r < rings.size(); ++r) {
    const detail::Ring& ring = *rings[r];
    const std::uint64_t end = ring.wpos.load(std::memory_order_acquire);
    std::uint64_t begin = end > ring.capacity ? end - ring.capacity : 0;
    if (want_tail != SIZE_MAX && end - begin > want_tail) begin = end - want_tail;
    for (std::uint64_t pos = begin; pos < end; ++pos) {
      Keyed keyed;
      keyed.ring = r;
      keyed.pos = pos;
      if (detail::read_slot(ring.slots[pos & (ring.capacity - 1)], pos, keyed.packed)) {
        merged.push_back(keyed);
      } else {
        torn_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  std::sort(merged.begin(), merged.end(), [](const Keyed& a, const Keyed& b) {
    if (a.packed.time != b.packed.time) return a.packed.time < b.packed.time;
    if (a.ring != b.ring) return a.ring < b.ring;
    return a.pos < b.pos;
  });
  if (want_tail != SIZE_MAX && merged.size() > want_tail) {
    merged.erase(merged.begin(), merged.end() - static_cast<std::ptrdiff_t>(want_tail));
  }

  std::vector<Event> events;
  events.reserve(merged.size());
  for (const Keyed& keyed : merged) {
    events.push_back(detail::unpack(keyed.packed));
    events.back().seq = events.size() - 1;
  }
  return events;
}

std::vector<Event> TraceRecorder::events() const { return merge(SIZE_MAX); }

std::vector<Event> TraceRecorder::tail(std::size_t n) const { return merge(n); }

std::map<std::int64_t, std::string> TraceRecorder::track_names() const {
  std::lock_guard lock(mutex_);
  return {tracks_.begin(), tracks_.end()};
}

std::optional<std::int64_t> TraceRecorder::node_track(runtime::NodeId node) const {
  std::lock_guard lock(mutex_);
  if (node >= node_tracks_.size() || node_tracks_[node] == kNoTrack) return std::nullopt;
  return node_tracks_[node];
}

std::size_t TraceRecorder::size() const {
  std::lock_guard lock(mutex_);
  std::size_t total = 0;
  for (const auto& ring : rings_) {
    const std::uint64_t w = ring->wpos.load(std::memory_order_acquire);
    total += static_cast<std::size_t>(std::min<std::uint64_t>(w, ring->capacity));
  }
  return total;
}

std::uint64_t TraceRecorder::dropped() const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = torn_.load(std::memory_order_relaxed);
  for (const auto& ring : rings_) {
    const std::uint64_t w = ring->wpos.load(std::memory_order_acquire);
    if (w > ring->capacity) total += w - ring->capacity;
  }
  return total;
}

void TraceRecorder::clear() {
  std::lock_guard lock(mutex_);
  for (const auto& ring : rings_) {
    for (std::size_t i = 0; i < ring->capacity; ++i) {
      ring->slots[i].seq.store(0, std::memory_order_relaxed);
    }
    ring->wpos.store(0, std::memory_order_release);
  }
  torn_.store(0, std::memory_order_relaxed);
}

}  // namespace sa::obs
