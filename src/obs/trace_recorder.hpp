// TraceRecorder: a lock-free flight recorder behind system.tracer().
//
// Instrumentation sites (manager, agents, coordinators, transports) hold a
// raw pointer and guard every record with enabled() — a relaxed atomic load —
// so a disabled recorder costs one branch per site and allocates nothing.
//
// When enabled, record() packs the event into a fixed-size POD slot and
// writes it into a per-thread single-producer ring buffer using a seqlock
// per slot: the producer never takes a lock, never allocates (after the
// ring exists), and drops the *oldest* events by overwriting once the ring
// wraps — the recorder is an always-on "recent history" whose worst case is
// a bounded window plus a dropped() counter, never backpressure. Readers
// (events(), tail(), size()) validate each slot's sequence word before and
// after copying it out; a slot torn by a concurrent overwrite is skipped
// and counted as dropped.
//
// Export order is deterministic: rings are merged by (clock time, ring
// registration index, slot position) and a dense seq is assigned at merge
// time. On SimRuntime a recorder is fed by one thread, so the merged order
// is exactly append order in virtual time and two same-seed runs produce
// byte-identical JSONL for any worker-thread count.
//
// Tracks give span exporters a stable row per protocol entity: the manager
// registers kManagerTrack, each agent registers its process id, coordinators
// register negative rows, and endpoint NodeIds map onto tracks so message
// events can be attributed to the endpoint that produced them. Track
// registration happens at wiring time (cold) and stays mutexed.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/event.hpp"

namespace sa::obs {

/// How much the recorder keeps when enabled. Full records every
/// instrumentation site; Causal records only the kinds the critical-path
/// analysis consumes (tickets, epochs, flow links, request spans, blocked
/// windows) — the always-on flight-recorder configuration, roughly 15% of
/// the Full event volume on the fleet workload.
enum class TraceDetail : std::uint8_t { Full, Causal };

constexpr std::uint32_t kind_bit(EventKind kind) {
  return 1u << static_cast<unsigned>(kind);
}

constexpr std::uint32_t detail_mask(TraceDetail detail) {
  return detail == TraceDetail::Full
             ? ~0u
             : kind_bit(EventKind::AdaptationRequested) |
                   kind_bit(EventKind::AdaptationFinished) |
                   kind_bit(EventKind::EpochOpened) | kind_bit(EventKind::EpochSealed) |
                   kind_bit(EventKind::EpochCompleted) |
                   kind_bit(EventKind::TicketSubmitted) | kind_bit(EventKind::TicketDone) |
                   kind_bit(EventKind::FlowLink) | kind_bit(EventKind::BlockedWindow);
}

namespace detail {

/// Fixed-size POD image of an Event. Strings are truncated into inline
/// buffers so a slot can be copied through relaxed atomic words (a seqlock
/// over std::string would be undefined behaviour).
inline constexpr std::size_t kNameCap = 48;
inline constexpr std::size_t kDetailCap = 104;

struct PackedEvent {
  std::int64_t time;
  std::int64_t track;
  std::uint64_t from;
  std::uint64_t to;
  std::uint64_t span;
  std::uint64_t parent_span;
  std::uint64_t epoch;
  std::uint64_t request;
  double value;
  std::uint32_t plan;
  std::uint32_t step;
  std::uint32_t attempt;
  std::uint8_t kind;
  std::uint8_t has_value;
  std::uint8_t name_len;
  std::uint8_t detail_len;
  char name[kNameCap];
  char detail[kDetailCap];
};
static_assert(sizeof(PackedEvent) % sizeof(std::uint64_t) == 0);
inline constexpr std::size_t kPackedWords = sizeof(PackedEvent) / sizeof(std::uint64_t);

/// One seqlock-protected slot. seq == 2*pos + 2 marks position `pos` fully
/// written; odd values mark a write in flight. Readers copy the words with
/// relaxed loads between two acquire-ordered checks of seq.
struct alignas(64) Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> words[kPackedWords];
};

/// A single-producer ring. The owning thread is the only writer of wpos and
/// of slot payloads; any thread may read. Capacity is a power of two and the
/// ring drops oldest entries by overwriting — there is no consumer cursor.
struct Ring {
  explicit Ring(std::size_t capacity_pow2);

  void push(const PackedEvent& packed);

  std::size_t capacity = 0;
  std::unique_ptr<Slot[]> slots;
  // Monotonic append count; slot for position p is slots[p & (capacity-1)].
  alignas(64) std::atomic<std::uint64_t> wpos{0};
};

}  // namespace detail

class TraceRecorder {
 public:
  TraceRecorder();
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Recording gate; construction leaves it off so instrumentation is free
  /// until a caller (sa_run --trace-out, a test) opts in.
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Detail filter; construction selects Full. Instrumentation sites gate on
  /// wants(kind) *before* building the Event, so a filtered kind costs one
  /// branch and two relaxed loads — no strings, no ring traffic.
  void set_detail(TraceDetail detail) {
    kind_mask_.store(detail_mask(detail), std::memory_order_relaxed);
  }
  bool wants(EventKind kind) const {
    return enabled() &&
           (kind_mask_.load(std::memory_order_relaxed) & kind_bit(kind)) != 0;
  }

  /// Records `event` into the calling thread's ring when enabled; drops it
  /// otherwise. Lock-free after the thread's first record (which registers
  /// the ring under the recorder mutex). Strings longer than the slot
  /// buffers are truncated deterministically.
  void record(const Event& event);

  /// Per-thread ring capacity (power of two; values are rounded up) for
  /// rings created *after* the call. Call before recording starts.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  /// Names a track for span exports ("manager", "agent-p0", ...).
  void set_track_name(std::int64_t track, std::string name);
  /// Associates a transport endpoint with a track, so message events recorded
  /// by the transports can be attributed to protocol entities at export time.
  void set_node_track(runtime::NodeId node, std::int64_t track);

  /// Merged view of every ring, ordered by (time, ring, position) with a
  /// dense seq assigned at merge time. Safe while producers are still
  /// appending (torn slots are skipped and counted), though a stable full
  /// trace requires quiescence.
  std::vector<Event> events() const;
  /// The most recent `n` merged events — the post-mortem view. Never blocks
  /// recording threads: readers take no lock the producers contend on.
  std::vector<Event> tail(std::size_t n) const;
  std::map<std::int64_t, std::string> track_names() const;
  std::optional<std::int64_t> node_track(runtime::NodeId node) const;

  /// Events currently readable across all rings (bounded by ring capacity).
  std::size_t size() const;
  /// Events lost to ring wrap-around plus slots torn by concurrent readers.
  std::uint64_t dropped() const;

  /// Resets every ring and counter. Requires producer quiescence.
  void clear();

 private:
  detail::Ring& ring_for_this_thread();
  std::vector<Event> merge(std::size_t want_tail) const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> kind_mask_{detail_mask(TraceDetail::Full)};
  const std::uint64_t id_;  ///< process-unique, never reused (TLS cache key)

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::vector<std::unique_ptr<detail::Ring>> rings_;        ///< registration order
  std::map<std::thread::id, std::size_t> thread_rings_;     ///< thread -> ring index
  mutable std::atomic<std::uint64_t> torn_{0};
  std::vector<std::pair<std::int64_t, std::string>> tracks_;  ///< ascending track
  std::vector<std::int64_t> node_tracks_;  ///< by node id; kNoTrack: unset
};

}  // namespace sa::obs
