// Deterministic discrete-event simulator.
//
// All simulated distributed behaviour in this repository — protocol message
// exchange, packet streaming, manager timeouts — runs on virtual time
// provided by this scheduler.  Events at equal timestamps fire in scheduling
// order (stable FIFO tie-break), so a given seed always produces the
// identical execution, which is what lets the protocol tests assert exact
// traces.
//
// The simulator IS the sim backend's runtime::Clock: layers above sa_graph
// program against that interface and receive this implementation through the
// SimRuntime adapter.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/clock.hpp"

namespace sa::sim {

/// Virtual time in microseconds (shared time base with the runtime layer).
using Time = runtime::Time;

using runtime::us;
using runtime::ms;
using runtime::seconds;

using EventId = runtime::TimerId;

class Simulator final : public runtime::Clock {
 public:
  Time now() const override { return now_; }

  /// Schedules `fn` at absolute virtual time `t` (>= now). Returns an id
  /// usable with cancel().
  EventId schedule_at(Time t, std::function<void()> fn) override;

  /// Schedules `fn` `delay` microseconds from now.
  EventId schedule_after(Time delay, std::function<void()> fn) override;

  /// Cancels a pending event; returns false if it already fired or was
  /// cancelled. Safe to call from inside event handlers.
  bool cancel(EventId id) override;

  /// Runs the next pending event; returns false when the queue is empty.
  bool step();

  /// Runs until the queue drains (or `max_events` fire). Returns events run.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs events with timestamp <= `deadline`, then advances now to
  /// `deadline`. Returns events run.
  std::size_t run_until(Time deadline);

  std::size_t pending_events() const { return pending_; }

 private:
  struct Event {
    Time time;
    EventId id;  // also the FIFO tie-break: lower id scheduled earlier
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  bool alive(EventId id) const {
    return id >= window_base_ && id < next_id_ && alive_[id - window_base_] != 0;
  }
  /// Marks `id` fired or cancelled, then slides the window past the dead
  /// prefix. Cancelled events stay in queue_ and are skipped when popped.
  void retire(EventId id);
  /// Moves the earliest event out of queue_.
  Event pop();

  Time now_ = 0;
  EventId next_id_ = 1;
  std::vector<Event> queue_;  ///< binary min-heap under Later
  /// One flag per id in [window_base_, next_id_): scheduled and not yet fired
  /// or cancelled. Ids below window_base_ + head_ are all dead; the vector
  /// only drops its dead prefix once it is at least half the window, so
  /// bookkeeping neither allocates in steady state nor grows past twice the
  /// span between the oldest live id and the newest.
  std::vector<std::uint8_t> alive_;
  EventId window_base_ = 1;
  std::size_t head_ = 0;
  std::size_t pending_ = 0;
};

}  // namespace sa::sim
