#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>

namespace sa::sim {

EventId Simulator::schedule_at(Time t, std::function<void()> fn) {
  if (t < now_) throw std::invalid_argument("cannot schedule event in the past");
  if (!fn) throw std::invalid_argument("event callback must be non-empty");
  const EventId id = next_id_++;
  queue_.push_back(Event{t, id, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  alive_.push_back(1);
  ++pending_;
  return id;
}

EventId Simulator::schedule_after(Time delay, std::function<void()> fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::cancel(EventId id) {
  // Only live events are cancelable: an id that already fired (including one
  // that fired earlier at this very timestamp) reports false and leaves no
  // residue behind.
  if (!alive(id)) return false;
  retire(id);
  return true;
}

void Simulator::retire(EventId id) {
  alive_[id - window_base_] = 0;
  --pending_;
  while (head_ < alive_.size() && alive_[head_] == 0) ++head_;
  if (head_ >= 64 && 2 * head_ >= alive_.size()) {
    alive_.erase(alive_.begin(), alive_.begin() + static_cast<std::ptrdiff_t>(head_));
    window_base_ += head_;
    head_ = 0;
  }
}

Simulator::Event Simulator::pop() {
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event event = std::move(queue_.back());
  queue_.pop_back();
  return event;
}

bool Simulator::step() {
  while (!queue_.empty()) {
    Event event = pop();
    if (!alive(event.id)) continue;  // cancelled while queued
    retire(event.id);
    now_ = event.time;
    event.fn();
    return true;
  }
  return false;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t count = 0;
  while (count < max_events && step()) ++count;
  return count;
}

std::size_t Simulator::run_until(Time deadline) {
  std::size_t count = 0;
  while (!queue_.empty()) {
    const Event& top = queue_.front();
    if (!alive(top.id)) {
      pop();
      continue;
    }
    if (top.time > deadline) break;
    step();
    ++count;
  }
  if (now_ < deadline) now_ = deadline;
  return count;
}

}  // namespace sa::sim
