#include "accountnet/sim/simulator.hpp"

#include <algorithm>

#include "accountnet/util/ensure.hpp"

namespace accountnet::sim {

void Simulator::schedule(Duration delay, std::function<void()> fn) {
  AN_ENSURE_MSG(delay >= 0, "cannot schedule into the past");
  schedule_at(now_ + delay, std::move(fn));
}

void Simulator::schedule_at(TimePoint when, std::function<void()> fn) {
  AN_ENSURE_MSG(when >= now_, "cannot schedule into the past");
  queue_.push_back(Event{when, next_seq_++, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  now_ = ev.when;
  ++events_processed_;
  ev.fn();
  return true;
}

void Simulator::run_until(TimePoint deadline) {
  while (!queue_.empty() && queue_.front().when <= deadline) {
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run() {
  while (step()) {
  }
}

std::optional<TimePoint> Simulator::next_event_time() const {
  if (queue_.empty()) return std::nullopt;
  return queue_.front().when;
}

}  // namespace accountnet::sim
