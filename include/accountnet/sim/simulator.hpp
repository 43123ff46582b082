// Deterministic discrete-event simulator.
//
// This substitutes for the paper's EC2 testbed: virtual time advances only
// through scheduled events, so a 10 000-node AccountNet network running for
// hundreds of virtual seconds executes reproducibly in one process.
//
// Events at equal timestamps fire in schedule order (a monotonic sequence
// number breaks ties), which makes runs bit-for-bit repeatable for a fixed
// seed.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace accountnet::sim {

/// Virtual time in microseconds since simulation start.
using TimePoint = std::int64_t;
/// Virtual duration in microseconds.
using Duration = std::int64_t;

constexpr Duration microseconds(std::int64_t v) { return v; }
constexpr Duration milliseconds(std::int64_t v) { return v * 1000; }
constexpr Duration seconds(std::int64_t v) { return v * 1000000; }
constexpr double to_seconds(TimePoint t) { return static_cast<double>(t) / 1e6; }
constexpr double to_milliseconds(TimePoint t) { return static_cast<double>(t) / 1e3; }

class Simulator {
 public:
  TimePoint now() const { return now_; }

  /// Schedules fn to run `delay` after the current time (delay >= 0).
  void schedule(Duration delay, std::function<void()> fn);

  /// Schedules fn at an absolute time (>= now).
  void schedule_at(TimePoint when, std::function<void()> fn);

  /// Runs the next event; returns false when the queue is empty.
  bool step();

  /// Runs events with timestamp <= deadline; time ends at the deadline.
  void run_until(TimePoint deadline);

  /// Runs until the event queue drains.
  void run();

  std::size_t pending() const { return queue_.size(); }
  std::uint64_t events_processed() const { return events_processed_; }

  /// Timestamp of the earliest pending event, or nullopt when the queue is
  /// empty. Lets a real-time host (net::RealNetHost) sleep exactly until the
  /// next virtual deadline instead of polling.
  std::optional<TimePoint> next_event_time() const;
  bool has_next() const { return next_event_time().has_value(); }

 private:
  struct Event {
    TimePoint when;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  /// Binary heap under Later (std::push_heap/pop_heap), so step() can move
  /// the earliest event out instead of copying it.
  std::vector<Event> queue_;
};

}  // namespace accountnet::sim
