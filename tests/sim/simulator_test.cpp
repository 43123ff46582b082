#include "accountnet/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "accountnet/util/ensure.hpp"

namespace accountnet::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(milliseconds(30), [&] { order.push_back(3); });
  s.schedule(milliseconds(10), [&] { order.push_back(1); });
  s.schedule(milliseconds(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), milliseconds(30));
}

TEST(Simulator, TiesBreakInScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedScheduling) {
  Simulator s;
  std::vector<TimePoint> fired;
  s.schedule(milliseconds(1), [&] {
    fired.push_back(s.now());
    s.schedule(milliseconds(2), [&] { fired.push_back(s.now()); });
  });
  s.run();
  EXPECT_EQ(fired, (std::vector<TimePoint>{milliseconds(1), milliseconds(3)}));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int count = 0;
  s.schedule(milliseconds(10), [&] { ++count; });
  s.schedule(milliseconds(20), [&] { ++count; });
  s.schedule(milliseconds(30), [&] { ++count; });
  s.run_until(milliseconds(20));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now(), milliseconds(20));
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunUntilAdvancesIdleClock) {
  Simulator s;
  s.run_until(seconds(5));
  EXPECT_EQ(s.now(), seconds(5));
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator s;
  EXPECT_FALSE(s.step());
  s.schedule(0, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator s;
  s.schedule(milliseconds(10), [] {});
  s.run();
  EXPECT_THROW(s.schedule(-1, [] {}), EnsureError);
  EXPECT_THROW(s.schedule_at(milliseconds(5), [] {}), EnsureError);
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule(i, [] {});
  s.run();
  EXPECT_EQ(s.events_processed(), 7u);
}

TEST(Simulator, TimeUnitConversions) {
  EXPECT_EQ(milliseconds(1), microseconds(1000));
  EXPECT_EQ(seconds(1), milliseconds(1000));
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_milliseconds(milliseconds(7)), 7.0);
}

// Counts copies of itself; moves are free. std::function stores a functor
// with a user-defined copy constructor on the heap, so moving the function
// never copies it.
struct CopyCounter {
  std::shared_ptr<int> copies;
  std::shared_ptr<int> calls;
  CopyCounter(std::shared_ptr<int> c, std::shared_ptr<int> n)
      : copies(std::move(c)), calls(std::move(n)) {}
  CopyCounter(const CopyCounter& o) : copies(o.copies), calls(o.calls) { ++*copies; }
  CopyCounter(CopyCounter&&) = default;
  void operator()() const { ++*calls; }
};

TEST(Simulator, StepMovesEventsOutOfTheQueue) {
  // A delivered SimNetwork message lives in its event's callback, so a copy
  // per step would duplicate every message payload.
  Simulator s;
  auto copies = std::make_shared<int>(0);
  auto calls = std::make_shared<int>(0);
  for (int i = 0; i < 50; ++i) {
    s.schedule((i * 7) % 13, std::function<void()>(CopyCounter(copies, calls)));
  }
  const int after_schedule = *copies;
  s.run();
  EXPECT_EQ(*calls, 50);
  EXPECT_EQ(*copies, after_schedule);
}

TEST(SimulatorNextEvent, EmptyQueueIsNullopt) {
  Simulator s;
  EXPECT_FALSE(s.next_event_time().has_value());
  EXPECT_FALSE(s.has_next());
  s.schedule(microseconds(5), [] {});
  ASSERT_TRUE(s.next_event_time().has_value());
  EXPECT_EQ(*s.next_event_time(), 5);
  EXPECT_TRUE(s.has_next());
  s.run();
  EXPECT_FALSE(s.next_event_time().has_value());
  // A zero-delay event is a valid timestamp, not a sentinel: the old -1
  // convention could never express "next event at t = 0" unambiguously.
  s.schedule(microseconds(0), [] {});
  ASSERT_TRUE(s.next_event_time().has_value());
  EXPECT_EQ(*s.next_event_time(), s.now());
}

TEST(SimulatorNextEvent, ReportsEarliestAcrossEqualTimestamps) {
  Simulator s;
  s.schedule(microseconds(7), [] {});
  s.schedule(microseconds(3), [] {});
  s.schedule(microseconds(3), [] {});
  EXPECT_EQ(*s.next_event_time(), 3);
}

}  // namespace
}  // namespace accountnet::sim
