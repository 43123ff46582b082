// MetricsRegistry: interning, hot-path updates, timer distributions, sinks,
// and the JSON-lines golden format the BENCH_*.json convention relies on.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "accountnet/obs/metrics.hpp"
#include "accountnet/obs/sink.hpp"
#include "accountnet/util/ensure.hpp"

namespace accountnet::obs {
namespace {

TEST(MetricsRegistry, InternReturnsStableIds) {
  MetricsRegistry r;
  const MetricId a = r.counter("x.count");
  const MetricId b = r.counter("x.count");
  EXPECT_EQ(a, b);
  EXPECT_NE(r.counter("y.count"), a);
  EXPECT_EQ(r.size(), 2u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry r;
  r.counter("metric");
  EXPECT_THROW(r.gauge("metric"), EnsureError);
  EXPECT_THROW(r.timer("metric"), EnsureError);
}

TEST(MetricsRegistry, FindDoesNotCreate) {
  MetricsRegistry r;
  EXPECT_FALSE(r.find("ghost").has_value());
  const MetricId id = r.gauge("real");
  ASSERT_TRUE(r.find("real").has_value());
  EXPECT_EQ(*r.find("real"), id);
  EXPECT_EQ(r.size(), 1u);
}

TEST(MetricsRegistry, CounterAndGaugeRoundTrip) {
  MetricsRegistry r;
  const MetricId c = r.counter("c");
  const MetricId g = r.gauge("g");
  r.add(c);
  r.add(c, 41);
  r.set(g, 2.5);
  EXPECT_EQ(r.counter_value(c), 42u);
  EXPECT_DOUBLE_EQ(r.gauge_value(g), 2.5);
  r.reset();
  EXPECT_EQ(r.counter_value(c), 0u);
  EXPECT_DOUBLE_EQ(r.gauge_value(g), 0.0);
  EXPECT_EQ(r.size(), 2u);  // registrations survive reset
}

TEST(MetricsRegistry, TimerObservationsFeedDistribution) {
  MetricsRegistry r;
  const MetricId t = r.timer("t");
  for (int i = 0; i < 100; ++i) r.observe_ns(t, 1000);
  EXPECT_EQ(r.timer_count(t), 100u);
  // All observations are 1 µs; the histogram estimate must land in the
  // right log bucket (within one bucket width, ~30%).
  const double p50 = r.timer_percentile_ns(t, 50);
  EXPECT_GT(p50, 500.0);
  EXPECT_LT(p50, 2000.0);
}

TEST(MetricsRegistry, SnapshotIsNameSortedRegardlessOfRegistrationOrder) {
  // Lazy interning (e.g. transport counters) registers in wall-clock order;
  // the scrape contract is name-sorted so dumps stay byte-stable anyway.
  MetricsRegistry r;
  r.timer("zeta");
  r.counter("alpha");
  r.gauge("mid");
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "alpha");
  EXPECT_EQ(snap[0].kind, MetricKind::kCounter);
  EXPECT_EQ(snap[1].name, "mid");
  EXPECT_EQ(snap[1].kind, MetricKind::kGauge);
  EXPECT_EQ(snap[2].name, "zeta");
  EXPECT_EQ(snap[2].kind, MetricKind::kTimer);
}

TEST(ScopedTimer, DisabledByDefault) {
  MetricsRegistry r;
  const MetricId t = r.timer("t");
  { ScopedTimer s(&r, t); }
  EXPECT_EQ(r.timer_count(t), 0u);
  { ScopedTimer s(nullptr, t); }  // null registry is a no-op, not a crash
}

TEST(ScopedTimer, EnabledRecordsOneObservation) {
  MetricsRegistry r;
  r.set_timing_enabled(true);
  const MetricId t = r.timer("t");
  { ScopedTimer s(&r, t); }
  EXPECT_EQ(r.timer_count(t), 1u);
}

// An in-flight ScopedTimer keeps the decision it took at construction:
// flipping timing off mid-scope still records the observation, and flipping
// it on mid-scope records nothing (the start stamp was never taken).
TEST(ScopedTimer, DisablingMidScopeStillRecords) {
  MetricsRegistry r;
  r.set_timing_enabled(true);
  const MetricId t = r.timer("t");
  {
    ScopedTimer s(&r, t);
    r.set_timing_enabled(false);
  }
  EXPECT_EQ(r.timer_count(t), 1u);
}

TEST(ScopedTimer, EnablingMidScopeRecordsNothing) {
  MetricsRegistry r;
  const MetricId t = r.timer("t");
  {
    ScopedTimer s(&r, t);
    r.set_timing_enabled(true);
  }
  EXPECT_EQ(r.timer_count(t), 0u);
}

TEST(MetricsRegistry, ResetClearsTimerDistribution) {
  MetricsRegistry r;
  const MetricId t = r.timer("t");
  for (int i = 0; i < 50; ++i) r.observe_ns(t, 4000);
  ASSERT_EQ(r.timer_count(t), 50u);
  ASSERT_GT(r.timer_percentile_ns(t, 50), 0.0);
  r.reset();
  EXPECT_EQ(r.timer_count(t), 0u);
  EXPECT_DOUBLE_EQ(r.timer_percentile_ns(t, 50), 0.0);
  EXPECT_DOUBLE_EQ(r.timer_percentile_ns(t, 99), 0.0);
  // The registration survives; the cell is reusable.
  r.observe_ns(t, 1000);
  EXPECT_EQ(r.timer_count(t), 1u);
}

TEST(MemorySink, CapturesScrapeRows) {
  MetricsRegistry r;
  const MetricId c = r.counter("events");
  r.add(c, 7);
  MemorySink sink;
  r.scrape_to(sink, 1234);
  ASSERT_EQ(sink.rows().size(), 1u);
  EXPECT_EQ(sink.rows()[0].t_us, 1234);
  EXPECT_EQ(sink.rows()[0].sample.name, "events");
  EXPECT_EQ(sink.rows()[0].sample.count, 7u);
  const auto* last = sink.last("events");
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->sample.count, 7u);
  EXPECT_EQ(sink.last("missing"), nullptr);
}

// Golden check of the JSON-lines schema (field order is part of the format).
TEST(JsonLines, GoldenCounterGaugeTimer) {
  MetricSample counter;
  counter.name = "net.sent.ping";
  counter.kind = MetricKind::kCounter;
  counter.count = 42;
  counter.value = 42;
  EXPECT_EQ(to_json_line(counter, 99),
            "{\"t_us\":99,\"metric\":\"net.sent.ping\",\"kind\":\"counter\","
            "\"value\":42}");

  MetricSample gauge;
  gauge.name = "harness.alive";
  gauge.kind = MetricKind::kGauge;
  gauge.value = 3.5;
  EXPECT_EQ(to_json_line(gauge, 0),
            "{\"t_us\":0,\"metric\":\"harness.alive\",\"kind\":\"gauge\","
            "\"value\":3.5}");

  MetricSample timer;
  timer.name = "crypto.sign";
  timer.kind = MetricKind::kTimer;
  timer.count = 2;
  timer.value = 150;  // mean
  timer.sum = 300;
  timer.min = 100;
  timer.max = 200;
  timer.p50 = 150;
  timer.p95 = 200;
  timer.p99 = 200;
  EXPECT_EQ(to_json_line(timer, 5),
            "{\"t_us\":5,\"metric\":\"crypto.sign\",\"kind\":\"timer\","
            "\"count\":2,\"mean_ns\":150,\"sum_ns\":300,\"min_ns\":100,"
            "\"max_ns\":200,\"p50_ns\":150,\"p95_ns\":200,\"p99_ns\":200}");
}

TEST(JsonLines, EscapesStrings) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\t"), "line\\nbreak\\t");
  // A peer-influenced string mixing every escape stays one JSON line.
  const std::string hostile = json_escape("ev\"il\\node\n->\tn2");
  EXPECT_EQ(hostile, "ev\\\"il\\\\node\\n->\\tn2");
  EXPECT_EQ(hostile.find('\n'), std::string::npos);
}

TEST(JsonLinesSink, WritesOneObjectPerLine) {
  const std::string path = ::testing::TempDir() + "/obs_sink_test.json";
  std::remove(path.c_str());
  {
    MetricsRegistry r;
    r.add(r.counter("a"), 1);
    r.add(r.counter("b"), 2);
    JsonLinesSink sink(path);
    sink.raw_line("{\"context\":true}");
    r.scrape_to(sink, 7);
    sink.flush();
  }
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "{\"context\":true}");
  EXPECT_EQ(lines[1], "{\"t_us\":7,\"metric\":\"a\",\"kind\":\"counter\",\"value\":1}");
  EXPECT_EQ(lines[2], "{\"t_us\":7,\"metric\":\"b\",\"kind\":\"counter\",\"value\":2}");
  std::remove(path.c_str());
}

TEST(JsonLinesSink, RerunOverwritesInsteadOfAppending) {
  // A bench rerun in the same directory must leave one copy of its rows.
  const std::string path = ::testing::TempDir() + "/obs_sink_rerun_test.json";
  std::remove(path.c_str());
  for (int run = 0; run < 2; ++run) {
    MetricsRegistry r;
    r.add(r.counter("runs"), 1);
    JsonLinesSink sink(path);
    sink.raw_line("{\"bench\":\"rerun\"}");
    r.scrape_to(sink, 3);
  }
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"bench\":\"rerun\"}");
  EXPECT_EQ(lines[1], "{\"t_us\":3,\"metric\":\"runs\",\"kind\":\"counter\",\"value\":1}");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace accountnet::obs
