// Live telemetry trajectories: periodic delta snapshots of one or more
// MetricsRegistries into a bounded ring.
//
// MetricsRegistry values are cumulative — a scrape answers "how much ever",
// not "how fast now". TimeSeriesScraper turns the cumulative view into an
// operator's view: each sample() diffs the registries against the previous
// sample and records
//
//   * counters — the cumulative total plus a windowed rate (delta / window),
//   * gauges   — the last-written value,
//   * timers   — windowed p50/p95/p99 ns estimated from the *delta* of the
//                log-bucket histogram counts (so a latency spike shows in
//                the window it happened, not diluted into the lifetime
//                distribution), plus the window's observation count.
//
// The caller drives the clock: simulations and the harness call
// sample(sim_now), real hosts arm an EventLoop timer and call
// sample(loop.now_us()). The scraper itself never reads a clock, so it obeys
// the repo's simulated-time rule and stays deterministic.
//
// Multiple sources aggregate like bench::CounterAggregator: counters and
// gauges sum per name; timer histograms sum bucket-wise (all registry timers
// share one bucket geometry). The ring holds the most recent
// config.capacity points; older points drop off (counted by dropped()).
//
// JSONL: one object per point, parse round-trips through util::json_parse.
//   {"kind":"timeseries","t_us":N,"window_us":N,"series":{
//     "name":{"k":"counter","total":N,"rate":X},
//     "name":{"k":"gauge","value":X},
//     "name":{"k":"timer","n":N,"p50_ns":X,"p95_ns":X,"p99_ns":X}}}
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "accountnet/obs/metrics.hpp"

namespace accountnet::obs {

class JsonLinesSink;

struct TimeSeriesConfig {
  /// Ring bound: points retained before the oldest is discarded.
  std::size_t capacity = 512;
};

/// One metric's windowed reading at one sample instant.
struct TimeSeriesCell {
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;       ///< counter cumulative total / gauge last value
  double rate_per_s = 0.0;  ///< counters: delta over the window, per second
  std::uint64_t count = 0;  ///< timers: observations inside the window
  double p50_ns = 0.0;      ///< timers: windowed percentile estimates
  double p95_ns = 0.0;
  double p99_ns = 0.0;
};

struct TimeSeriesPoint {
  std::int64_t t_us = 0;
  /// Microseconds since the previous sample; 0 for the first point (whose
  /// "window" is everything since the registries were born).
  std::int64_t window_us = 0;
  /// Name-sorted, one entry per metric known at sample time.
  std::vector<std::pair<std::string, TimeSeriesCell>> cells;

  const TimeSeriesCell* find(const std::string& name) const;
};

class TimeSeriesScraper {
 public:
  explicit TimeSeriesScraper(TimeSeriesConfig config = {});

  /// Registers a registry to scrape. Must outlive the scraper. Sources may
  /// be added between samples; metrics appearing later simply join the
  /// series at their first sample.
  void add_source(const MetricsRegistry* registry);

  /// Takes one delta snapshot stamped `t_us`. Monotonically non-decreasing
  /// stamps are the caller's contract (simulated or loop time both satisfy
  /// it).
  void sample(std::int64_t t_us);

  const std::deque<TimeSeriesPoint>& points() const { return points_; }
  /// Points discarded by the ring bound since construction.
  std::uint64_t dropped() const { return dropped_; }
  const TimeSeriesConfig& config() const { return config_; }

  /// Drops all points and windows; sources stay registered.
  void clear();

  /// Appends every retained point to `sink` as raw JSONL rows.
  /// `context_fields` is spliced verbatim into each object after "kind"
  /// (e.g. ",\"bench\":\"chaos_soak\",\"scenario\":\"loss 10%\"").
  void dump_jsonl(JsonLinesSink& sink, const std::string& context_fields = "") const;

  /// The retained ring as one JSON array (the daemon /timeseries body).
  std::string to_json_array() const;

 private:
  struct PrevTimer {
    std::uint64_t count = 0;
    std::vector<std::uint64_t> buckets;
  };

  TimeSeriesConfig config_;
  std::vector<const MetricsRegistry*> sources_;
  std::deque<TimeSeriesPoint> points_;
  std::map<std::string, double> prev_counters_;
  std::map<std::string, PrevTimer> prev_timers_;
  std::int64_t last_t_us_ = 0;
  bool have_prev_ = false;
  std::uint64_t dropped_ = 0;
};

/// Serializes one point as a single JSON-lines row (no trailing newline).
std::string to_json_line(const TimeSeriesPoint& pt, const std::string& context_fields = "");

/// Parses one dumped row back; false on malformed input or a non-timeseries
/// row (so loaders can skip interleaved bench-context rows).
bool parse_timeseries_json_line(const std::string& line, TimeSeriesPoint& out);

/// Loads every timeseries row of a JSONL file (other rows are skipped).
std::vector<TimeSeriesPoint> load_timeseries_jsonl(const std::string& path);

}  // namespace accountnet::obs
