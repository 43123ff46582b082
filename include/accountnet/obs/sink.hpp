// Pluggable metric sinks.
//
// A Sink consumes MetricSamples produced by MetricsRegistry::scrape_to.
// Three implementations cover the repo's needs:
//
//   * NullSink      — the default: scraping into it is free and allocation
//                     free, so instrumentation can stay wired permanently.
//   * MemorySink    — buffers rows for tests and in-process consumers.
//   * JsonLinesSink — one JSON object per line, the `BENCH_*.json` dump
//                     convention the benches emit (see docs/OBSERVABILITY.md).
//
// JSON-line schema (stable field order, used by the golden test):
//   counters: {"t_us":N,"metric":"name","kind":"counter","value":N}
//   gauges:   {"t_us":N,"metric":"name","kind":"gauge","value":X}
//   timers:   {"t_us":N,"metric":"name","kind":"timer","count":N,
//              "mean_ns":X,"sum_ns":X,"min_ns":X,"max_ns":X,
//              "p50_ns":X,"p95_ns":X,"p99_ns":X}
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "accountnet/obs/metrics.hpp"

namespace accountnet::obs {

class Sink {
 public:
  virtual ~Sink() = default;

  virtual void write(const MetricSample& sample, std::int64_t t_us) = 0;
  virtual void flush() {}
};

/// Discards everything.
class NullSink final : public Sink {
 public:
  void write(const MetricSample&, std::int64_t) override {}
};

/// Buffers scraped rows in memory (tests, in-process dashboards).
class MemorySink final : public Sink {
 public:
  struct Row {
    std::int64_t t_us = 0;
    MetricSample sample;
  };

  void write(const MetricSample& sample, std::int64_t t_us) override {
    rows_.push_back(Row{t_us, sample});
  }

  const std::vector<Row>& rows() const { return rows_; }
  /// Last scraped row for `name`, or nullptr.
  const Row* last(std::string_view name) const;
  void clear() { rows_.clear(); }

 private:
  std::vector<Row> rows_;
};

/// Escapes a string for embedding in a JSON string literal.
std::string json_escape(std::string_view s);

/// Serializes one sample as a single JSON-lines row (no trailing newline).
std::string to_json_line(const MetricSample& sample, std::int64_t t_us);

/// Writes one JSON object per sample to a file (the `BENCH_*.json`
/// convention). Successive scrapes through one sink — or successive bench
/// configurations — form one time series; opening a path starts it afresh.
class JsonLinesSink final : public Sink {
 public:
  /// Owns the stream, truncating any existing file (a rerun replaces the
  /// previous rows); throws EnsureError if the file cannot be opened.
  explicit JsonLinesSink(const std::string& path);
  /// Borrows an open stream (e.g. stdout); never closes it.
  explicit JsonLinesSink(std::FILE* stream);
  ~JsonLinesSink() override;

  JsonLinesSink(const JsonLinesSink&) = delete;
  JsonLinesSink& operator=(const JsonLinesSink&) = delete;

  void write(const MetricSample& sample, std::int64_t t_us) override;
  /// Emits a caller-composed JSON object line (bench context rows).
  void raw_line(const std::string& json_object);
  void flush() override;

 private:
  std::FILE* stream_;
  bool owned_;
};

}  // namespace accountnet::obs
