#include "accountnet/obs/sink.hpp"

#include <cmath>
#include <cstdio>

#include "accountnet/util/ensure.hpp"

namespace accountnet::obs {

namespace {

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kTimer: return "timer";
  }
  return "?";
}

/// JSON has no inf/nan; clamp to 0 (values are measurements, not math).
double finite(double v) { return std::isfinite(v) ? v : 0.0; }

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", finite(v));
  return buf;
}

}  // namespace

const MemorySink::Row* MemorySink::last(std::string_view name) const {
  for (auto it = rows_.rbegin(); it != rows_.rend(); ++it) {
    if (it->sample.name == name) return &*it;
  }
  return nullptr;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string to_json_line(const MetricSample& sample, std::int64_t t_us) {
  std::string out = "{\"t_us\":" + std::to_string(t_us) + ",\"metric\":\"" +
                    json_escape(sample.name) + "\",\"kind\":\"" +
                    kind_name(sample.kind) + "\"";
  switch (sample.kind) {
    case MetricKind::kCounter:
      out += ",\"value\":" + std::to_string(sample.count);
      break;
    case MetricKind::kGauge:
      out += ",\"value\":" + num(sample.value);
      break;
    case MetricKind::kTimer:
      out += ",\"count\":" + std::to_string(sample.count) +
             ",\"mean_ns\":" + num(sample.value) + ",\"sum_ns\":" + num(sample.sum) +
             ",\"min_ns\":" + num(sample.min) + ",\"max_ns\":" + num(sample.max) +
             ",\"p50_ns\":" + num(sample.p50) + ",\"p95_ns\":" + num(sample.p95) +
             ",\"p99_ns\":" + num(sample.p99);
      break;
  }
  out += "}";
  return out;
}

JsonLinesSink::JsonLinesSink(const std::string& path)
    : stream_(std::fopen(path.c_str(), "w")), owned_(true) {
  AN_ENSURE_MSG(stream_ != nullptr, "cannot open metrics sink file: " + path);
}

JsonLinesSink::JsonLinesSink(std::FILE* stream) : stream_(stream), owned_(false) {
  AN_ENSURE(stream_ != nullptr);
}

JsonLinesSink::~JsonLinesSink() {
  if (owned_) std::fclose(stream_);
}

void JsonLinesSink::write(const MetricSample& sample, std::int64_t t_us) {
  const std::string line = to_json_line(sample, t_us);
  std::fwrite(line.data(), 1, line.size(), stream_);
  std::fputc('\n', stream_);
}

void JsonLinesSink::raw_line(const std::string& json_object) {
  std::fwrite(json_object.data(), 1, json_object.size(), stream_);
  std::fputc('\n', stream_);
}

void JsonLinesSink::flush() { std::fflush(stream_); }

}  // namespace accountnet::obs
