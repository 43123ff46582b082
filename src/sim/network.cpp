#include "accountnet/sim/network.hpp"

#include <algorithm>

#include "accountnet/util/ensure.hpp"

namespace accountnet::sim {

namespace {

class FixedLatency final : public LatencyModel {
 public:
  explicit FixedLatency(Duration d) : d_(d) {}
  Duration sample(Rng&) override { return d_; }

 private:
  Duration d_;
};

class UniformLatency final : public LatencyModel {
 public:
  UniformLatency(Duration lo, Duration hi) : lo_(lo), hi_(hi) {
    AN_ENSURE(lo >= 0 && hi >= lo);
  }
  Duration sample(Rng& rng) override { return rng.uniform_range(lo_, hi_); }

 private:
  Duration lo_;
  Duration hi_;
};

class NormalLatency final : public LatencyModel {
 public:
  NormalLatency(Duration mean, Duration stddev, Duration min)
      : mean_(mean), stddev_(stddev), min_(min) {}
  Duration sample(Rng& rng) override {
    const double v = rng.normal(static_cast<double>(mean_), static_cast<double>(stddev_));
    return std::max(min_, static_cast<Duration>(v));
  }

 private:
  Duration mean_;
  Duration stddev_;
  Duration min_;
};

}  // namespace

std::unique_ptr<LatencyModel> fixed_latency(Duration d) {
  return std::make_unique<FixedLatency>(d);
}

std::unique_ptr<LatencyModel> uniform_latency(Duration lo, Duration hi) {
  return std::make_unique<UniformLatency>(lo, hi);
}

std::unique_ptr<LatencyModel> normal_latency(Duration mean, Duration stddev, Duration min) {
  return std::make_unique<NormalLatency>(mean, stddev, min);
}

std::unique_ptr<LatencyModel> netem_latency() {
  // 20 ms one-way delay with +-2 ms jitter, per the paper's NetEM setup.
  return std::make_unique<UniformLatency>(milliseconds(18), milliseconds(22));
}

SimNetwork::SimNetwork(Simulator& simulator, std::unique_ptr<LatencyModel> latency,
                       std::uint64_t rng_seed)
    : sim_(simulator), latency_(std::move(latency)), rng_(rng_seed) {
  AN_ENSURE(latency_ != nullptr);
}

void SimNetwork::attach(const std::string& address, Handler handler) {
  AN_ENSURE_MSG(handler != nullptr, "endpoint handler must be callable");
  endpoints_[address] = std::move(handler);
}

void SimNetwork::detach(const std::string& address) {
  endpoints_.erase(address);
}

bool SimNetwork::is_attached(const std::string& address) const {
  return endpoints_.contains(address);
}

void SimNetwork::set_metrics(obs::MetricsRegistry* registry, TypeNamer namer) {
  metrics_ = registry;
  namer_ = std::move(namer);
  per_type_.clear();  // ids belong to the previous registry
}

const SimNetwork::TypeMetrics& SimNetwork::type_metrics(std::uint32_t type) {
  const auto it = per_type_.find(type);
  if (it != per_type_.end()) return it->second;
  const std::string name = namer_ ? namer_(type) : "type_" + std::to_string(type);
  TypeMetrics m;
  m.sent = metrics_->counter("net.sent." + name);
  m.received = metrics_->counter("net.recv." + name);
  m.dropped = metrics_->counter("net.drop." + name);
  m.bytes = metrics_->counter("net.bytes." + name);
  return per_type_.emplace(type, m).first->second;
}

void SimNetwork::set_fault_plan(FaultPlan plan) {
  faults_.emplace(std::move(plan));
}

void SimNetwork::count_fault(FaultKind kind, std::uint32_t type) {
  if (metrics_ == nullptr) return;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(kind) << 32) | static_cast<std::uint64_t>(type);
  auto it = fault_metrics_.find(key);
  if (it == fault_metrics_.end()) {
    const std::string name = namer_ ? namer_(type) : "type_" + std::to_string(type);
    const obs::MetricId id = metrics_->counter(
        std::string("net.fault.") + fault_kind_name(kind) + "." + name);
    it = fault_metrics_.emplace(key, id).first;
  }
  metrics_->add(it->second);
}

std::uint64_t SimNetwork::begin_hop_span(const NetMessage& msg) {
  if (tracer_ == nullptr || !msg.trace.valid()) return 0;
  const std::string name = namer_ ? namer_(msg.type) : "type_" + std::to_string(msg.type);
  const std::uint64_t span = tracer_->begin_span("net." + name, "net", sim_.now(), msg.trace);
  tracer_->attr(span, "from", msg.from);
  tracer_->attr(span, "to", msg.to);
  tracer_->attr_u64(span, "bytes", msg.payload.size());
  return span;
}

void SimNetwork::end_hop_span(std::uint64_t hop_span, const char* outcome) {
  if (tracer_ == nullptr || hop_span == 0) return;
  if (outcome != nullptr) tracer_->attr(hop_span, "outcome", outcome);
  tracer_->end_span(hop_span, sim_.now());
}

void SimNetwork::deliver_after(Duration delay, NetMessage msg, std::uint64_t hop_span) {
  sim_.schedule(delay, [this, m = std::move(msg), hop_span]() {
    // A crash window that opened while the message was in flight still
    // swallows it: delivery requires the destination to be up *now*.
    if (faults_ && faults_->crashed(m.to, sim_.now())) {
      ++stats_.faults_dropped;
      count_fault(FaultKind::kCrash, m.type);
      end_hop_span(hop_span, "crash");
      return;
    }
    const auto it = endpoints_.find(m.to);
    if (it == endpoints_.end()) {
      ++stats_.messages_dropped;
      if (metrics_ != nullptr) metrics_->add(type_metrics(m.type).dropped);
      end_hop_span(hop_span, "unreachable");
      return;
    }
    ++stats_.messages_delivered;
    if (metrics_ != nullptr) metrics_->add(type_metrics(m.type).received);
    end_hop_span(hop_span, nullptr);
    it->second(m);
  });
}

void SimNetwork::send(NetMessage msg) {
  ++stats_.messages_sent;
  stats_.bytes_sent += msg.payload.size();
  if (metrics_ != nullptr) {
    const TypeMetrics& tm = type_metrics(msg.type);
    metrics_->add(tm.sent);
    metrics_->add(tm.bytes, msg.payload.size());
  }
  if (gateway_ != nullptr && !endpoints_.contains(msg.to)) {
    // Off-fabric destination with a gateway attached (real-transport host):
    // hand over synchronously. No latency sample is drawn, so attaching a
    // gateway never perturbs the rng stream seen by in-fabric traffic.
    gateway_(msg);
    return;
  }
  const std::uint64_t hop_span = begin_hop_span(msg);
  FaultDecision fault;
  if (faults_) fault = faults_->decide(msg.from, msg.to, msg.type, sim_.now());
  if (fault.drop) {
    ++stats_.faults_dropped;
    count_fault(fault.drop_kind, msg.type);
    end_hop_span(hop_span, "fault_drop");
    return;
  }
  if (fault.extra_delay > 0) {
    ++stats_.faults_delayed;
    count_fault(FaultKind::kReorder, msg.type);
  }
  if (fault.duplicate) {
    ++stats_.faults_duplicated;
    count_fault(FaultKind::kDup, msg.type);
    // The copy samples its own latency, so it races the original; only the
    // original closes the hop span.
    deliver_after(latency_->sample(rng_) + fault.dup_extra_delay, msg, 0);
  }
  deliver_after(latency_->sample(rng_) + fault.extra_delay, std::move(msg), hop_span);
}

Duration SimNetwork::sample_delay() {
  return latency_->sample(rng_);
}

}  // namespace accountnet::sim
