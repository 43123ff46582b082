// Simulated message fabric between named endpoints.
//
// Models the paper's NetEM setup: each transmitted message experiences a
// sampled one-way delay (default 20 ms plus jitter, matching the paper's
// "at least about 40 ms round trip"). Delivery is reliable and ordered per
// the TCP assumption in Sec. II-D; messages to departed endpoints are
// silently dropped, which is how ungraceful leave manifests to peers.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "accountnet/obs/metrics.hpp"
#include "accountnet/obs/span.hpp"
#include "accountnet/sim/fault.hpp"
#include "accountnet/sim/simulator.hpp"
#include "accountnet/util/bytes.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::sim {

/// One-way latency distribution for a hop.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  virtual Duration sample(Rng& rng) = 0;
};

/// Constant delay.
std::unique_ptr<LatencyModel> fixed_latency(Duration d);
/// Uniform in [lo, hi].
std::unique_ptr<LatencyModel> uniform_latency(Duration lo, Duration hi);
/// Normal(mean, stddev) clamped to >= min (default 0).
std::unique_ptr<LatencyModel> normal_latency(Duration mean, Duration stddev,
                                             Duration min = 0);
/// The paper's NetEM substitute: 20 ms base + small uniform jitter.
std::unique_ptr<LatencyModel> netem_latency();

struct NetMessage {
  std::string from;
  std::string to;
  std::uint32_t type = 0;
  Bytes payload;
  /// Causal trace context of the sending span (zero = untraced, the default;
  /// see obs/span.hpp). Serialized captures carry it via wire::Envelope v2.
  obs::TraceContext trace;
};

struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;    ///< destination not registered
  std::uint64_t bytes_sent = 0;
  // Injected-fault tallies (all zero unless a FaultPlan is attached).
  std::uint64_t faults_dropped = 0;      ///< loss + partition + crash drops
  std::uint64_t faults_duplicated = 0;   ///< extra copies delivered
  std::uint64_t faults_delayed = 0;      ///< reorder delay spikes applied
};

/// Endpoint registry + latency-delayed delivery.
class SimNetwork {
 public:
  using Handler = std::function<void(const NetMessage&)>;

  /// The network borrows the simulator and owns the latency model.
  SimNetwork(Simulator& simulator, std::unique_ptr<LatencyModel> latency,
             std::uint64_t rng_seed);

  /// Registers a message handler for `address`; replaces any previous one.
  void attach(const std::string& address, Handler handler);

  /// Removes the endpoint; in-flight messages to it are dropped on arrival.
  void detach(const std::string& address);

  bool is_attached(const std::string& address) const;

  /// Schedules delivery after a sampled delay. Unknown destinations count as
  /// drops at delivery time (the sender cannot tell — like a silent peer).
  void send(NetMessage msg);

  /// Gateway for destinations not attached to this fabric: when set, a send
  /// to an unknown address is handed to the gateway *synchronously* (no
  /// latency sample, no scheduling) instead of becoming an in-fabric drop.
  /// This is the host-adapter seam net::RealNetHost uses to route a node's
  /// outbound traffic onto real sockets while local delivery (and every
  /// simulation run, where no gateway is ever set) is untouched. Pass
  /// nullptr to detach.
  void set_gateway(Handler gateway) { gateway_ = std::move(gateway); }
  bool has_gateway() const { return gateway_ != nullptr; }

  /// Samples the one-way delay without sending (for latency accounting).
  Duration sample_delay();

  const NetworkStats& stats() const { return stats_; }
  Simulator& simulator() { return sim_; }

  /// Maps a wire type tag to a stable metric-name fragment; tags the namer
  /// does not recognize should map to a stable fallback (e.g. "type_17").
  using TypeNamer = std::function<std::string(std::uint32_t)>;

  /// Attaches a metrics registry: every subsequent send/delivery/drop bumps
  /// per-type counters ("net.sent.<type>", "net.recv.<type>",
  /// "net.drop.<type>", "net.bytes.<type>"). Pass nullptr to detach. The
  /// registry must outlive the network (or the next set_metrics call).
  void set_metrics(obs::MetricsRegistry* registry, TypeNamer namer = {});

  /// Attaches a span tracer: every traced message (valid NetMessage::trace)
  /// gets a "net.<type>" hop span — child of the sending span, closed at
  /// delivery or drop — so cross-node span trees include fabric latency.
  /// Pass nullptr to detach. The tracer draws from no protocol Rng stream,
  /// so attaching it never perturbs a seeded run.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  /// Attaches a fault schedule (see sim/fault.hpp). The injector owns its
  /// own Rng, so the latency stream is unchanged — a run with no plan and a
  /// run with an all-zero plan are indistinguishable. Every injected fault
  /// bumps a "net.fault.<kind>.<type>" counter when metrics are attached.
  void set_fault_plan(FaultPlan plan);
  void clear_fault_plan() { faults_.reset(); }
  /// The active injector, or nullptr (e.g. for crash-window queries).
  const FaultInjector* faults() const { return faults_ ? &*faults_ : nullptr; }

 private:
  struct TypeMetrics {
    obs::MetricId sent;
    obs::MetricId received;
    obs::MetricId dropped;
    obs::MetricId bytes;
  };
  const TypeMetrics& type_metrics(std::uint32_t type);
  void count_fault(FaultKind kind, std::uint32_t type);
  void deliver_after(Duration delay, NetMessage msg, std::uint64_t hop_span);
  std::uint64_t begin_hop_span(const NetMessage& msg);
  void end_hop_span(std::uint64_t hop_span, const char* outcome);

  Simulator& sim_;
  std::unique_ptr<LatencyModel> latency_;
  Rng rng_;
  std::unordered_map<std::string, Handler> endpoints_;
  Handler gateway_;
  NetworkStats stats_;
  obs::MetricsRegistry* metrics_ = nullptr;
  TypeNamer namer_;
  obs::Tracer* tracer_ = nullptr;
  std::unordered_map<std::uint32_t, TypeMetrics> per_type_;
  std::optional<FaultInjector> faults_;
  std::unordered_map<std::uint64_t, obs::MetricId> fault_metrics_;
};

}  // namespace accountnet::sim
