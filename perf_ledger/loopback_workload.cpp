// loopback_daemon: 16 net::RealNetHosts — the Node / ConnectionManager stack
// accountnetd runs — on one net::EventLoop thread over loopback TCP, with
// Ed25519+ECVRF and accountability on. Each node shuffles every 500 ms ±20%:
// an open loop of ~32 offered shuffles/s whose latency is crypto plus
// queueing behind the other nodes on one core.
#include <csignal>

#include "accountnet/core/shuffle.hpp"
#include "accountnet/net/frame.hpp"
#include "accountnet/net/real_host.hpp"
#include "accountnet/util/rng.hpp"
#include "accountnet/wire/envelope.hpp"
#include "common.hpp"

namespace accountnet::ledger {
namespace {

constexpr std::int64_t kLagProbeUs = 10 * 1000;
constexpr std::size_t kMaxCaptured = 4096;

struct Window {
  std::vector<double> rate;    ///< per second: completed shuffles per wall second
  std::vector<double> cpu_ms;  ///< per second: loop-thread CPU ms per completed shuffle
  double wall = 0, cpu = 0, shuffles = 0, failed = 0, benign = 0, initiated = 0;
  double frames = 0, reconnects = 0, dropped = 0;
  Samples latency_ms;  ///< initiator's kRoundQuery out -> kShuffleResponse in
  Samples lag_ms;      ///< lateness of the bench's 10 ms loop timer
};

class Cluster {
 public:
  /// `instrument` turns on node timers and keeps the captured envelopes.
  Cluster(std::size_t n, std::uint64_t seed, const crypto::CryptoProvider& provider,
          bool instrument)
      : capture_(instrument) {
    // accountnetd's node config with the other workloads' f and L (its
    // default f = 10, L = 5 keeps one core ~80% busy in crypto alone).
    core::Node::Config config;
    config.protocol.max_peerset = 5;
    config.protocol.shuffle_length = 3;
    config.shuffle_period = sim::milliseconds(500);
    config.witness_count = 4;
    config.accountability.enabled = true;
    pending_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      hosts_.push_back(std::make_unique<net::RealNetHost>(loop_, net::TransportConfig{},
                                                          metrics_, seed * 1000 + i));
      net::RealNetHost& h = *hosts_.back();
      ok_ = ok_ && h.ok();
      Bytes node_seed(32);
      Rng rng(seed * 7919 + i);
      for (auto& b : node_seed) b = static_cast<std::uint8_t>(rng.next_u64());
      h.make_node(provider, node_seed, config, rng.next_u64());
      h.node().metrics().set_timing_enabled(instrument);
      h.set_capture([this, i](const wire::Envelope& env, bool inbound) {
        on_capture(i, env, inbound);
      });
    }
    hosts_[0]->node().start_as_seed();
    hosts_[0]->pump();
    for (std::size_t i = 1; i < n; ++i) {
      loop_.schedule_after(static_cast<std::int64_t>(20 * 1000 * i), [this, i] {
        hosts_[i]->node().start_join(hosts_[i - 1]->self_addr());
        hosts_[i]->pump();
      });
    }
  }

  // Loop timers and capture hooks hold `this`.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Polls until every node joined (false on timeout), then `warm_s` more.
  bool join(double timeout_s, double warm_s) {
    const double deadline = wall_s() + timeout_s;
    while (!all_joined() && wall_s() < deadline) loop_.poll(5000);
    if (!all_joined()) return false;
    const double warm_end = wall_s() + warm_s;
    while (wall_s() < warm_end) loop_.poll(5000);
    return true;
  }

  Window measure(double seconds, SpanLog* log) {
    Window w;
    window_ = &w;
    const Totals t0 = totals();
    arm_lag_probe(loop_.now_us() + kLagProbeUs);
    const double c0 = thread_cpu_s(), start = wall_s();
    double mark = start, mark_cpu = c0, mark_done = t0.completed;
    while (wall_s() - start < seconds) {
      const std::size_t span = log != nullptr ? log->begin("net.poll", "loop") : 0;
      loop_.poll(5000);
      if (log != nullptr) log->end(span);
      if (const double now = wall_s(); now - mark >= 1.0) {
        const double cpu = thread_cpu_s(), done = totals().completed;
        if (done > mark_done) {
          w.rate.push_back((done - mark_done) / (now - mark));
          w.cpu_ms.push_back((cpu - mark_cpu) * 1000.0 / (done - mark_done));
        }
        mark = now;
        mark_cpu = cpu;
        mark_done = done;
      }
    }
    w.wall = wall_s() - start;
    w.cpu = thread_cpu_s() - c0;
    window_ = nullptr;
    loop_.cancel(lag_timer_);
    const Totals t1 = totals();
    w.shuffles = t1.completed - t0.completed;
    w.benign = t1.benign - t0.benign;
    w.failed = (t1.failures - t0.failures) - w.benign;
    w.initiated = t1.initiated - t0.initiated;
    w.frames = counter("net.conn.frames_out") - t0.frames;
    w.reconnects = counter("net.conn.reconnects") - t0.reconnects;
    w.dropped = counter("net.conn.backpressure.dropped_frames") - t0.dropped;
    return w;
  }

  double verification_failures() const {
    double v = 0;
    for (const auto& h : hosts_) {
      v += static_cast<double>(h->node().stats().verification_failures);
    }
    return v;
  }
  std::size_t quarantines() const {
    std::size_t q = 0;
    for (const auto& h : hosts_) q += h->node().quarantined_count();
    return q;
  }
  bool ok() const { return ok_; }
  const std::vector<wire::Envelope>& captured() const { return captured_; }

  std::vector<const obs::MetricsRegistry*> registries() const {
    std::vector<const obs::MetricsRegistry*> out;
    for (const auto& h : hosts_) out.push_back(&h->node().metrics());
    return out;
  }
  EngineStats engine_stats() const {
    EngineStats t;
    for (const auto& h : hosts_) accumulate(t, h->node().verification_engine().stats());
    return t;
  }

 private:
  struct Totals {
    double completed = 0, failures = 0, benign = 0, initiated = 0;
    double frames = 0, reconnects = 0, dropped = 0;
  };
  struct Pending {
    std::string partner;
    std::int64_t sent_us = -1;
  };

  bool all_joined() const {
    for (const auto& h : hosts_) {
      if (!h->node().joined()) return false;
    }
    return true;
  }

  double counter(const char* name) const {
    const auto id = metrics_.find(name);
    return id ? static_cast<double>(metrics_.counter_value(*id)) : 0.0;
  }

  Totals totals() const {
    Totals t;
    for (const auto& h : hosts_) {
      const auto s = h->node().stats();
      t.completed += static_cast<double>(s.shuffles_completed);
      t.failures += static_cast<double>(s.shuffle_failures);
      t.initiated += static_cast<double>(s.shuffles_initiated);
      const auto& m = h->node().metrics();
      if (const auto id = m.find("node.shuffles_rejected_benign")) {
        t.benign += static_cast<double>(m.counter_value(*id));
      }
    }
    t.frames = counter("net.conn.frames_out");
    t.reconnects = counter("net.conn.reconnects");
    t.dropped = counter("net.conn.backpressure.dropped_frames");
    return t;
  }

  void on_capture(std::size_t i, const wire::Envelope& env, bool inbound) {
    if (capture_ && captured_.size() < kMaxCaptured) captured_.push_back(env);
    const auto type = static_cast<core::MsgType>(env.type);
    Pending& p = pending_[i];
    if (!inbound && type == core::MsgType::kRoundQuery) {
      p = {env.to, loop_.now_us()};
    } else if (inbound && p.sent_us >= 0 && env.from == p.partner &&
               (type == core::MsgType::kShuffleResponse ||
                type == core::MsgType::kShuffleReject)) {
      if (type == core::MsgType::kShuffleResponse && window_ != nullptr) {
        window_->latency_ms.add(static_cast<double>(loop_.now_us() - p.sent_us) / 1000.0);
      }
      p.sent_us = -1;
    }
  }

  void arm_lag_probe(std::int64_t due) {
    lag_timer_ = loop_.schedule_at(due, [this, due] {
      if (window_ == nullptr) return;
      window_->lag_ms.add(static_cast<double>(loop_.now_us() - due) / 1000.0);
      arm_lag_probe(due + kLagProbeUs);
    });
  }

  bool capture_;
  bool ok_ = true;
  net::EventLoop loop_;
  obs::MetricsRegistry metrics_;  // transport counters; outlives the hosts
  std::vector<std::unique_ptr<net::RealNetHost>> hosts_;
  std::vector<Pending> pending_;
  std::vector<wire::Envelope> captured_;
  Window* window_ = nullptr;
  std::uint64_t lag_timer_ = 0;
};

/// Replays captured envelopes through the wire codecs and the frame parser;
/// fills the wire.* rows and checks every round trip.
void replay_wire(const std::vector<wire::Envelope>& envs, Report& report) {
  if (envs.empty()) return;
  std::vector<Bytes> encoded;
  Bytes stream;
  std::vector<const Bytes*> offers;
  for (const auto& e : envs) {
    encoded.push_back(wire::encode_envelope(e));
    const Bytes frame = net::encode_frame(e.type, encoded.back());
    stream.insert(stream.end(), frame.begin(), frame.end());
    if (e.type == static_cast<std::uint32_t>(core::MsgType::kShuffleOffer)) {
      offers.push_back(&e.payload);
    }
  }
  for (std::size_t i = 0; i < envs.size(); ++i) {
    report.check(wire::decode_envelope(encoded[i]) == envs[i],
                 "envelope round trip differs");
  }
  // Each pass is repeated until it has run for 50 ms, so ns/op is stable.
  const auto per_op_ns = [](std::size_t ops, auto&& pass) {
    std::size_t done = 0;
    const std::int64_t t0 = mono_ns();
    do {
      pass();
      done += ops;
    } while (mono_ns() - t0 < 50 * 1000 * 1000);
    return static_cast<double>(mono_ns() - t0) / static_cast<double>(done);
  };
  std::size_t sink = 0;
  report.set("wire.envelope_encode_ns", per_op_ns(envs.size(), [&] {
               for (const auto& e : envs) sink += wire::encode_envelope(e).size();
             }));
  report.set("wire.envelope_decode_ns", per_op_ns(envs.size(), [&] {
               for (const auto& b : encoded) {
                 sink += wire::decode_envelope(b).payload.size();
               }
             }));
  report.set("wire.frame_parse_ns", per_op_ns(envs.size(), [&] {
               net::FrameReader reader;
               reader.append(stream.data(), stream.size());
               while (auto f = reader.next()) sink += f->payload.size();
             }));
  if (!offers.empty()) {
    report.set("wire.offer_decode_ns", per_op_ns(offers.size(), [&] {
                 for (const Bytes* p : offers) {
                   sink += core::ShuffleOffer::decode(*p).sample.size();
                 }
               }));
  }
  report.check(sink > 0, "wire replay decoded nothing");
}

void check_cluster(const Cluster& c, const Window& w, Report& report) {
  report.check(w.shuffles > 0, "no shuffle completed over loopback");
  report.check(c.verification_failures() == 0,
               "honest verification failures over loopback");
  report.check(c.quarantines() == 0, "honest node quarantined over loopback");
  report.check(!w.latency_ms.empty(), "no shuffle latency sample");
}

}  // namespace

void run_loopback_daemon(const RunArgs& args, Report& report) {
  std::signal(SIGPIPE, SIG_IGN);  // belt and braces; every send uses MSG_NOSIGNAL
  const std::size_t n = args.smoke ? 4 : 16;
  const double window_s = args.smoke ? 1.5 : args.seconds;
  const double warm_s = args.smoke ? 0.5 : 1.0;
  const auto backend = crypto::make_real_crypto();

  const std::size_t setups = args.smoke || args.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cluster;
  for (std::size_t i = 0; i < setups; ++i) {
    cluster.reset();
    const double t0 = wall_s();
    cluster = std::make_unique<Cluster>(n, args.seed, *backend, false);
    const bool joined = cluster->ok() && cluster->join(20.0, warm_s);
    setup_s.push_back(wall_s() - t0);
    report.check(joined, "not every loopback host joined");
    if (!joined) return;
  }
  const Window plain = cluster->measure(window_s, nullptr);
  check_cluster(*cluster, plain, report);
  cluster.reset();
  report.attempted = static_cast<std::uint64_t>(plain.shuffles + plain.failed);
  report.failed = static_cast<std::uint64_t>(plain.failed);
  report.set("shuffles_per_s", median_of(plain.rate));
  report.set("cpu_ms_per_shuffle", median_of(plain.cpu_ms));
  report.set("setup_s", median_of(setup_s));
  report.set("peak_rss_mb", peak_rss_mb());
  if (!args.trace) return;

  // Traced leg: a fresh cluster with the span decorator on the provider,
  // node timers on, a span per loop poll and every envelope captured.
  SpanLog log;
  CryptoMeter meter;
  meter.log = &log;
  const auto provider = make_span_crypto(*backend, meter);
  Cluster traced(n, args.seed, *provider, true);
  const bool joined = traced.ok() && traced.join(20.0, warm_s);
  report.check(joined, "traced leg: not every loopback host joined");
  if (!joined) return;
  const auto engine0 = traced.engine_stats();
  meter.recording = true;
  const Window w = traced.measure(window_s, &log);
  meter.recording = false;
  check_cluster(traced, w, report);

  report_crypto(meter, w.shuffles, w.wall * 1e9, report);
  report_engine(engine0, traced.engine_stats(), report);
  report_node_timers(traced.registries(), report);
  report.set("node.busy_reject_frac", ratio(w.benign, w.initiated));

  report.set("net.frames_per_shuffle", ratio(w.frames, w.shuffles));
  report.set("net.loop_busy_frac", ratio(w.cpu, w.wall));
  report.set("net.loop_lag_p50_ms", w.lag_ms.median());
  report.set("net.loop_lag_p95_ms", w.lag_ms.percentile(95));
  report.set("net.shuffle_p50_ms", plain.latency_ms.median());
  report.set("net.shuffle_p95_ms", plain.latency_ms.percentile(95));
  report.set("net.shuffle_samples", static_cast<double>(plain.latency_ms.count()));
  report.set("net.reconnects", plain.reconnects);
  report.set("net.backpressure_dropped", plain.dropped);
  report.set("trace.overhead_frac",
             ratio(ratio(w.cpu, w.shuffles), ratio(plain.cpu, plain.shuffles)) - 1.0);
  replay_wire(traced.captured(), report);
  report.spans = log.write(args.out_dir + "/ledger_" + args.workload, args.seed);
}

}  // namespace accountnet::ledger
