// node_accountable: 256 event-driven core::Nodes over sim::SimNetwork with
// the byz_soak configuration (accountability on, witnessed channels,
// FastCrypto). After settling, a 10% forge_history contingent is armed and
// simulated time runs as fast as the CPU allows; the accuse → gossip →
// quarantine path is the write-side twin of plain shuffling.
#include <algorithm>

#include "accountnet/core/node.hpp"
#include "accountnet/sim/network.hpp"
#include "accountnet/util/rng.hpp"
#include "common.hpp"

namespace accountnet::ledger {
namespace {

constexpr sim::Duration kPeriod = sim::seconds(10);
constexpr sim::Duration kTick = sim::seconds(1);
constexpr int kPublishEveryTicks = 2;

class Soak {
 public:
  Soak(std::size_t n, std::size_t channels, std::uint64_t seed,
       const crypto::CryptoProvider& provider, bool instrument)
      : net_(sim_, sim::netem_latency(), seed) {
    if (instrument) {
      net_.set_metrics(&net_metrics_, [](std::uint32_t t) {
        return std::string(core::msg_type_name(static_cast<core::MsgType>(t)));
      });
    }
    core::Node::Config config;  // bench/byz_soak_common.hpp's ByzSoak config
    config.protocol.max_peerset = 5;
    config.protocol.shuffle_length = 3;
    config.shuffle_period = kPeriod;
    config.depth = 3;
    config.witness_count = 4;
    config.majority_opt = true;
    config.accountability.enabled = true;
    config.query_retry = {4, sim::milliseconds(300), 1.5, 0.1};
    config.channel_retry = {4, sim::milliseconds(300), 1.5, 0.1};
    config.blind_retry = {3, sim::milliseconds(300), 1.5, 0.1};

    // A deterministic, evenly spaced 10% contingent (never the seed node)
    // that joins honestly and is armed only after settling.
    const std::size_t n_adv = std::max<std::size_t>(1, (n + 5) / 10);
    const std::size_t stride = n / n_adv;
    adversary_.assign(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      Bytes node_seed(32);
      Rng rng(seed * 1000 + i);
      for (auto& b : node_seed) b = static_cast<std::uint8_t>(rng.next_u64());
      nodes_.push_back(std::make_unique<core::Node>(net_, "b" + std::to_string(i), provider,
                                                    node_seed, config, rng.next_u64()));
      if (instrument) nodes_.back()->metrics().set_timing_enabled(true);
      if (i % stride == stride / 2 && adversaries_.size() < n_adv) {
        adversaries_.push_back(i);
        adversary_[i] = true;
      }
    }
    nodes_[0]->start_as_seed();
    for (std::size_t i = 1; i < n; ++i) {
      sim_.schedule(sim::milliseconds(static_cast<std::int64_t>(20 * i)),
                    [this, i] { nodes_[i]->start_join(nodes_[i - 1]->id().addr); });
    }
    sim_.run_until(sim_.now() + sim::seconds(120));  // settle honestly

    // Witnessed channels between honest endpoints only.
    std::vector<std::size_t> honest;
    for (std::size_t i = 0; i < n; ++i) {
      if (!adversary_[i]) honest.push_back(i);
    }
    for (std::size_t p = 0; p < channels && p < honest.size() / 2; ++p) {
      const std::size_t prod = honest[p];
      nodes_[prod]->open_channel(nodes_[honest[honest.size() - 1 - p]]->id().addr,
                                 [this, prod](std::uint64_t ch, bool ok) {
                                   if (ok) ready_.push_back({prod, ch});
                                 });
    }
    sim_.run_until(sim_.now() + sim::seconds(30));
  }

  // Scheduled events and channel callbacks hold `this`.
  Soak(const Soak&) = delete;
  Soak& operator=(const Soak&) = delete;

  void arm() {
    for (const std::size_t i : adversaries_) nodes_[i]->adversary().forge_history = true;
    armed_at_ = sim_.now();
  }

  /// One simulated second of traffic; returns the wall seconds it took.
  double tick() {
    const double t0 = wall_s();
    if (ticks_++ % kPublishEveryTicks == 0) {
      for (const auto& [prod, ch] : ready_) {
        nodes_[prod]->send_data(ch, Bytes{0xB2, static_cast<std::uint8_t>(ticks_)});
      }
    }
    sim_.run_until(sim_.now() + kTick);
    return wall_s() - t0;
  }

  /// True once >= 95% of honest nodes quarantine every adversary.
  bool all_convicted() const {
    const double honest = static_cast<double>(nodes_.size() - adversaries_.size());
    for (const std::size_t a : adversaries_) {
      std::size_t cnt = 0;
      for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (!adversary_[i] && nodes_[i]->is_quarantined(nodes_[a]->id().addr)) ++cnt;
      }
      if (static_cast<double>(cnt) < 0.95 * honest) return false;
    }
    return true;
  }

  /// Honest-honest quarantine pairs plus evictions of honest nodes; both
  /// MUST stay 0 on this no-fault network.
  std::size_t false_positives() const {
    std::size_t fp = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      for (std::size_t j = 0; j < nodes_.size(); ++j) {
        if (i == j || adversary_[j]) continue;
        const std::string& addr = nodes_[j]->id().addr;
        if (!adversary_[i] && nodes_[i]->is_quarantined(addr)) ++fp;
        if (nodes_[i]->is_evicted(addr)) ++fp;
      }
    }
    return fp;
  }

  /// Sum of a per-node counter over honest (or all) nodes.
  double total(const char* name, bool honest_only = false) const {
    double t = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (honest_only && adversary_[i]) continue;
      const auto& m = nodes_[i]->metrics();
      if (const auto id = m.find(name)) t += static_cast<double>(m.counter_value(*id));
    }
    return t;
  }

  /// Every node's counters whose name starts with `prefix`, summed.
  double prefix_total(const std::string& prefix) const {
    double t = 0;
    for (const auto& nd : nodes_) {
      for (const auto& s : nd->metrics().snapshot()) {
        if (s.kind == obs::MetricKind::kCounter && s.name.rfind(prefix, 0) == 0) {
          t += static_cast<double>(s.count);
        }
      }
    }
    return t;
  }
  std::vector<const obs::MetricsRegistry*> registries() const {
    std::vector<const obs::MetricsRegistry*> out;
    for (const auto& nd : nodes_) out.push_back(&nd->metrics());
    return out;
  }

  EngineStats engine_stats() const {
    EngineStats t;
    for (const auto& nd : nodes_) accumulate(t, nd->verification_engine().stats());
    return t;
  }

  sim::TimePoint since_armed() const { return sim_.now() - armed_at_; }
  std::uint64_t events() const { return sim_.events_processed(); }
  const sim::NetworkStats& net_stats() const { return net_.stats(); }

 private:
  sim::Simulator sim_;
  obs::MetricsRegistry net_metrics_;  // outlives net_, which counts into it
  sim::SimNetwork net_;
  std::vector<std::unique_ptr<core::Node>> nodes_;
  std::vector<std::size_t> adversaries_;
  std::vector<bool> adversary_;
  std::vector<std::pair<std::size_t, std::uint64_t>> ready_;  // (producer, channel)
  sim::TimePoint armed_at_ = 0;
  std::uint64_t ticks_ = 0;
};

struct Window {
  std::vector<double> rate;    ///< per period: completed shuffles per wall second
  std::vector<double> cpu_ms;  ///< per period: CPU ms per completed shuffle
  double wall = 0, shuffles = 0, events = 0, msgs = 0, bytes = 0;
  double convict_s = -1;
};

/// Arms the contingent and runs `periods` shuffle periods.
Window measure(Soak& soak, std::size_t periods, Report& report) {
  Window w;
  soak.arm();
  const double done0 = soak.total("node.shuffles_completed");
  const double fail0 = soak.total("node.shuffle_failures", true) -
                       soak.total("node.shuffles_rejected_benign", true);
  const double honest0 = soak.total("node.shuffles_completed", true);
  const std::uint64_t events0 = soak.events();
  const auto net0 = soak.net_stats();
  for (std::size_t p = 0; p < periods; ++p) {
    const double before = soak.total("node.shuffles_completed");
    double wall = 0, cpu = 0;
    for (sim::Duration t = 0; t < kPeriod; t += kTick) {
      const double c0 = thread_cpu_s();
      wall += soak.tick();
      cpu += thread_cpu_s() - c0;
      // Checked each simulated second, outside the timed tick.
      if (w.convict_s < 0 && soak.all_convicted()) {
        w.convict_s = sim::to_seconds(soak.since_armed());
      }
    }
    const double n = soak.total("node.shuffles_completed") - before;
    w.wall += wall;
    if (n > 0) {
      w.rate.push_back(n / wall);
      w.cpu_ms.push_back(cpu * 1000.0 / n);
    }
  }
  w.shuffles = soak.total("node.shuffles_completed") - done0;
  w.events = static_cast<double>(soak.events() - events0);
  w.msgs = static_cast<double>(soak.net_stats().messages_sent - net0.messages_sent);
  w.bytes = static_cast<double>(soak.net_stats().bytes_sent - net0.bytes_sent);

  const double failed = soak.total("node.shuffle_failures", true) -
                        soak.total("node.shuffles_rejected_benign", true) - fail0;
  const double honest_done = soak.total("node.shuffles_completed", true) - honest0;
  report.attempted += static_cast<std::uint64_t>(honest_done + failed);
  report.failed += static_cast<std::uint64_t>(failed);
  report.check(w.shuffles > 0, "no shuffle completed");
  report.check(soak.false_positives() == 0, "honest node quarantined or evicted");
  report.check(w.convict_s >= 0, "an armed adversary was never convicted");
  return w;
}

}  // namespace

void run_node_accountable(const RunArgs& args, Report& report) {
  const std::size_t n = args.smoke ? 24 : 256;
  const std::size_t channels = args.smoke ? 4 : 12;
  // ~0.12 s of wall per shuffle period at 256 nodes on the reference host.
  const std::size_t periods =
      args.smoke ? 12
                 : std::max<std::size_t>(10, static_cast<std::size_t>(args.seconds * 6));
  const auto backend = crypto::make_fast_crypto();

  const std::size_t setups = args.smoke || args.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<Soak> soak;
  for (std::size_t i = 0; i < setups; ++i) {
    soak.reset();
    const double t0 = wall_s();
    soak = std::make_unique<Soak>(n, channels, args.seed, *backend, false);
    setup_s.push_back(wall_s() - t0);
  }
  const Window plain = measure(*soak, periods, report);
  soak.reset();
  report.set("shuffles_per_s", median_of(plain.rate));
  report.set("cpu_ms_per_shuffle", median_of(plain.cpu_ms));
  report.set("setup_s", median_of(setup_s));
  report.set("peak_rss_mb", peak_rss_mb());
  if (!args.trace) return;

  // Traced leg: the same seeded network again, with the span decorator on
  // the crypto provider, node timers on and per-type fabric counters.
  SpanLog log;
  CryptoMeter meter;
  meter.log = &log;
  const auto provider = make_span_crypto(*backend, meter);
  Soak traced(n, channels, args.seed, *provider, true);
  const auto engine0 = traced.engine_stats();
  const double acc0 = traced.prefix_total("acc.accuse.created.");
  const double retries0 = traced.total("node.rpc_retries");
  const double init0 = traced.total("node.shuffles_initiated");
  const double benign0 = traced.total("node.shuffles_rejected_benign");
  meter.recording = true;
  const std::size_t root = log.begin("node.measured_periods", "sim");
  Report scratch;  // the traced leg's checks count; its shuffle counts do not
  const Window w = measure(traced, periods, scratch);
  log.end(root);
  meter.recording = false;
  for (const auto& v : scratch.violations) report.check(false, "traced leg: " + v);

  report_crypto(meter, w.shuffles, w.wall * 1e9, report);
  report_engine(engine0, traced.engine_stats(), report);
  report_node_timers(traced.registries(), report);

  report.set("sim.events_per_s", ratio(w.events, w.wall));
  report.set("sim.events_per_shuffle", ratio(w.events, w.shuffles));
  report.set("node.msgs_per_shuffle", ratio(w.msgs, w.shuffles));
  report.set("node.bytes_per_shuffle", ratio(w.bytes, w.shuffles));
  report.set("node.self_us_per_shuffle",
             ratio(w.wall * 1e9 - static_cast<double>(meter.total_ns()), w.shuffles) /
                 1000.0);
  report.set("node.accusations_created",
             traced.prefix_total("acc.accuse.created.") - acc0);
  report.set("node.rpc_retries", traced.total("node.rpc_retries") - retries0);
  report.set("node.busy_reject_frac",
             ratio(traced.total("node.shuffles_rejected_benign") - benign0,
                   traced.total("node.shuffles_initiated") - init0));
  report.set("node.convict_latency_s", plain.convict_s);
  report.set("trace.overhead_frac",
             ratio(median_of(w.cpu_ms), median_of(plain.cpu_ms)) - 1.0);
  report.spans = log.write(args.out_dir + "/ledger_" + args.workload, args.seed);
}

}  // namespace accountnet::ledger
