// harness_spot and harness_verified: harness::NetworkSim driven at
// threads = 0 (the sequential drive, the measured leg) and threads = 2 (the
// wave drive), plus — in the traced run — a replay of the same exchange
// through the public core/shuffle.hpp calls, one span per call.
#include <algorithm>
#include <array>
#include <unordered_map>

#include "accountnet/core/history.hpp"
#include "accountnet/core/shuffle.hpp"
#include "accountnet/core/verification_engine.hpp"
#include "accountnet/crypto/sha256.hpp"
#include "accountnet/harness/network_sim.hpp"
#include "accountnet/obs/sink.hpp"
#include "accountnet/util/rng.hpp"
#include "accountnet/wire/codec.hpp"
#include "common.hpp"

namespace accountnet::ledger {
namespace {

struct HarnessShape {
  std::size_t nodes;
  std::size_t rounds;          ///< measured analysis rounds per leg
  std::size_t replay_warm;     ///< replay shuffles before measuring
  std::size_t replay_measure;  ///< replay shuffles measured (half traced)
};

/// The paper-figure configuration at |V| = 10 000 (bench_sim.hpp's
/// scale_config: FastCrypto, 2% spot verification, slimmed per-node caches)
/// with the launch schedule compressed to 1 s spacing. History is unbounded,
/// as in the paper: under this compressed launch the earliest nodes collect
/// over 128 entries within the first rounds, and any retention limit up to
/// that trims proofs honest verifiers then reject (seed 5 at 32 entries,
/// seeds 6 and 9 at 96, seed 6 still at 128).
harness::ExperimentConfig spot_config(std::size_t nodes, std::uint64_t seed) {
  harness::ExperimentConfig c;
  c.network_size = nodes;
  c.f = 5;
  c.l = 3;
  c.d = 2;
  c.seed = seed;
  c.verify_fraction = 0.02;
  c.history_limit = 0;
  c.verification.sig_cache_capacity = 32;
  c.verification.vrf_cache_capacity = 32;
  c.verification.history_memo_capacity = 8;
  c.launch_spacing_max = sim::seconds(1);
  return c;
}

/// The same drive with real Ed25519+ECVRF and every shuffle verified. A
/// shuffle costs ~15 ms of CPU here, so the analysis period shrinks to 2 s
/// (about 26 shuffles per measured interval) and 16-node launch lanes bring
/// every node up within ~10 simulated seconds.
harness::ExperimentConfig verified_config(std::size_t nodes, std::uint64_t seed) {
  harness::ExperimentConfig c;
  c.network_size = nodes;
  c.f = 5;
  c.l = 3;
  c.d = 2;
  c.seed = seed;
  c.use_real_crypto = true;
  c.verify_fraction = 1.0;
  c.history_limit = 96;
  c.analysis_period = sim::seconds(2);
  c.lane_size = 16;
  c.launch_spacing_max = sim::seconds(1);
  return c;
}

/// Launch rounds (bench_sim.hpp::steady_rounds) plus `settle` more.
std::size_t steady_rounds(const harness::ExperimentConfig& c, std::size_t settle) {
  const std::size_t lanes = (c.network_size + c.lane_size - 1) / c.lane_size;
  const double per_lane = static_cast<double>((c.network_size + lanes - 1) / lanes);
  const double launch_seconds =
      per_lane * sim::to_seconds(c.launch_spacing_max) / 2.0 * 1.15;
  return static_cast<std::size_t>(launch_seconds / sim::to_seconds(c.analysis_period)) +
         settle;
}

/// Protocol-state fold (the scale_soak / parallel-determinism shape):
/// aliveness, membership, per-node round + sorted peerset, cumulative stats.
std::array<std::uint8_t, 32> state_digest(const harness::NetworkSim& net) {
  wire::Writer w;
  for (std::size_t i = 0; i < net.size(); ++i) {
    w.u64(net.is_alive(i) ? 1 : 0);
    w.u64(net.is_joined(i) ? 1 : 0);
    const auto& st = net.node_state(i);
    w.u64(st.round());
    const auto& peers = st.peerset().sorted();
    w.u64(peers.size());
    for (const auto& p : peers) w.str(p.addr);
  }
  const auto& s = net.stats();
  w.u64(s.shuffles_attempted);
  w.u64(s.shuffles_completed);
  w.u64(s.shuffles_verified);
  w.u64(s.verification_failures);
  const Bytes bytes = std::move(w).take();
  return crypto::Sha256::hash(bytes);
}

std::map<std::string, double> scrape_counters(harness::NetworkSim& net) {
  obs::MemorySink sink;
  net.scrape_metrics(sink);
  std::map<std::string, double> out;
  for (const auto& row : sink.rows()) {
    if (row.sample.kind == obs::MetricKind::kCounter) {
      out[row.sample.name] = static_cast<double>(row.sample.count);
    }
  }
  return out;
}

struct Leg {
  std::vector<double> rate;    ///< per round: completed shuffles per wall second
  std::vector<double> cpu_ms;  ///< per round: driving-thread CPU ms per completed shuffle
  std::uint64_t attempted = 0, completed = 0;
  std::map<std::string, double> counters;  ///< scraped counter deltas over the leg
  std::array<std::uint8_t, 32> digest{};
};

std::unique_ptr<harness::NetworkSim> set_up(const harness::ExperimentConfig& c,
                                            std::vector<double>& setup_s) {
  const double t0 = wall_s();
  auto net = std::make_unique<harness::NetworkSim>(c);
  net->run(steady_rounds(c, 4), nullptr);
  setup_s.push_back(wall_s() - t0);
  return net;
}

Leg measure_leg(harness::NetworkSim& net, std::size_t rounds) {
  Leg leg;
  const auto before = net.stats();
  const auto counters_before = scrape_counters(net);
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::uint64_t done = net.stats().shuffles_completed;
    const double t0 = wall_s();
    const double c0 = thread_cpu_s();
    net.run(1, nullptr);
    const double dt = wall_s() - t0;
    const double dc = thread_cpu_s() - c0;
    const auto n = static_cast<double>(net.stats().shuffles_completed - done);
    if (n > 0) {
      leg.rate.push_back(n / dt);
      leg.cpu_ms.push_back(dc * 1000.0 / n);
    }
  }
  const auto& after = net.stats();
  leg.attempted = after.shuffles_attempted - before.shuffles_attempted;
  leg.completed = after.shuffles_completed - before.shuffles_completed;
  for (const auto& [name, v] : scrape_counters(net)) {
    const auto it = counters_before.find(name);
    leg.counters[name] = v - (it == counters_before.end() ? 0.0 : it->second);
  }
  leg.digest = state_digest(net);
  return leg;
}

double counter(const Leg& leg, const char* name) {
  const auto it = leg.counters.find(name);
  return it == leg.counters.end() ? 0.0 : it->second;
}

// ---------------------------------------------------------------------------
// Layer replay. NetworkSim builds its crypto provider internally, so the
// traced run re-drives the harness exchange (the loop of
// abl_verification_cost's World) through the public calls with the
// workload's f, L, backend, engine config and verify fraction. Shuffles
// alternate: even ones are timed whole (the untraced reference), odd ones
// get a span per call and a recording crypto meter.

class ExchangeReplay {
 public:
  ExchangeReplay(const harness::ExperimentConfig& c, SpanLog& log)
      : backend_(c.use_real_crypto ? crypto::make_real_crypto()
                                   : crypto::make_fast_crypto()),
        crypto_(make_span_crypto(*backend_, meter)),
        verify_fraction_(c.verify_fraction),
        rng_(c.seed ^ 0x5eedfacecafef00dULL),
        log_(log) {
    meter.log = &log_;
    core::NodeConfig nc;
    nc.max_peerset = c.f;
    nc.shuffle_length = c.l;
    nc.history_limit = c.history_limit;
    nc.sampler = c.sampler;
    for (std::size_t i = 0; i < c.network_size; ++i) {
      Bytes seed(32);
      for (auto& b : seed) b = static_cast<std::uint8_t>(rng_.next_u64());
      auto signer = crypto_->make_signer(seed);
      core::PeerId id{"r" + std::to_string(i), signer->public_key()};
      index_[id.addr] = i;
      states_.push_back(std::make_unique<core::NodeState>(id, std::move(signer), nc));
      engines_.push_back(
          std::make_unique<core::VerificationEngine>(*crypto_, c.verification));
    }
    core::NodeState& boot = *states_.front();
    boot.init_as_seed();
    for (std::size_t i = 1; i < states_.size(); ++i) {
      std::vector<core::PeerId> peers;
      for (const std::size_t j : rng_.sample_indices(states_.size(), c.f + 1)) {
        if (j != i && peers.size() < c.f) peers.push_back(states_[j]->self());
      }
      const Bytes stamp =
          boot.signer().sign(core::join_stamp_payload(states_[i]->self().addr));
      states_[i]->apply_join(boot.self(), stamp, std::move(peers));
    }
  }

  void run(std::size_t shuffles, bool measure) {
    for (std::size_t s = 0; s < shuffles; ++s) shuffle(measure && s % 2 == 1, measure);
  }

  /// Per-call totals over the traced shuffles.
  struct Call {
    std::int64_t ns = 0;
    std::uint64_t calls = 0;
  };
  enum Step { kChoose, kOffer, kVerifyOffer, kRespond, kVerifyResponse, kApply, kSteps };
  Call calls[kSteps];
  std::int64_t whole_traced_ns = 0, whole_untraced_ns = 0;
  std::uint64_t traced_shuffles = 0, untraced_shuffles = 0, failures = 0;
  std::uint64_t suffix_entries = 0, offers = 0;
  CryptoMeter meter;

  core::VerificationEngine::Stats engine_stats() const {
    core::VerificationEngine::Stats t;
    for (const auto& e : engines_) {
      const auto& s = e->stats();
      t.sig_hits += s.sig_hits;
      t.sig_misses += s.sig_misses;
      t.vrf_hits += s.vrf_hits;
      t.vrf_misses += s.vrf_misses;
      t.history_exact += s.history_exact;
      t.history_extended += s.history_extended;
      t.history_full += s.history_full;
      t.batch_calls += s.batch_calls;
      t.batch_jobs += s.batch_jobs;
    }
    return t;
  }

 private:
  static constexpr const char* kStepSpan[kSteps] = {
      "exchange.choose_partner", "exchange.make_offer",
      "engine.verify_offer",     "exchange.make_response_and_commit",
      "engine.verify_response",  "exchange.apply_offer_outcome"};

  template <class F>
  auto step(Step st, bool traced, const std::string& node, F&& f) {
    if (!traced) return f();
    const std::size_t span = log_.begin(kStepSpan[st], node);
    const std::int64_t t0 = mono_ns();
    auto result = f();
    calls[st].ns += mono_ns() - t0;
    log_.end(span);
    calls[st].calls += 1;
    return result;
  }

  std::size_t next_initiator() {
    if (order_pos_ == order_.size()) {
      order_.resize(states_.size());
      for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      rng_.shuffle(order_);
      order_pos_ = 0;
    }
    return order_[order_pos_++];
  }

  void shuffle(bool traced, bool measure) {
    const std::size_t idx = next_initiator();
    core::NodeState& node = *states_[idx];
    const std::string& addr = node.self().addr;
    meter.recording = traced;
    const std::int64_t t0 = mono_ns();
    const std::size_t root = traced ? log_.begin("replay.shuffle", addr) : SpanLog::kNone;
    const auto choice =
        step(kChoose, traced, addr, [&] { return core::choose_partner(node); });
    bool ok = choice.has_value();
    if (ok) {
      const std::size_t pidx = index_.at(choice->partner.addr);
      core::NodeState& partner = *states_[pidx];
      const core::Round rj = partner.round();
      const auto offer =
          step(kOffer, traced, addr, [&] { return core::make_offer(node, *choice, rj); });
      if (measure) {
        suffix_entries += offer.history_suffix.size();
        ++offers;
      }
      const bool verify = rng_.chance(verify_fraction_);
      if (verify) {
        ok = step(kVerifyOffer, traced, partner.self().addr, [&] {
          return core::verify_offer(offer, partner, rj, *engines_[pidx]).ok;
        });
      }
      if (ok) {
        const auto resp = step(kRespond, traced, partner.self().addr, [&] {
          return core::make_response_and_commit(partner, offer);
        });
        if (verify) {
          ok = step(kVerifyResponse, traced, addr, [&] {
            return core::verify_response(resp, node, offer, *engines_[idx]).ok;
          });
        }
        if (ok) {
          step(kApply, traced, addr, [&] {
            core::apply_offer_outcome(node, offer, resp);
            return 0;
          });
        }
      }
      if (!ok) ++failures;
    }
    if (!ok) node.skip_round();
    if (traced) log_.end(root);
    meter.recording = false;
    if (!measure) return;
    const std::int64_t dt = mono_ns() - t0;
    if (traced) {
      whole_traced_ns += dt;
      ++traced_shuffles;
    } else {
      whole_untraced_ns += dt;
      ++untraced_shuffles;
    }
  }

  std::unique_ptr<crypto::CryptoProvider> backend_;
  std::unique_ptr<crypto::CryptoProvider> crypto_;
  double verify_fraction_;
  Rng rng_;
  SpanLog& log_;
  std::vector<std::unique_ptr<core::NodeState>> states_;
  std::vector<std::unique_ptr<core::VerificationEngine>> engines_;
  std::unordered_map<std::string, std::size_t> index_;
  std::vector<std::size_t> order_;
  std::size_t order_pos_ = 0;
};

/// Runs the replay and fills the crypto / engine / exchange rows and the
/// trace.* rows; returns the untraced replay cost per shuffle in us.
double replay_layers(const harness::ExperimentConfig& c, const HarnessShape& shape,
                     const RunArgs& args, Report& report) {
  SpanLog log;
  ExchangeReplay replay(c, log);
  replay.run(shape.replay_warm, false);  // the meter records traced shuffles only
  const auto engine_before = replay.engine_stats();
  replay.run(shape.replay_measure, true);
  report.check(replay.failures == 0, "exchange replay: honest verification failed");

  // Whole-call times, crypto included, as core::Node's own timers report
  // them on the other workloads; the spans split out the crypto children.
  using R = ExchangeReplay;
  const auto call_us = [&](R::Step st) {
    const R::Call& k = replay.calls[st];
    return ratio(static_cast<double>(k.ns), 1000.0 * static_cast<double>(k.calls));
  };
  report.set("exchange.choose_partner.us", call_us(R::kChoose));
  report.set("exchange.make_offer.us", call_us(R::kOffer));
  report.set("exchange.make_response_and_commit.us", call_us(R::kRespond));
  report.set("exchange.apply_offer_outcome.us", call_us(R::kApply));
  report.set("engine.verify_offer.us", call_us(R::kVerifyOffer));
  report.set("engine.verify_response.us", call_us(R::kVerifyResponse));
  report.set("exchange.suffix_entries_per_offer",
             ratio(static_cast<double>(replay.suffix_entries),
                   static_cast<double>(replay.offers)));

  const auto& e = replay.engine_stats();
  const auto rate = [](std::uint64_t h, std::uint64_t m) {
    return ratio(static_cast<double>(h), static_cast<double>(h + m));
  };
  report.set("engine.sig_hit_rate", rate(e.sig_hits - engine_before.sig_hits,
                                         e.sig_misses - engine_before.sig_misses));
  report.set("engine.vrf_hit_rate", rate(e.vrf_hits - engine_before.vrf_hits,
                                         e.vrf_misses - engine_before.vrf_misses));

  const double traced = static_cast<double>(replay.traced_shuffles);
  const double untraced_ns = ratio(static_cast<double>(replay.whole_untraced_ns),
                                   static_cast<double>(replay.untraced_shuffles));
  const double traced_ns = ratio(static_cast<double>(replay.whole_traced_ns), traced);
  std::int64_t attributed = 0;
  for (const auto& k : replay.calls) attributed += k.ns;
  report_crypto(replay.meter, traced, static_cast<double>(replay.whole_traced_ns), report);
  // Every layer's self time summed (exchange + engine + crypto) per traced
  // shuffle, against the untraced wall time per shuffle.
  report.set("trace.attributed_frac",
             ratio(static_cast<double>(attributed) / traced, untraced_ns));
  report.set("trace.overhead_frac", ratio(traced_ns, untraced_ns) - 1.0);
  report.spans = log.write(args.out_dir + "/ledger_" + args.workload, args.seed);
  return untraced_ns / 1000.0;
}

void run_harness(const harness::ExperimentConfig& c0, const HarnessShape& shape,
                 const RunArgs& args, Report& report) {
  // Each leg sets up its own network (setup_s is the median of the two);
  // at most one network is alive at a time.
  std::vector<double> setup_s;
  auto net = set_up(c0, setup_s);
  const Leg seq = measure_leg(*net, shape.rounds);
  const std::uint64_t seq_failures = net->stats().verification_failures;
  net.reset();

  auto c2 = c0;
  c2.threads = 2;
  net = set_up(c2, setup_s);
  const Leg par = measure_leg(*net, shape.rounds);
  const std::uint64_t par_failures = net->stats().verification_failures;
  net.reset();

  report.check(seq.completed > 0, "threads=0 leg completed no shuffle");
  report.check(seq_failures == 0, "threads=0: honest verification failures");
  report.check(par_failures == 0, "threads=2: honest verification failures");
  report.check(seq.digest == par.digest, "threads=0 and threads=2 state digests differ");
  report.attempted = seq.attempted + par.attempted;
  report.failed = report.attempted - seq.completed - par.completed;

  const double rate = median_of(seq.rate);
  const double rate_t2 = median_of(par.rate);
  report.set("shuffles_per_s", rate);
  report.set("cpu_ms_per_shuffle", median_of(seq.cpu_ms));
  report.set("setup_s", median_of(setup_s));
  report.set("peak_rss_mb", peak_rss_mb());

  report.set("harness.us_per_shuffle", ratio(1e6, rate));
  report.set("harness.shuffles_per_s_t2", rate_t2);
  report.set("harness.speedup_t2", ratio(rate_t2, rate));
  const double jobs = counter(par, "verify.epoch_batch.jobs");
  report.set("harness.epoch_batch.jobs_per_flush",
             ratio(jobs, counter(par, "verify.epoch_batch.flushes")));
  report.set("harness.epoch_batch.preloaded_frac",
             ratio(counter(par, "verify.epoch_batch.preloaded"), jobs));
  const double hits = counter(seq, "verify.cache.hit");
  report.set("engine.cache_hit_rate",
             ratio(hits, hits + counter(seq, "verify.cache.miss")));
  const double full = counter(seq, "verify.history.full");
  report.set("engine.history_full_frac",
             ratio(full, full + counter(seq, "verify.history.exact") +
                             counter(seq, "verify.history.extended")));
  report.set("engine.batch_jobs_per_call",
             ratio(counter(seq, "verify.batch.jobs"), counter(seq, "verify.batch.calls")));

  if (args.trace) {
    const double replay_us = replay_layers(c0, shape, args, report);
    report.set("harness.self_us_per_shuffle", ratio(1e6, rate) - replay_us);
  }
}

}  // namespace

void run_harness_spot(const RunArgs& args, Report& report) {
  // ~0.45 s per measured round at 10 000 nodes on the reference host.
  const HarnessShape shape =
      args.smoke ? HarnessShape{200, 2, 400, 200}
                 : HarnessShape{10000, std::max<std::size_t>(2, static_cast<std::size_t>(
                                                                    args.seconds * 1.1)),
                                30000, 20000};
  run_harness(spot_config(shape.nodes, args.seed), shape, args, report);
}

void run_harness_verified(const RunArgs& args, Report& report) {
  // ~0.36 s per measured 2 s round at 128 nodes on the reference host.
  const HarnessShape shape =
      args.smoke ? HarnessShape{8, 2, 8, 4}
                 : HarnessShape{128, std::max<std::size_t>(4, static_cast<std::size_t>(
                                                                  args.seconds * 1.25)),
                                128, 512};
  run_harness(verified_config(shape.nodes, args.seed), shape, args, report);
}

}  // namespace accountnet::ledger
