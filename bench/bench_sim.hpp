// Simulation plumbing shared by the measurement benches: standard paper
// configurations (Table I) and steady-state runs.
#pragma once

#include <map>

#include "accountnet/harness/network_sim.hpp"
#include "bench_common.hpp"

namespace accountnet::bench {

/// Sums counter/gauge scrapes across many registries (the per-node
/// registries of the soak benches) and re-emits one combined scrape.
/// Timers are skipped: their percentiles do not merge, and the soaks run
/// with timing disabled anyway.
class CounterAggregator final : public obs::Sink {
 public:
  void write(const obs::MetricSample& s, std::int64_t) override {
    if (s.kind == obs::MetricKind::kTimer) return;
    auto& slot = totals_[s.name];
    slot.first = s.kind;
    slot.second += s.kind == obs::MetricKind::kCounter
                       ? static_cast<double>(s.count)
                       : s.value;
  }

  /// Writes the summed rows into `out` (sorted by name, so deterministic).
  void emit(obs::Sink& out, std::int64_t t_us) const {
    for (const auto& [name, slot] : totals_) {
      obs::MetricSample s;
      s.name = name;
      s.kind = slot.first;
      s.count = static_cast<std::uint64_t>(slot.second);
      s.value = slot.second;
      out.write(s, t_us);
    }
  }

 private:
  std::map<std::string, std::pair<obs::MetricKind, double>> totals_;
};

/// Table I defaults: shuffle period ~10 s, L = ceil(f/2), 125 nodes/VM lane.
inline harness::ExperimentConfig paper_config(std::size_t v, std::size_t f,
                                              std::size_t d, std::uint64_t seed = 1) {
  harness::ExperimentConfig c;
  c.network_size = v;
  c.f = f;
  c.l = (f + 1) / 2;
  c.d = d;
  c.seed = seed;
  c.verify_fraction = 0.02;  // spot-verify; correctness is covered by tests
  c.history_limit = 96;
  return c;
}

/// paper_config plus the shared command-line knobs that map onto
/// ExperimentConfig — currently --seed and --threads (the wave-parallel
/// drive, docs/PARALLELISM.md). Defaults leave the config byte-identical
/// to the four-argument overload.
inline harness::ExperimentConfig paper_config(std::size_t v, std::size_t f,
                                              std::size_t d, const BenchArgs& args) {
  auto c = paper_config(v, f, d, args.seed);
  c.threads = args.threads;
  return c;
}

/// Configuration for the 100k–1M-node scale rows (tentpole grid). FastCrypto
/// only, and per-node history slimmed so |V| = 1M fits in memory — the
/// harness multiplies every capacity by |V|. Graph shape and protocol
/// parameters match paper_config.
inline harness::ExperimentConfig scale_config(std::size_t v, const BenchArgs& args) {
  auto c = paper_config(v, 5, 2, args);
  c.use_real_crypto = false;
  c.history_limit = 32;
  return c;
}

/// Rounds needed to reach full size (the launch schedule finishes around
/// round 70-75 for lane_size=125, as in Fig. 11) plus settle time.
inline std::size_t steady_rounds(const harness::ExperimentConfig& c,
                                 std::size_t settle_rounds = 40) {
  const std::size_t lanes = (c.network_size + c.lane_size - 1) / c.lane_size;
  const double per_lane = static_cast<double>((c.network_size + lanes - 1) / lanes);
  const double launch_seconds =
      per_lane * sim::to_seconds(c.launch_spacing_max) / 2.0 * 1.15;
  const double analysis_s = sim::to_seconds(c.analysis_period);
  return static_cast<std::size_t>(launch_seconds / analysis_s) + settle_rounds;
}

}  // namespace accountnet::bench
