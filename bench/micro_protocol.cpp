// Micro-benchmarks for protocol operations (google-benchmark): verifiable
// draws, the full shuffle exchange, history reconstruction, offer
// verification, and witness planning — under both crypto backends — plus the
// obs hot path (counter add, disabled timer, timed-provider passthrough).
// After the benchmark run, main() dumps per-primitive crypto timer
// distributions to BENCH_micro_protocol.json (JSON-lines, one row per
// metric; see docs/OBSERVABILITY.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "accountnet/core/shuffle.hpp"
#include "accountnet/core/witness.hpp"
#include "accountnet/crypto/timed.hpp"
#include "accountnet/obs/metrics.hpp"
#include "accountnet/obs/sink.hpp"
#include "accountnet/util/rng.hpp"

namespace {

using namespace accountnet;
using namespace accountnet::core;

Bytes seed_for(std::uint64_t i) {
  Bytes seed(32);
  Rng rng(i * 7919 + 13);
  for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
  return seed;
}

std::unique_ptr<NodeState> make_node(const std::string& addr,
                                     const crypto::CryptoProvider& provider,
                                     NodeConfig config) {
  auto signer = provider.make_signer(seed_for(std::hash<std::string>{}(addr)));
  PeerId id{addr, signer->public_key()};
  return std::make_unique<NodeState>(
      id, provider.make_signer(seed_for(std::hash<std::string>{}(addr))), config);
}

/// A pair of nodes with full peersets, pre-shuffled a few rounds.
struct Pair {
  std::unique_ptr<crypto::CryptoProvider> provider;
  std::vector<std::unique_ptr<NodeState>> all;
  NodeState* a = nullptr;
  NodeState* b = nullptr;

  Pair(bool real, std::size_t f) {
    provider = real ? crypto::make_real_crypto() : crypto::make_fast_crypto();
    NodeConfig config;
    config.max_peerset = f;
    config.shuffle_length = (f + 1) / 2;
    std::vector<PeerId> ids;
    for (std::size_t i = 0; i < 2 * f + 2; ++i) {
      all.push_back(make_node("m" + std::to_string(100 + i), *provider, config));
      ids.push_back(all.back()->self());
    }
    auto& bootstrap = *all[0];
    bootstrap.init_as_seed();
    for (std::size_t i = 1; i < all.size(); ++i) {
      std::vector<PeerId> others;
      for (const auto& id : ids) {
        if (!(id == all[i]->self())) others.push_back(id);
      }
      const Bytes stamp =
          bootstrap.signer().sign(join_stamp_payload(all[i]->self().addr));
      all[i]->apply_join(bootstrap.self(), stamp, others);
    }
    a = all[1].get();
    // b must be a's VRF-dictated partner for benchmarks of verify paths.
    const auto choice = choose_partner(*a);
    for (auto& n : all) {
      if (n->self() == choice->partner) b = n.get();
    }
  }
};

void BM_ChoosePartner(benchmark::State& state) {
  Pair p(state.range(0) != 0, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(choose_partner(*p.a));
  }
}
BENCHMARK(BM_ChoosePartner)->Arg(0)->Arg(1);  // 0 = fast backend, 1 = real

void BM_MakeOffer(benchmark::State& state) {
  Pair p(state.range(0) != 0, 10);
  const auto choice = choose_partner(*p.a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_offer(*p.a, *choice, p.b->round()));
  }
}
BENCHMARK(BM_MakeOffer)->Arg(0)->Arg(1);

void BM_VerifyOffer(benchmark::State& state) {
  Pair p(state.range(0) != 0, 10);
  const auto choice = choose_partner(*p.a);
  const auto offer = make_offer(*p.a, *choice, p.b->round());
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify_offer(offer, *p.b, p.b->round(), *p.provider));
  }
}
BENCHMARK(BM_VerifyOffer)->Arg(0)->Arg(1);

void BM_FullShuffleExchange(benchmark::State& state) {
  // Complete verified exchange including both commits; f swept.
  const auto f = static_cast<std::size_t>(state.range(0));
  Pair p(false, f);
  for (auto _ : state) {
    const auto choice = choose_partner(*p.a);
    if (!choice) {
      state.SkipWithError("empty peerset");
      return;
    }
    NodeState* partner = nullptr;
    for (auto& n : p.all) {
      if (n->self() == choice->partner) partner = n.get();
    }
    const auto offer = make_offer(*p.a, *choice, partner->round());
    if (!verify_offer(offer, *partner, partner->round(), *p.provider)) {
      state.SkipWithError("verify_offer failed");
      return;
    }
    const auto resp = make_response_and_commit(*partner, offer);
    if (!verify_response(resp, *p.a, offer, *p.provider)) {
      state.SkipWithError("verify_response failed");
      return;
    }
    apply_offer_outcome(*p.a, offer, resp);
  }
}
BENCHMARK(BM_FullShuffleExchange)->Arg(5)->Arg(10)->Arg(20);

void BM_HistoryReconstruct(benchmark::State& state) {
  // Reconstruction cost vs suffix length.
  Pair p(false, 10);
  // Generate a long history by repeated shuffles.
  for (int i = 0; i < 200; ++i) {
    const auto choice = choose_partner(*p.a);
    NodeState* partner = nullptr;
    for (auto& n : p.all) {
      if (n->self() == choice->partner) partner = n.get();
    }
    const auto offer = make_offer(*p.a, *choice, partner->round());
    const auto resp = make_response_and_commit(*partner, offer);
    apply_offer_outcome(*p.a, offer, resp);
  }
  const UpdateHistory& h = p.a->history();
  const std::size_t k = std::min(static_cast<std::size_t>(state.range(0)), h.size());
  const auto suffix = h.entries_from(h.total_appended() - k, k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(UpdateHistory::reconstruct(suffix));
  }
}
BENCHMARK(BM_HistoryReconstruct)->Arg(8)->Arg(32)->Arg(128);

void BM_ProofSuffix(benchmark::State& state) {
  Pair p(false, 10);
  for (int i = 0; i < 100; ++i) {
    const auto choice = choose_partner(*p.a);
    NodeState* partner = nullptr;
    for (auto& n : p.all) {
      if (n->self() == choice->partner) partner = n.get();
    }
    const auto offer = make_offer(*p.a, *choice, partner->round());
    const auto resp = make_response_and_commit(*partner, offer);
    apply_offer_outcome(*p.a, offer, resp);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_history_proof(*p.a));
  }
}
BENCHMARK(BM_ProofSuffix);

void BM_WitnessPlanAndDraw(benchmark::State& state) {
  const auto provider = crypto::make_fast_crypto();
  const auto signer = provider->make_signer(seed_for(1));
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<PeerId> ni, nj;
  for (std::size_t i = 0; i < n; ++i) {
    ni.push_back(PeerId{"wi" + std::to_string(1000 + i), {}});
    nj.push_back(PeerId{"wj" + std::to_string(1000 + i), {}});
  }
  std::sort(ni.begin(), ni.end());
  std::sort(nj.begin(), nj.end());
  const PeerId prod{"prod", {}}, cons{"cons", {}};
  const Bytes nonce = channel_nonce(prod, 3, cons, 4);
  for (auto _ : state) {
    const auto plan = plan_witness_group(ni, nj, prod, cons, 8);
    benchmark::DoNotOptimize(draw_witnesses(sampler_backend(SamplerKind::kVrf), *signer,
                                            plan.candidates_producer,
                                            plan.quota_producer, nonce));
  }
}
BENCHMARK(BM_WitnessPlanAndDraw)->Arg(30)->Arg(300)->Arg(1000);

// --- Observability overhead ------------------------------------------------

// The obs hot path: one relaxed atomic add.
void BM_MetricsCounterAdd(benchmark::State& state) {
  obs::MetricsRegistry registry;
  const auto id = registry.counter("bench.counter");
  for (auto _ : state) {
    registry.add(id);
  }
  benchmark::DoNotOptimize(registry.counter_value(id));
}
BENCHMARK(BM_MetricsCounterAdd);

// A ScopedTimer with timing disabled (the default) must cost a null check.
void BM_ScopedTimerDisabled(benchmark::State& state) {
  obs::MetricsRegistry registry;
  const auto id = registry.timer("bench.timer");
  for (auto _ : state) {
    obs::ScopedTimer t(&registry, id);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ScopedTimerDisabled);

// verify_offer through the timed crypto decorator with timing off — compare
// against BM_VerifyOffer to confirm disabled instrumentation is unmeasurable.
void BM_VerifyOfferTimedProvider(benchmark::State& state) {
  Pair p(state.range(0) != 0, 10);
  obs::MetricsRegistry registry;
  const auto timed = crypto::make_timed_crypto(std::move(p.provider), registry);
  const auto choice = choose_partner(*p.a);
  const auto offer = make_offer(*p.a, *choice, p.b->round());
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify_offer(offer, *p.b, p.b->round(), *timed));
  }
}
BENCHMARK(BM_VerifyOfferTimedProvider)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Post-run metrics dump: drive each backend's primitives through the timed
  // decorator (timing enabled) and scrape the distributions.
  using namespace accountnet;
  obs::JsonLinesSink sink("BENCH_micro_protocol.json");
  for (const bool real : {false, true}) {
    obs::MetricsRegistry registry;
    registry.set_timing_enabled(true);
    const auto provider = crypto::make_timed_crypto(
        real ? crypto::make_real_crypto() : crypto::make_fast_crypto(), registry);
    const auto signer = provider->make_signer(seed_for(7));
    const Bytes msg = bytes_of("accountnet micro_protocol metrics probe");
    for (int i = 0; i < 32; ++i) {
      const Bytes sig = signer->sign(msg);
      provider->verify(signer->public_key(), msg, sig);
      const Bytes proof = signer->vrf_prove(msg);
      signer->vrf_output(msg);
      provider->vrf_verify(signer->public_key(), msg, proof);
    }
    sink.raw_line(std::string("{\"bench\":\"micro_protocol\",\"backend\":\"") +
                  provider->name() + "\"}");
    registry.scrape_to(sink, /*sim_time_us=*/0);
  }
  sink.flush();
  std::printf("wrote BENCH_micro_protocol.json\n");
  return 0;
}
