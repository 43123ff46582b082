// Micro-benchmarks for the crypto substrate (google-benchmark): hashing
// throughput, the field/group/scalar primitives underneath Ed25519 and
// ECVRF, the protocol-level operations, and the Fast backend used by large
// sims.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "accountnet/crypto/ed25519.hpp"
#include "accountnet/crypto/fe25519.hpp"
#include "accountnet/crypto/ge25519.hpp"
#include "accountnet/crypto/provider.hpp"
#include "accountnet/crypto/sc25519.hpp"
#include "accountnet/crypto/sha256.hpp"
#include "accountnet/crypto/sha512.hpp"
#include "accountnet/crypto/vrf.hpp"
#include "accountnet/util/rng.hpp"

namespace {

using namespace accountnet;
using namespace accountnet::crypto;

Bytes make_payload(std::size_t size) {
  Bytes data(size);
  Rng rng(7);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  return data;
}

// Labelled with the compression this CPU runs ("sha-ni" or "portable").
void BM_Sha256(benchmark::State& state) {
  const Bytes data = make_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
  state.SetLabel(Sha256::implementation());
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

// The same hash on the portable rounds whatever the CPU: the payload and its
// FIPS padding (built once) through detail::sha256_compress_portable.
void BM_Sha256Portable(benchmark::State& state) {
  Bytes blocks = make_payload(static_cast<std::size_t>(state.range(0)));
  const std::uint64_t bits = static_cast<std::uint64_t>(blocks.size()) * 8;
  blocks.push_back(0x80);
  while (blocks.size() % 64 != 56) blocks.push_back(0);
  for (int i = 7; i >= 0; --i) blocks.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  for (auto _ : state) {
    std::uint32_t h[8] = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
                          0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
    detail::sha256_compress_portable(h, blocks.data(), blocks.size() / 64);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
  state.SetLabel("portable");
}
BENCHMARK(BM_Sha256Portable)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Sha512(benchmark::State& state) {
  const Bytes data = make_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha512::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(64)->Arg(1024)->Arg(65536);

std::array<std::uint8_t, 32> make_scalar() {
  return Scalar::reduce(make_payload(64)).bytes();
}

// A different 40-byte alpha on every call, so no VRF row is timed on a
// repeated input: vrf_output and vrf_prove remember each thread's last draw.
class AlphaStream {
 public:
  BytesView next() {
    ++counter_;
    for (std::size_t i = 0; i < 8; ++i) alpha_[i] = static_cast<std::uint8_t>(counter_ >> (8 * i));
    return alpha_;
  }

 private:
  Bytes alpha_ = make_payload(40);
  std::uint64_t counter_ = 0;
};

void BM_FeInvert(benchmark::State& state) {
  const Fe25519 x = Fe25519::from_bytes(make_payload(32));
  for (auto _ : state) {
    benchmark::DoNotOptimize(x.invert());
  }
}
BENCHMARK(BM_FeInvert);

void BM_ScalarReduce512(benchmark::State& state) {
  const Bytes wide = make_payload(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Scalar::reduce(wide));
  }
}
BENCHMARK(BM_ScalarReduce512);

void BM_GeScalarMulBase(benchmark::State& state) {
  const auto k = make_scalar();
  ge_scalar_mul_base(k);  // builds the fixed-base table outside the timing
  for (auto _ : state) {
    benchmark::DoNotOptimize(ge_scalar_mul_base(k));
  }
}
BENCHMARK(BM_GeScalarMulBase);

void BM_GeScalarMulVariable(benchmark::State& state) {
  const auto k = make_scalar();
  const Ge25519 p = ge_scalar_mul_base(make_scalar());
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.scalar_mul(k));
  }
}
BENCHMARK(BM_GeScalarMulVariable);

// to_bytes_batch over n projective points: one inversion for the batch.
void BM_GeEncodeBatch(benchmark::State& state) {
  std::vector<Ge25519> points;
  Ge25519 p = ge_scalar_mul_base(make_scalar());
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    points.push_back(p.dbl());  // distinct points, none with Z = 1
    p = p.add(Ge25519::base_point());
  }
  std::vector<std::array<std::uint8_t, 32>> out(points.size());
  for (auto _ : state) {
    Ge25519::to_bytes_batch(points, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_GeEncodeBatch)->Arg(1)->Arg(2)->Arg(5);

void BM_Ed25519KeyGen(benchmark::State& state) {
  const Bytes seed = make_payload(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_keypair_from_seed(seed));
  }
}
BENCHMARK(BM_Ed25519KeyGen);

void BM_Ed25519Sign(benchmark::State& state) {
  const auto kp = ed25519_keypair_from_seed(make_payload(32));
  const Bytes msg = make_payload(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_sign(kp, msg));
  }
}
BENCHMARK(BM_Ed25519Sign);

void BM_Ed25519Verify(benchmark::State& state) {
  const auto kp = ed25519_keypair_from_seed(make_payload(32));
  const Bytes msg = make_payload(256);
  const auto sig = ed25519_sign(kp, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_verify(kp.public_key, msg, sig));
  }
}
BENCHMARK(BM_Ed25519Verify);

void BM_VrfProve(benchmark::State& state) {
  const auto kp = ed25519_keypair_from_seed(make_payload(32));
  AlphaStream alphas;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vrf_prove(kp, alphas.next()));
  }
}
BENCHMARK(BM_VrfProve);

void BM_SignerVrfOutput(benchmark::State& state) {
  const auto provider = make_real_crypto();
  const auto signer = provider->make_signer(make_payload(32));
  AlphaStream alphas;
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer->vrf_output(alphas.next()));
  }
}
BENCHMARK(BM_SignerVrfOutput);

// One sampler draw: the output, then the proof of the same alpha.
void BM_SignerVrfDraw(benchmark::State& state) {
  const auto provider = make_real_crypto();
  const auto signer = provider->make_signer(make_payload(32));
  AlphaStream alphas;
  for (auto _ : state) {
    const BytesView alpha = alphas.next();
    benchmark::DoNotOptimize(signer->vrf_output(alpha));
    benchmark::DoNotOptimize(signer->vrf_prove(alpha));
  }
}
BENCHMARK(BM_SignerVrfDraw);

void BM_VrfVerify(benchmark::State& state) {
  const auto kp = ed25519_keypair_from_seed(make_payload(32));
  AlphaStream alphas;
  std::vector<std::pair<Bytes, VrfProof>> inputs;
  for (int i = 0; i < 64; ++i) {
    const BytesView alpha = alphas.next();
    inputs.emplace_back(Bytes(alpha.begin(), alpha.end()), vrf_prove(kp, alpha));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [alpha, proof] = inputs[i++ % inputs.size()];
    benchmark::DoNotOptimize(vrf_verify(kp.public_key, alpha, proof));
  }
}
BENCHMARK(BM_VrfVerify);

// Hot-key rows: the same verifications through the real provider, whose key
// cache holds the key's decoded point and 8-row comb table after its second
// use (the free-function rows above are the cold-key cost).
void BM_ProviderVerifyHotKey(benchmark::State& state) {
  const auto provider = make_real_crypto();
  const auto kp = ed25519_keypair_from_seed(make_payload(32));
  const Bytes msg = make_payload(256);
  const auto sig = ed25519_sign(kp, msg);
  for (int i = 0; i < 2; ++i) provider->verify(kp.public_key, msg, sig);  // builds the table
  for (auto _ : state) {
    benchmark::DoNotOptimize(provider->verify(kp.public_key, msg, sig));
  }
}
BENCHMARK(BM_ProviderVerifyHotKey);

void BM_ProviderVrfVerifyHotKey(benchmark::State& state) {
  const auto provider = make_real_crypto();
  const auto kp = ed25519_keypair_from_seed(make_payload(32));
  AlphaStream alphas;
  std::vector<std::pair<Bytes, VrfProof>> inputs;
  for (int i = 0; i < 64; ++i) {
    const BytesView alpha = alphas.next();
    inputs.emplace_back(Bytes(alpha.begin(), alpha.end()), vrf_prove(kp, alpha));
  }
  const auto& [alpha0, proof0] = inputs[0];
  for (int i = 0; i < 2; ++i) provider->vrf_verify(kp.public_key, alpha0, proof0);  // builds the table
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [alpha, proof] = inputs[i++ % inputs.size()];
    benchmark::DoNotOptimize(provider->vrf_verify(kp.public_key, alpha, proof));
  }
}
BENCHMARK(BM_ProviderVrfVerifyHotKey);

// A key seen once through the provider: round-robin over four times as many
// keys as the cache holds, so each lookup misses (the key was evicted or
// never admitted since its last use) and pays the cache's first-use path
// on top of the decode and verification BM_Ed25519Verify times.
void BM_ProviderVerifyColdKey(benchmark::State& state) {
  const auto provider = make_real_crypto();
  const Bytes msg = make_payload(256);
  struct Input {
    PublicKeyBytes pk;
    Bytes sig;
  };
  std::vector<Input> inputs;
  for (std::size_t i = 0; i < 4 * detail::kKeyCacheCapacity; ++i) {
    Bytes seed = make_payload(32);
    seed[0] = static_cast<std::uint8_t>(i);
    seed[1] = static_cast<std::uint8_t>(i >> 8);
    const auto kp = ed25519_keypair_from_seed(seed);
    const auto sig = ed25519_sign(kp, msg);
    inputs.push_back(Input{kp.public_key, Bytes(sig.begin(), sig.end())});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const Input& in = inputs[i++ % inputs.size()];
    benchmark::DoNotOptimize(provider->verify(in.pk, msg, in.sig));
  }
}
BENCHMARK(BM_ProviderVerifyColdKey);

// What a key's second use pays once: its 8-row comb table (64 points, one
// inversion).
void BM_KeyTableBuild(benchmark::State& state) {
  const Ge25519 p = ge_scalar_mul_base(make_scalar());
  for (auto _ : state) {
    benchmark::DoNotOptimize(GeComb<8>(p));
  }
}
BENCHMARK(BM_KeyTableBuild);

void BM_FastBackendVrf(benchmark::State& state) {
  const auto provider = make_fast_crypto();
  const auto signer = provider->make_signer(make_payload(32));
  AlphaStream alphas;
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer->vrf_output(alphas.next()));
  }
}
BENCHMARK(BM_FastBackendVrf);

// One sampler draw on the fast backend: the output, then the proof of the
// same alpha, one keyed hash between them (the signer's draw memo).
void BM_FastSignerVrfDraw(benchmark::State& state) {
  const auto provider = make_fast_crypto();
  const auto signer = provider->make_signer(make_payload(32));
  AlphaStream alphas;
  for (auto _ : state) {
    const BytesView alpha = alphas.next();
    benchmark::DoNotOptimize(signer->vrf_output(alpha));
    benchmark::DoNotOptimize(signer->vrf_prove(alpha));
  }
}
BENCHMARK(BM_FastSignerVrfDraw);

}  // namespace

BENCHMARK_MAIN();
