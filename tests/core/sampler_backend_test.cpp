// SamplerBackend contract tests, parameterized over every backend and both
// crypto providers: determinism, prover/verifier replay agreement, biased
// claims detected, forged proofs failing closed through the
// VerificationEngine path, and the bounded-work cap (the kMaxDrawAttempts
// audit — every backend must refuse oversized proof lists before crypto).
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "accountnet/core/sampler.hpp"
#include "accountnet/core/verification_engine.hpp"
#include "accountnet/crypto/provider.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::core {
namespace {

PeerId pid(const std::string& addr) {
  PeerId p;
  p.addr = addr;
  return p;
}

Peerset make_candidates(std::size_t n) {
  std::vector<PeerId> peers;
  for (std::size_t i = 0; i < n; ++i) peers.push_back(pid("c" + std::to_string(100 + i)));
  return Peerset(std::move(peers));
}

Bytes seed_bytes(std::uint64_t salt) {
  Bytes seed(32);
  Rng rng(salt);
  for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
  return seed;
}

constexpr std::string_view kDomain = "an.sample";
const Bytes kNonce{0x01, 0x02, 0x03, 0x04};

// (backend kind, use real crypto)
class SamplerBackendTest
    : public ::testing::TestWithParam<std::tuple<SamplerKind, bool>> {
 protected:
  SamplerBackendTest()
      : provider_(std::get<1>(GetParam()) ? crypto::make_real_crypto()
                                          : crypto::make_fast_crypto()),
        backend_(sampler_backend(std::get<0>(GetParam()))),
        signer_(provider_->make_signer(seed_bytes(42))) {}

  std::unique_ptr<crypto::CryptoProvider> provider_;
  const SamplerBackend& backend_;
  std::unique_ptr<crypto::Signer> signer_;
};

TEST_P(SamplerBackendTest, CapabilitiesMatchRegistry) {
  const auto& caps = backend_.capabilities();
  EXPECT_EQ(caps.kind, std::get<0>(GetParam()));
  EXPECT_STREQ(caps.name, sampler_kind_name(caps.kind));
  EXPECT_EQ(sampler_kind_from(caps.name), caps.kind);
  EXPECT_GT(caps.max_proofs, 0u);
  EXPECT_LE(caps.max_proofs, kMaxDrawAttempts);  // no backend may exceed Alg. 1's cap
  EXPECT_EQ(caps.interaction_rounds, 0u);        // all current backends piggyback
}

TEST_P(SamplerBackendTest, DrawIsDeterministicAndWellFormed) {
  const Peerset candidates = make_candidates(12);
  const Draw a = backend_.draw(*signer_, candidates, 5, kDomain, kNonce);
  const Draw b = backend_.draw(*signer_, candidates, 5, kDomain, kNonce);
  EXPECT_EQ(a.sample, b.sample);
  EXPECT_EQ(a.proofs, b.proofs);

  EXPECT_EQ(a.sample.size(), 5u);
  for (std::size_t i = 0; i < a.sample.size(); ++i) {
    EXPECT_TRUE(candidates.contains(a.sample[i]));
    for (std::size_t j = i + 1; j < a.sample.size(); ++j) {
      EXPECT_NE(a.sample[i], a.sample[j]) << "duplicate pick";
    }
  }

  // A different signer seed must not reproduce the same proof stream.
  const auto other = provider_->make_signer(seed_bytes(43));
  const Draw c = backend_.draw(*other, candidates, 5, kDomain, kNonce);
  EXPECT_NE(a.proofs, c.proofs);
}

TEST_P(SamplerBackendTest, VerifierReplayAgreesWithProver) {
  const Peerset candidates = make_candidates(12);
  const Draw d = backend_.draw(*signer_, candidates, 5, kDomain, kNonce);
  EXPECT_TRUE(backend_.verify(*provider_, signer_->public_key(), candidates, 5, kDomain,
                              kNonce, d.proofs, d.sample));
}

TEST_P(SamplerBackendTest, BiasedClaimDetectedKeepingProofs) {
  // bias_sample's shape regardless of backend: the adversary keeps the honest
  // proof stream but swaps a claimed pick for a colluder. Replay must catch it.
  const Peerset candidates = make_candidates(12);
  const Draw d = backend_.draw(*signer_, candidates, 5, kDomain, kNonce);

  std::vector<PeerId> biased = d.sample;
  for (const PeerId& cand : candidates.sorted()) {
    if (std::find(biased.begin(), biased.end(), cand) == biased.end()) {
      biased.back() = cand;
      break;
    }
  }
  ASSERT_NE(biased, d.sample);
  const auto r = backend_.verify(*provider_, signer_->public_key(), candidates, 5,
                                 kDomain, kNonce, d.proofs, biased);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.code, VerifyError::kSampleMismatch);
}

TEST_P(SamplerBackendTest, ForgedProofFailsClosedThroughEngineColdAndWarm) {
  const Peerset candidates = make_candidates(12);
  const Draw d = backend_.draw(*signer_, candidates, 5, kDomain, kNonce);

  VerificationEngine engine(*provider_);
  // Honest draw passes through the engine path.
  EXPECT_TRUE(backend_.verify(engine, signer_->public_key(), candidates, 5, kDomain,
                              kNonce, d.proofs, d.sample));

  std::vector<Bytes> forged = d.proofs;
  ASSERT_FALSE(forged.empty());
  forged.front().front() ^= 0x01;
  const auto cold = backend_.verify(engine, signer_->public_key(), candidates, 5,
                                    kDomain, kNonce, forged, d.sample);
  EXPECT_FALSE(cold);
  EXPECT_EQ(cold.code, VerifyError::kInvalidVrfProof);
  // A repeated pass must not flip the verdict.
  const auto warm = backend_.verify(engine, signer_->public_key(), candidates, 5,
                                    kDomain, kNonce, forged, d.sample);
  EXPECT_FALSE(warm);
  EXPECT_EQ(warm.code, cold.code);
}

TEST_P(SamplerBackendTest, OversizedProofListRefusedAtCap) {
  // The kMaxDrawAttempts audit: a prover cannot demand unbounded replay work.
  // One proof past capabilities().max_proofs must fail closed before any
  // crypto — the proofs here are garbage and would throw otherwise distract.
  const Peerset candidates = make_candidates(12);
  const std::vector<Bytes> oversized(backend_.capabilities().max_proofs + 1,
                                     Bytes(8, 0xEE));
  const auto r = backend_.verify(*provider_, signer_->public_key(), candidates, 5,
                                 kDomain, kNonce, oversized, {});
  EXPECT_FALSE(r);
  EXPECT_EQ(r.code, VerifyError::kTooManyDrawProofs);
}

TEST_P(SamplerBackendTest, ProverNeverExceedsCap) {
  // Even when asked for more picks than the candidate list can yield, the
  // prover's own proof stream stays within the advertised cap.
  const Peerset candidates = make_candidates(3);
  const Draw d = backend_.draw(*signer_, candidates, 1000, kDomain, kNonce);
  EXPECT_LE(d.proofs.size(), backend_.capabilities().max_proofs);
  EXPECT_LE(d.sample.size(), 3u);
  // And the verifier accepts its own prover's at-the-edge output.
  EXPECT_TRUE(backend_.verify(*provider_, signer_->public_key(), candidates, 1000,
                              kDomain, kNonce, d.proofs, d.sample));
}

TEST_P(SamplerBackendTest, EmptyCandidatesFailClosed) {
  const Peerset empty;
  const Draw d = backend_.draw(*signer_, empty, 3, kDomain, kNonce);
  EXPECT_TRUE(d.sample.empty());
  // A claim against an empty candidate list cannot verify.
  const auto r = backend_.verify(*provider_, signer_->public_key(), empty, 3, kDomain,
                                 kNonce, {Bytes{0x01}}, {pid("ghost")});
  EXPECT_FALSE(r);
}

TEST_P(SamplerBackendTest, DrawOneRoundTrips) {
  const Peerset candidates = make_candidates(9);
  const auto d = backend_.draw_one(*signer_, candidates, "an.partner", kNonce);
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->sample.size(), 1u);
  EXPECT_TRUE(candidates.contains(d->sample.front()));
  EXPECT_TRUE(backend_.verify_one(*provider_, signer_->public_key(), candidates,
                                  "an.partner", kNonce, d->proofs, d->sample.front()));
}

// Proof streams are domain-separated per backend: a stream drawn under one
// backend must not verify under another (same candidates, nonce, claim).
TEST_P(SamplerBackendTest, ProofsDoNotCrossVerifyBetweenBackends) {
  const Peerset candidates = make_candidates(12);
  const Draw d = backend_.draw(*signer_, candidates, 4, kDomain, kNonce);
  for (const SamplerKind other :
       {SamplerKind::kVrf, SamplerKind::kPeerSwap, SamplerKind::kHoneybee}) {
    if (other == std::get<0>(GetParam())) continue;
    EXPECT_FALSE(sampler_backend(other).verify(*provider_, signer_->public_key(),
                                               candidates, 4, kDomain, kNonce, d.proofs,
                                               d.sample))
        << "proofs for " << backend_.capabilities().name << " verified under "
        << sampler_kind_name(other);
  }
}

std::string param_name(
    const ::testing::TestParamInfo<std::tuple<SamplerKind, bool>>& info) {
  return std::string(sampler_kind_name(std::get<0>(info.param))) +
         (std::get<1>(info.param) ? "_real" : "_fast");
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SamplerBackendTest,
    ::testing::Combine(::testing::Values(SamplerKind::kVrf, SamplerKind::kPeerSwap,
                                         SamplerKind::kHoneybee),
                       ::testing::Bool()),
    param_name);

}  // namespace
}  // namespace accountnet::core
