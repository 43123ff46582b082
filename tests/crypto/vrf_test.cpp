// ECVRF tests: the RFC 9381 Appendix B.3 vectors, the Gamma-only output
// path, and the behavioural contract AccountNet depends on (determinism,
// verifiability, uniqueness, tampering).
#include <gtest/gtest.h>

#include <set>

#include "accountnet/crypto/ge25519.hpp"
#include "accountnet/crypto/provider.hpp"
#include "accountnet/crypto/sc25519.hpp"
#include "accountnet/crypto/sha512.hpp"
#include "accountnet/crypto/vrf.hpp"
#include "accountnet/util/rng.hpp"
#include "vrf_forgery.hpp"

namespace accountnet::crypto {
namespace {

using test::forge_identity_key_proof;

Bytes keypair_seed(std::uint64_t seed_val) {
  Rng rng(seed_val);
  Bytes seed(32);
  for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
  return seed;
}

Ed25519KeyPair keypair(std::uint64_t seed_val) {
  return ed25519_keypair_from_seed(keypair_seed(seed_val));
}

// RFC 9381 Appendix B.3, ECVRF-EDWARDS25519-SHA512-TAI Example 16.
TEST(Vrf, Rfc9381Example16) {
  const auto kp = ed25519_keypair_from_seed(
      from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  const Bytes alpha;
  const auto proof = vrf_prove(kp, alpha);
  EXPECT_EQ(to_hex(proof),
            "8657106690b5526245a92b003bb079ccd1a92130477671f6fc01ad16f26f723f"
            "26f8a57ccaed74ee1b190bed1f479d97"
            "27d2d0f9b005a6e456a35d4fb0daab1268a1b0db10836d9826a528ca76567805");
  const char* beta =
      "90cf1df3b703cce59e2a35b925d411164068269d7b2d29f3301c03dd757876ff"
      "66b71dda49d2de59d03450451af026798e8f81cd2e333de5cdf4f3e140fdd8ae";
  EXPECT_EQ(to_hex(vrf_proof_to_hash(proof)), beta);
  EXPECT_EQ(to_hex(vrf_output(kp, alpha)), beta);
  const auto verified = vrf_verify(kp.public_key, alpha, proof);
  ASSERT_TRUE(verified.has_value());
  EXPECT_EQ(to_hex(*verified), beta);
}

// RFC 9381 Appendix B.3 Example 17 (alpha = 0x72): the output beta.
TEST(Vrf, Rfc9381Example17Beta) {
  const auto kp = ed25519_keypair_from_seed(
      from_hex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"));
  const Bytes alpha = from_hex("72");
  const char* beta =
      "eb4440665d3891d668e7e0fcaf587f1b4bd7fbfe99d0eb2211ccec90496310eb"
      "5e33821bc613efb94db5e5b54c70a848a0bef4553a41befc57663b56373a5031";
  EXPECT_EQ(to_hex(vrf_output(kp, alpha)), beta);
  const auto verified = vrf_verify(kp.public_key, alpha, vrf_prove(kp, alpha));
  ASSERT_TRUE(verified.has_value());
  EXPECT_EQ(to_hex(*verified), beta);
}

// The Gamma-only output path agrees with hashing a full proof, for many
// keys and alphas of every length from empty up.
TEST(Vrf, OutputEqualsProofToHashAcrossKeysAndAlphas) {
  Rng rng(0x5eed);
  for (std::uint64_t key = 0; key < 20; ++key) {
    const auto kp = keypair(1000 + key);
    for (std::size_t len = 0; len < 10; ++len) {
      Bytes alpha(len * 7);
      for (auto& b : alpha) b = static_cast<std::uint8_t>(rng.next_u64());
      EXPECT_EQ(vrf_output(kp, alpha), vrf_proof_to_hash(vrf_prove(kp, alpha)))
          << "key " << key << " alpha length " << alpha.size();
    }
  }
}

TEST(Vrf, ProveVerifyRoundTrip) {
  const auto kp = keypair(1);
  const Bytes alpha = bytes_of("round 42");
  const auto proof = vrf_prove(kp, alpha);
  const auto beta = vrf_verify(kp.public_key, alpha, proof);
  ASSERT_TRUE(beta.has_value());
  EXPECT_EQ(*beta, vrf_proof_to_hash(proof));
}

TEST(Vrf, OutputMatchesVerifiedBeta) {
  const auto kp = keypair(2);
  const Bytes alpha = bytes_of("input");
  const auto proof = vrf_prove(kp, alpha);
  const auto beta = vrf_verify(kp.public_key, alpha, proof);
  ASSERT_TRUE(beta.has_value());
  // The signer-side output (no proof) must agree with the verifier-derived
  // one: the "uniqueness" property AccountNet's select() relies on.
  EXPECT_EQ(vrf_output(kp, alpha), *beta);
  EXPECT_EQ(make_real_crypto()->make_signer(keypair_seed(2))->vrf_output(alpha), *beta);
}

TEST(Vrf, DeterministicProofs) {
  const auto kp = keypair(3);
  const Bytes alpha = bytes_of("same alpha");
  EXPECT_EQ(vrf_prove(kp, alpha), vrf_prove(kp, alpha));
}

TEST(Vrf, DistinctAlphasGiveDistinctOutputs) {
  const auto kp = keypair(4);
  std::set<Bytes> betas;
  for (int i = 0; i < 20; ++i) {
    const Bytes alpha = bytes_of("alpha " + std::to_string(i));
    const auto proof = vrf_prove(kp, alpha);
    const auto beta = vrf_proof_to_hash(proof);
    betas.insert(Bytes(beta.begin(), beta.end()));
  }
  EXPECT_EQ(betas.size(), 20u);
}

TEST(Vrf, DistinctKeysGiveDistinctOutputs) {
  const Bytes alpha = bytes_of("shared alpha");
  std::set<Bytes> betas;
  for (int i = 0; i < 10; ++i) {
    const auto kp = keypair(100 + static_cast<std::uint64_t>(i));
    const auto beta = vrf_proof_to_hash(vrf_prove(kp, alpha));
    betas.insert(Bytes(beta.begin(), beta.end()));
  }
  EXPECT_EQ(betas.size(), 10u);
}

TEST(Vrf, TamperedProofRejected) {
  const auto kp = keypair(5);
  const Bytes alpha = bytes_of("input");
  const auto proof = vrf_prove(kp, alpha);
  // Flip one bit in each of the three proof components.
  for (std::size_t pos : {0u, 35u, 60u}) {
    auto bad = proof;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(vrf_verify(kp.public_key, alpha, bad).has_value()) << "pos " << pos;
  }
}

TEST(Vrf, WrongAlphaRejected) {
  const auto kp = keypair(6);
  const auto proof = vrf_prove(kp, bytes_of("alpha"));
  EXPECT_FALSE(vrf_verify(kp.public_key, bytes_of("beta"), proof).has_value());
}

TEST(Vrf, WrongKeyRejected) {
  const auto kp1 = keypair(7);
  const auto kp2 = keypair(8);
  const Bytes alpha = bytes_of("alpha");
  const auto proof = vrf_prove(kp1, alpha);
  EXPECT_FALSE(vrf_verify(kp2.public_key, alpha, proof).has_value());
}

TEST(Vrf, MalformedInputsRejected) {
  const auto kp = keypair(9);
  const Bytes alpha = bytes_of("alpha");
  EXPECT_FALSE(vrf_verify(kp.public_key, alpha, Bytes(79, 0)).has_value());
  EXPECT_FALSE(vrf_verify(kp.public_key, alpha, Bytes(81, 0)).has_value());
  EXPECT_FALSE(vrf_verify(Bytes(31, 0), alpha, Bytes(80, 0)).has_value());
}

// RFC 9381 §5.4.5 ECVRF_validate_key rejects Y when 8*Y is the identity,
// and strict decoding rejects y >= p, so neither the identity key nor its
// former second encoding y = p + 1 takes a forged proof. Keys of order 2, 4
// and 8 are rejected the same way, before the proof is looked at.
TEST(Vrf, SmallOrderPublicKeyRejected) {
  const Bytes alpha = bytes_of("forged");
  for (const char* identity : {
           "0100000000000000000000000000000000000000000000000000000000000000",
           "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // y = p + 1
       }) {
    const Bytes pk = from_hex(identity);
    const Bytes forged = forge_identity_key_proof(pk, alpha);
    ASSERT_EQ(forged.size(), kVrfProofSize);
    EXPECT_FALSE(vrf_verify(pk, alpha, forged).has_value()) << identity;
  }

  const auto kp = keypair(12);
  const auto honest = vrf_prove(kp, alpha);
  ASSERT_TRUE(vrf_verify(kp.public_key, alpha, honest).has_value());
  for (const char* small_order : {
           "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // order 2
           "0000000000000000000000000000000000000000000000000000000000000000",  // order 4
           "0000000000000000000000000000000000000000000000000000000000000080",  // order 4
           "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // y = p
           "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",  // order 8
       }) {
    const Bytes pk = from_hex(small_order);
    EXPECT_FALSE(vrf_verify(pk, alpha, forge_identity_key_proof(pk, alpha)).has_value())
        << small_order;
    EXPECT_FALSE(vrf_verify(pk, alpha, honest).has_value()) << small_order;
  }
}

TEST(Vrf, OutputsLookUniform) {
  // Cheap sanity check on pseudorandomness: first-byte histogram of many
  // outputs should not be wildly skewed.
  const auto kp = keypair(10);
  int counts[4] = {0, 0, 0, 0};
  const int n = 128;
  for (int i = 0; i < n; ++i) {
    const auto beta = vrf_proof_to_hash(vrf_prove(kp, bytes_of("x" + std::to_string(i))));
    ++counts[beta[0] >> 6];
  }
  for (int c : counts) {
    EXPECT_GT(c, n / 4 - 24);
    EXPECT_LT(c, n / 4 + 24);
  }
}

TEST(Vrf, EmptyAlphaSupported) {
  const auto kp = keypair(11);
  const auto proof = vrf_prove(kp, Bytes{});
  EXPECT_TRUE(vrf_verify(kp.public_key, Bytes{}, proof).has_value());
}

}  // namespace
}  // namespace accountnet::crypto
