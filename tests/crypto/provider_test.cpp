// CryptoProvider contract tests, parameterized over both backends so the
// protocol layer can rely on identical semantics.
#include <gtest/gtest.h>

#include "accountnet/crypto/provider.hpp"
#include "accountnet/crypto/sha256.hpp"
#include "accountnet/crypto/sha512.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::crypto {
namespace {

enum class Backend { kReal, kFast };

std::unique_ptr<CryptoProvider> make(Backend b) {
  return b == Backend::kReal ? make_real_crypto() : make_fast_crypto();
}

Bytes seed_bytes(std::uint64_t v) {
  Rng rng(v);
  Bytes seed(32);
  for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
  return seed;
}

class ProviderContract : public ::testing::TestWithParam<Backend> {
 protected:
  std::unique_ptr<CryptoProvider> provider_ = make(GetParam());
};

TEST_P(ProviderContract, SignVerifyRoundTrip) {
  const auto signer = provider_->make_signer(seed_bytes(1));
  const Bytes msg = bytes_of("hello witness");
  const Bytes sig = signer->sign(msg);
  EXPECT_TRUE(provider_->verify(signer->public_key(), msg, sig));
}

TEST_P(ProviderContract, TamperedMessageFailsVerify) {
  const auto signer = provider_->make_signer(seed_bytes(2));
  const Bytes sig = signer->sign(bytes_of("a"));
  EXPECT_FALSE(provider_->verify(signer->public_key(), bytes_of("b"), sig));
}

TEST_P(ProviderContract, TamperedSignatureFailsVerify) {
  const auto signer = provider_->make_signer(seed_bytes(3));
  const Bytes msg = bytes_of("msg");
  Bytes sig = signer->sign(msg);
  sig[0] ^= 1;
  EXPECT_FALSE(provider_->verify(signer->public_key(), msg, sig));
}

TEST_P(ProviderContract, DeterministicKeyDerivation) {
  const auto a = provider_->make_signer(seed_bytes(4));
  const auto b = provider_->make_signer(seed_bytes(4));
  EXPECT_EQ(a->public_key(), b->public_key());
  const auto c = provider_->make_signer(seed_bytes(5));
  EXPECT_NE(a->public_key(), c->public_key());
}

TEST_P(ProviderContract, VrfProveVerifyRoundTrip) {
  const auto signer = provider_->make_signer(seed_bytes(6));
  const Bytes alpha = bytes_of("round-7");
  const Bytes proof = signer->vrf_prove(alpha);
  const auto beta = provider_->vrf_verify(signer->public_key(), alpha, proof);
  ASSERT_TRUE(beta.has_value());
  EXPECT_EQ(*beta, signer->vrf_output(alpha));
}

TEST_P(ProviderContract, VrfWrongAlphaFails) {
  const auto signer = provider_->make_signer(seed_bytes(7));
  const Bytes proof = signer->vrf_prove(bytes_of("x"));
  EXPECT_FALSE(provider_->vrf_verify(signer->public_key(), bytes_of("y"), proof));
}

TEST_P(ProviderContract, VrfTamperedProofFails) {
  const auto signer = provider_->make_signer(seed_bytes(8));
  const Bytes alpha = bytes_of("alpha");
  Bytes proof = signer->vrf_prove(alpha);
  proof[proof.size() / 2] ^= 0x10;
  EXPECT_FALSE(provider_->vrf_verify(signer->public_key(), alpha, proof));
}

TEST_P(ProviderContract, VrfOutputsDifferAcrossKeysAndInputs) {
  const auto s1 = provider_->make_signer(seed_bytes(9));
  const auto s2 = provider_->make_signer(seed_bytes(10));
  EXPECT_NE(s1->vrf_output(bytes_of("a")), s2->vrf_output(bytes_of("a")));
  EXPECT_NE(s1->vrf_output(bytes_of("a")), s1->vrf_output(bytes_of("b")));
}

TEST_P(ProviderContract, HasName) {
  EXPECT_NE(provider_->name(), nullptr);
  EXPECT_GT(std::string(provider_->name()).size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ProviderContract,
                         ::testing::Values(Backend::kReal, Backend::kFast),
                         [](const auto& info) {
                           return info.param == Backend::kReal ? "real" : "fast";
                         });

// The fast backend's stand-ins are fixed keyed hashes of tag || key || input;
// pinned here against the hashes computed over one concatenated buffer.
TEST(FastCryptoKnownAnswer, KeyedHashesOfConcatenatedInputs) {
  const auto provider = make_fast_crypto();
  const Bytes seed = seed_bytes(9);
  const auto signer = provider->make_signer(seed);
  const PublicKeyBytes pk = Sha256::hash(concat(bytes_of("fastpk"), seed));
  EXPECT_EQ(signer->public_key(), pk);

  for (const std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{23},
                                std::size_t{24}, std::size_t{64}, std::size_t{300}}) {
    Bytes msg(len);
    for (std::size_t i = 0; i < len; ++i) msg[i] = static_cast<std::uint8_t>(i * 7 + 1);
    const auto sig = Sha256::hash(concat(bytes_of("fastsig"), pk, msg));
    EXPECT_EQ(signer->sign(msg), Bytes(sig.begin(), sig.end())) << "len " << len;
    EXPECT_TRUE(provider->verify(pk, msg, signer->sign(msg)));

    const auto beta = Sha512::hash(concat(bytes_of("fastvrf"), pk, msg));
    EXPECT_EQ(signer->vrf_output(msg), beta) << "len " << len;
    EXPECT_EQ(signer->vrf_prove(msg), Bytes(beta.begin(), beta.end()));
    EXPECT_EQ(provider->vrf_verify(pk, msg, signer->vrf_prove(msg)), beta);
  }
}

}  // namespace
}  // namespace accountnet::crypto
