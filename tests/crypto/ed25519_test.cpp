// RFC 8032 §7.1 known-answer vectors plus behavioural checks.
#include <gtest/gtest.h>

#include "accountnet/crypto/ed25519.hpp"
#include "accountnet/crypto/ge25519.hpp"
#include "accountnet/crypto/sc25519.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::crypto {
namespace {

struct Rfc8032Vector {
  const char* name;
  const char* seed;
  const char* public_key;
  const char* message;
  const char* signature;
};

// Prints the vector by name. gtest's default dumps the struct's raw bytes —
// five string pointers — which would put load addresses in the test names.
void PrintTo(const Rfc8032Vector& v, std::ostream* os) { *os << v.name; }

const Rfc8032Vector kVectors[] = {
    {"TEST1_empty",
     "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    {"TEST2_one_byte",
     "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
    {"TEST3_two_bytes",
     "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025", "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
};

class Ed25519Vectors : public ::testing::TestWithParam<Rfc8032Vector> {};

TEST_P(Ed25519Vectors, PublicKeyDerivation) {
  const auto& v = GetParam();
  const auto kp = ed25519_keypair_from_seed(from_hex(v.seed));
  EXPECT_EQ(to_hex(kp.public_key), v.public_key);
}

TEST_P(Ed25519Vectors, SignatureMatches) {
  const auto& v = GetParam();
  const auto kp = ed25519_keypair_from_seed(from_hex(v.seed));
  const auto sig = ed25519_sign(kp, from_hex(v.message));
  EXPECT_EQ(to_hex(sig), v.signature);
}

TEST_P(Ed25519Vectors, SignatureVerifies) {
  const auto& v = GetParam();
  EXPECT_TRUE(
      ed25519_verify(from_hex(v.public_key), from_hex(v.message), from_hex(v.signature)));
}

INSTANTIATE_TEST_SUITE_P(Rfc8032, Ed25519Vectors, ::testing::ValuesIn(kVectors),
                         [](const auto& info) { return std::string(info.param.name); });

Bytes random_seed(Rng& rng) {
  Bytes seed(32);
  for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
  return seed;
}

TEST(Ed25519, SignVerifyRoundTripRandomKeys) {
  Rng rng(401);
  for (int i = 0; i < 10; ++i) {
    const auto kp = ed25519_keypair_from_seed(random_seed(rng));
    const Bytes msg = bytes_of("message " + std::to_string(i));
    const auto sig = ed25519_sign(kp, msg);
    EXPECT_TRUE(ed25519_verify(kp.public_key, msg, sig));
  }
}

TEST(Ed25519, TamperedMessageRejected) {
  Rng rng(402);
  const auto kp = ed25519_keypair_from_seed(random_seed(rng));
  const Bytes msg = bytes_of("original");
  const auto sig = ed25519_sign(kp, msg);
  EXPECT_FALSE(ed25519_verify(kp.public_key, bytes_of("originaX"), sig));
}

TEST(Ed25519, TamperedSignatureRejected) {
  Rng rng(403);
  const auto kp = ed25519_keypair_from_seed(random_seed(rng));
  const Bytes msg = bytes_of("payload");
  auto sig = ed25519_sign(kp, msg);
  for (std::size_t bit : {0u, 255u, 256u, 511u}) {
    auto bad = sig;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(ed25519_verify(kp.public_key, msg, Bytes(bad.begin(), bad.end())))
        << "bit " << bit;
  }
}

TEST(Ed25519, WrongKeyRejected) {
  Rng rng(404);
  const auto kp1 = ed25519_keypair_from_seed(random_seed(rng));
  const auto kp2 = ed25519_keypair_from_seed(random_seed(rng));
  const Bytes msg = bytes_of("payload");
  const auto sig = ed25519_sign(kp1, msg);
  EXPECT_FALSE(ed25519_verify(kp2.public_key, msg, sig));
}

TEST(Ed25519, NonCanonicalSRejected) {
  // S >= L must be rejected (malleability guard).
  Rng rng(405);
  const auto kp = ed25519_keypair_from_seed(random_seed(rng));
  const Bytes msg = bytes_of("payload");
  auto sig = ed25519_sign(kp, msg);
  Bytes bad(sig.begin(), sig.end());
  for (std::size_t i = 32; i < 64; ++i) bad[i] = 0xff;  // way above L
  EXPECT_FALSE(ed25519_verify(kp.public_key, msg, bad));
}

// y = p + 1 used to decode to the identity, a second encoding of it. Under
// A = identity, R = r*B with S = r satisfies S*B == R + k*A for every
// message, so that encoding must not decode (RFC 8032 §5.1.3: y >= p fails).
TEST(Ed25519, NonCanonicalPublicKeyRejected) {
  const Bytes a = from_hex("eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  const Scalar r = Scalar::from_u64(987654321);
  Bytes sig;
  append(sig, ge_scalar_mul_base(r.bytes()).to_bytes());
  append(sig, r.bytes());
  EXPECT_FALSE(ed25519_verify(a, bytes_of("any message"), sig));
}

TEST(Ed25519, MalformedInputsRejected) {
  Rng rng(406);
  const auto kp = ed25519_keypair_from_seed(random_seed(rng));
  const Bytes msg = bytes_of("payload");
  const auto sig = ed25519_sign(kp, msg);
  EXPECT_FALSE(ed25519_verify(Bytes(31, 0), msg, sig));
  EXPECT_FALSE(ed25519_verify(kp.public_key, msg, Bytes(63, 0)));
  EXPECT_FALSE(ed25519_verify(kp.public_key, msg, Bytes{}));
}

TEST(Ed25519, DeterministicSignatures) {
  Rng rng(407);
  const auto kp = ed25519_keypair_from_seed(random_seed(rng));
  const Bytes msg = bytes_of("same message");
  EXPECT_EQ(ed25519_sign(kp, msg), ed25519_sign(kp, msg));
}

}  // namespace
}  // namespace accountnet::crypto
