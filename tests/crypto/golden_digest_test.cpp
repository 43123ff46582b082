// Bit-identity pin for the real crypto stack. A seeded loop runs keygen,
// sign, VRF prove/output, verify and vrf_verify (tampered inputs included),
// plus raw point decompression, variable-base scalar multiplication and
// 512-bit scalar reduction, and folds every output byte and verdict into one
// SHA-256. The digest was taken from the plain square-and-multiply /
// double-and-add / shift-subtract implementation; any arithmetic fast path
// must reproduce it exactly.
#include <gtest/gtest.h>

#include "accountnet/crypto/ed25519.hpp"
#include "accountnet/crypto/ge25519.hpp"
#include "accountnet/crypto/provider.hpp"
#include "accountnet/crypto/sc25519.hpp"
#include "accountnet/crypto/sha256.hpp"
#include "accountnet/crypto/vrf.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::crypto {
namespace {

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

class Fold {
 public:
  void bytes(BytesView b) { h_.update(b); }
  void verdict(bool ok) {
    const std::uint8_t v = ok ? 1 : 0;
    h_.update(BytesView(&v, 1));
  }
  std::string hex() { return to_hex(h_.finish()); }

 private:
  Sha256 h_;
};

TEST(CryptoGoldenDigest, SeededLoopIsBitIdentical) {
  const auto provider = make_real_crypto();
  Rng rng(20230714);
  Fold fold;
  for (int i = 0; i < 48; ++i) {
    const Bytes seed = random_bytes(rng, 32);
    const auto kp = ed25519_keypair_from_seed(seed);
    const auto signer = provider->make_signer(seed);
    fold.bytes(kp.public_key);

    const Bytes msg = random_bytes(rng, static_cast<std::size_t>(i) * 5);
    const auto sig = ed25519_sign(kp, msg);
    fold.bytes(sig);
    fold.verdict(ed25519_verify(kp.public_key, msg, sig));

    auto bad_r = sig;
    bad_r[static_cast<std::size_t>(i) % 32] ^= 0x04;
    fold.verdict(ed25519_verify(kp.public_key, msg, bad_r));
    auto bad_s = sig;
    bad_s[32 + static_cast<std::size_t>(i) % 31] ^= 0x10;
    fold.verdict(ed25519_verify(kp.public_key, msg, bad_s));
    Bytes bad_msg = msg;
    bad_msg.push_back(0x5a);
    fold.verdict(ed25519_verify(kp.public_key, bad_msg, sig));

    const Bytes alpha = random_bytes(rng, static_cast<std::size_t>(i) % 7 * 9);
    const auto proof = vrf_prove(kp, alpha);
    fold.bytes(proof);
    fold.bytes(vrf_proof_to_hash(proof));
    fold.bytes(signer->vrf_output(alpha));
    const auto beta = vrf_verify(kp.public_key, alpha, proof);
    fold.verdict(beta.has_value());
    if (beta) fold.bytes(*beta);

    for (const std::size_t pos : {static_cast<std::size_t>(i) % 32,
                                  32 + static_cast<std::size_t>(i) % 16,
                                  48 + static_cast<std::size_t>(i) % 31}) {
      auto bad = proof;
      bad[pos] ^= 0x02;
      fold.verdict(vrf_verify(kp.public_key, alpha, bad).has_value());
    }
    Bytes other_alpha = alpha;
    other_alpha.push_back(0x01);
    fold.verdict(vrf_verify(kp.public_key, other_alpha, proof).has_value());

    // Raw decompression of random bytes (exercises pow22523 and invert on
    // both the on-curve and off-curve branches), then variable-base
    // multiplication of any point that decodes.
    const Bytes enc = random_bytes(rng, 32);
    const auto point = Ge25519::from_bytes(enc);
    fold.verdict(point.has_value());
    if (point) {
      fold.bytes(point->to_bytes());
      const Scalar k = Scalar::reduce(random_bytes(rng, 32));
      fold.bytes(point->scalar_mul(k.bytes()).to_bytes());
    }

    const Bytes wide = random_bytes(rng, 64);
    const Scalar a = Scalar::reduce(wide);
    const Scalar b = Scalar::reduce(random_bytes(rng, 32));
    fold.bytes(a.bytes());
    fold.bytes(a.mul(b).bytes());
    fold.bytes(a.add(b).bytes());
    fold.bytes(Scalar::muladd(a, b, a).bytes());
  }
  EXPECT_EQ(fold.hex(), "cc830f095bf6056c02354d23c6050875a472c167ad2e2f900c652e9da8429a4a");
}

}  // namespace
}  // namespace accountnet::crypto
