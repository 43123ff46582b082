// A hand-built ECVRF proof that passes for the identity key whatever c is,
// shared by the tests that check every verifier refuses it.
#pragma once

#include <gtest/gtest.h>

#include <array>

#include "accountnet/crypto/ge25519.hpp"
#include "accountnet/crypto/sc25519.hpp"
#include "accountnet/crypto/sha512.hpp"
#include "accountnet/util/bytes.hpp"

namespace accountnet::crypto::test {

// Test-local RFC 9381 encode_to_curve (try-and-increment, suite 0x03), to
// build proofs by hand.
inline Ge25519 tai_encode_to_curve(BytesView pk, BytesView alpha) {
  for (unsigned ctr = 0; ctr < 256; ++ctr) {
    Sha512 h;
    const std::uint8_t front[2] = {0x03, 0x01};
    const std::uint8_t back[2] = {static_cast<std::uint8_t>(ctr), 0x00};
    h.update(BytesView(front, 2));
    h.update(pk);
    h.update(alpha);
    h.update(BytesView(back, 2));
    const auto digest = h.finish();
    const auto p = Ge25519::from_bytes(BytesView(digest.data(), 32));
    if (p && !p->mul_by_cofactor().is_identity()) return p->mul_by_cofactor();
  }
  ADD_FAILURE() << "encode_to_curve found no point";
  return Ge25519::identity();
}

// The 16-byte RFC 9381 challenge over (Y, H, Gamma, U, V).
inline Bytes challenge(BytesView pk, const std::array<const Ge25519*, 4>& points) {
  Sha512 h;
  const std::uint8_t front[2] = {0x03, 0x02};
  const std::uint8_t back[1] = {0x00};
  h.update(BytesView(front, 2));
  h.update(pk);
  for (const Ge25519* p : points) h.update(p->to_bytes());
  h.update(BytesView(back, 1));
  const auto digest = h.finish();
  return Bytes(digest.begin(), digest.begin() + 16);
}

// A proof anyone can make for a key Y of order 1: with Gamma = identity and
// s = k, the verifier's U = s*B - c*Y = k*B and V = s*H - c*Gamma = k*H for
// every c, so the challenge over (Y, H, Gamma, k*B, k*H) checks out.
inline Bytes forge_identity_key_proof(BytesView pk, BytesView alpha) {
  const Ge25519 h = tai_encode_to_curve(pk, alpha);
  const Scalar k = Scalar::from_u64(0x1234567);
  const Ge25519 y = Ge25519::identity();
  const Ge25519 gamma = Ge25519::identity();
  const Ge25519 u = ge_scalar_mul_base(k.bytes());
  const Ge25519 v = h.scalar_mul(k.bytes());
  EXPECT_EQ(ge_scalar_mul_base(k.bytes()).sub(y), u);  // U = s*B - c*Y for any c
  Bytes proof;
  append(proof, gamma.to_bytes());
  append(proof, challenge(pk, {&h, &gamma, &u, &v}));
  append(proof, k.bytes());
  return proof;
}

}  // namespace accountnet::crypto::test
