#include "accountnet/crypto/vrf.hpp"

#include <cstring>

#include "accountnet/crypto/ge25519.hpp"
#include "accountnet/crypto/sc25519.hpp"
#include "accountnet/crypto/sha512.hpp"
#include "accountnet/util/ensure.hpp"

namespace accountnet::crypto {

namespace {

constexpr std::uint8_t kSuite = 0x03;  // ECVRF-EDWARDS25519-SHA512-TAI
constexpr std::size_t kChallengeLen = 16;

struct ExpandedSecret {
  Scalar x;
  std::array<std::uint8_t, 32> nonce_key;  // SHA-512(seed)[32..63]
};

ExpandedSecret expand(const Ed25519KeyPair& kp) {
  const auto h = Sha512::hash(kp.seed);
  std::array<std::uint8_t, 32> xb;
  std::memcpy(xb.data(), h.data(), 32);
  xb[0] &= 0xf8;
  xb[31] &= 0x7f;
  xb[31] |= 0x40;
  ExpandedSecret out;
  out.x = Scalar::reduce(xb);
  std::memcpy(out.nonce_key.data(), h.data() + 32, 32);
  return out;
}

/// RFC 9381 §5.4.1.1 ECVRF_encode_to_curve_try_and_increment.
std::optional<Ge25519> hash_to_curve_tai(BytesView pk, BytesView alpha) {
  for (unsigned ctr = 0; ctr < 256; ++ctr) {
    Sha512 h;
    const std::uint8_t front[2] = {kSuite, 0x01};
    h.update(BytesView(front, 2));
    h.update(pk);
    h.update(alpha);
    const std::uint8_t back[2] = {static_cast<std::uint8_t>(ctr), 0x00};
    h.update(BytesView(back, 2));
    const auto digest = h.finish();
    auto candidate = Ge25519::from_bytes(BytesView(digest.data(), 32));
    if (candidate) {
      const Ge25519 point = candidate->mul_by_cofactor();
      if (!point.is_identity()) return point;
    }
  }
  return std::nullopt;  // cryptographically unreachable
}

/// RFC 9381 §5.4.2.2 nonce = SHA-512(hashed_sk[32..63] || H) mod L.
Scalar make_nonce(const ExpandedSecret& sk, const std::array<std::uint8_t, 32>& h_enc) {
  Sha512 h;
  h.update(sk.nonce_key);
  h.update(h_enc);
  return Scalar::reduce(h.finish());
}

/// RFC 9381 §5.4.3 challenge over the five points (PK, H, Gamma, U, V).
std::array<std::uint8_t, kChallengeLen> make_challenge(
    BytesView pk, const std::array<std::uint8_t, 32>& h_enc,
    const std::array<std::uint8_t, 32>& gamma_enc,
    const std::array<std::uint8_t, 32>& u_enc,
    const std::array<std::uint8_t, 32>& v_enc) {
  Sha512 h;
  const std::uint8_t front[2] = {kSuite, 0x02};
  h.update(BytesView(front, 2));
  h.update(pk);
  h.update(h_enc);
  h.update(gamma_enc);
  h.update(u_enc);
  h.update(v_enc);
  const std::uint8_t back[1] = {0x00};
  h.update(BytesView(back, 1));
  const auto digest = h.finish();
  std::array<std::uint8_t, kChallengeLen> c{};
  std::memcpy(c.data(), digest.data(), kChallengeLen);
  return c;
}

Scalar challenge_scalar(const std::array<std::uint8_t, kChallengeLen>& c) {
  return Scalar::reduce(BytesView(c.data(), c.size()));
}

/// RFC 9381 §5.2 proof_to_hash given Gamma: SHA-512(suite || 0x03 || 8*Gamma || 0x00).
VrfOutput gamma_to_hash(const Ge25519& gamma) {
  const auto cofactor_gamma = gamma.mul_by_cofactor().to_bytes();
  Sha512 h;
  const std::uint8_t front[2] = {kSuite, 0x03};
  h.update(BytesView(front, 2));
  h.update(cofactor_gamma);
  const std::uint8_t back[1] = {0x00};
  h.update(BytesView(back, 1));
  return h.finish();
}

Ge25519 encode_to_curve(BytesView pk, BytesView alpha) {
  auto h_point = hash_to_curve_tai(pk, alpha);
  AN_ENSURE_MSG(h_point.has_value(), "hash_to_curve failed");
  return *h_point;
}

}  // namespace

VrfProof vrf_prove(const Ed25519KeyPair& kp, BytesView alpha) {
  const auto sk = expand(kp);
  const Ge25519 h_point = encode_to_curve(kp.public_key, alpha);
  const auto h_enc = h_point.to_bytes();

  const Ge25519 gamma = h_point.scalar_mul(sk.x.bytes());
  const auto gamma_enc = gamma.to_bytes();

  const Scalar k = make_nonce(sk, h_enc);
  const auto u_enc = ge_scalar_mul_base(k.bytes()).to_bytes();
  const auto v_enc = h_point.scalar_mul(k.bytes()).to_bytes();

  const auto c = make_challenge(kp.public_key, h_enc, gamma_enc, u_enc, v_enc);
  const Scalar s = Scalar::muladd(challenge_scalar(c), sk.x, k);

  VrfProof proof{};
  std::memcpy(proof.data(), gamma_enc.data(), 32);
  std::memcpy(proof.data() + 32, c.data(), kChallengeLen);
  std::memcpy(proof.data() + 48, s.bytes().data(), 32);
  return proof;
}

VrfOutput vrf_output(const Ed25519KeyPair& kp, BytesView alpha) {
  const Ge25519 h_point = encode_to_curve(kp.public_key, alpha);
  return gamma_to_hash(h_point.scalar_mul(expand(kp).x.bytes()));
}

VrfOutput vrf_proof_to_hash(const VrfProof& proof) {
  const auto gamma = Ge25519::from_bytes(BytesView(proof.data(), 32));
  AN_ENSURE_MSG(gamma.has_value(), "vrf_proof_to_hash: bad Gamma encoding");
  return gamma_to_hash(*gamma);
}

std::optional<VrfOutput> vrf_verify(BytesView public_key32, BytesView alpha,
                                    BytesView proof80) {
  if (public_key32.size() != 32 || proof80.size() != kVrfProofSize) return std::nullopt;

  const auto y = Ge25519::from_bytes(public_key32);
  if (!y) return std::nullopt;
  const auto gamma = Ge25519::from_bytes(proof80.first(32));
  if (!gamma) return std::nullopt;

  std::array<std::uint8_t, kChallengeLen> c{};
  std::memcpy(c.data(), proof80.data() + 32, kChallengeLen);
  Scalar s;
  if (!Scalar::from_canonical(proof80.subspan(48), s)) return std::nullopt;

  const auto h_point = hash_to_curve_tai(public_key32, alpha);
  if (!h_point) return std::nullopt;
  const auto h_enc = h_point->to_bytes();

  const Scalar c_scalar = challenge_scalar(c);

  // U = s*B - c*Y ;  V = s*H - c*Gamma, the latter as one joint product.
  const Ge25519 u = ge_scalar_mul_base(s.bytes()).sub(y->scalar_mul(c_scalar.bytes()));
  const Ge25519 v = ge_double_scalar_mul(*h_point, s.bytes(), gamma->negate(), c_scalar.bytes());

  const auto expected =
      make_challenge(public_key32, h_enc, gamma->to_bytes(), u.to_bytes(), v.to_bytes());
  if (!ct_equal(BytesView(expected.data(), expected.size()), BytesView(c.data(), c.size()))) {
    return std::nullopt;
  }

  return gamma_to_hash(*gamma);
}

}  // namespace accountnet::crypto
