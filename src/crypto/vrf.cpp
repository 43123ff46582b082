#include "accountnet/crypto/vrf.hpp"

#include <algorithm>
#include <cstring>

#include "accountnet/crypto/ge25519.hpp"
#include "accountnet/crypto/sc25519.hpp"
#include "accountnet/crypto/sha512.hpp"
#include "accountnet/util/ensure.hpp"

namespace accountnet::crypto {

namespace {

constexpr std::uint8_t kSuite = 0x03;  // ECVRF-EDWARDS25519-SHA512-TAI
constexpr std::size_t kChallengeLen = 16;

using Encoding = std::array<std::uint8_t, 32>;

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

/// RFC 9381 §5.2 proof_to_hash given the encoding of 8*Gamma:
/// SHA-512(suite || 0x03 || 8*Gamma || 0x00).
VrfOutput cofactor_gamma_to_hash(const Encoding& cofactor_gamma) {
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

/// The part of a draw that vrf_output and vrf_prove share: H =
/// encode_to_curve(pk, alpha) with its comb table, the encodings of H and
/// Gamma = x*H, and beta. The sampler asks for the output and then the proof
/// of the same alpha, so each thread remembers its last draw, and Gamma = x*H
/// and V = k*H read one table. Everything here is public: Gamma and beta
/// follow from the proof, H from (pk, alpha). Keying on pk is sound because
/// pk = x*B fixes x mod L, which fixes Gamma = x*H (H has order L).
struct Draw {
  Encoding pk{};
  Bytes alpha;
  std::optional<GeComb<4>> h_table;
  Encoding h_enc{};
  Encoding gamma_enc{};
  VrfOutput beta{};
};

thread_local std::optional<Draw> t_last_draw;

/// The thread's last draw if it is (kp, alpha); otherwise computes the draw,
/// with one inversion for H, Gamma and 8*Gamma, and remembers it instead.
/// Everything that can throw runs before the memo is touched, so a throw
/// leaves the previous draw whole: a half-updated memo would pair one H's
/// table with another H's nonce, and two proofs with one nonce give away x.
const Draw& draw_for(const Ed25519KeyPair& kp, BytesView alpha) {
  auto& d = t_last_draw;
  if (d && d->pk == kp.public_key &&
      std::equal(d->alpha.begin(), d->alpha.end(), alpha.begin(), alpha.end())) {
    return *d;
  }
  Draw next;
  const Ge25519 h = encode_to_curve(kp.public_key, alpha);
  const Ge25519 gamma = next.h_table.emplace(h).mul(expand(kp).x.bytes());
  const std::array<Ge25519, 3> points{h, gamma, gamma.mul_by_cofactor()};
  std::array<Encoding, 3> enc{};  // H, Gamma, 8*Gamma
  Ge25519::to_bytes_batch(points, enc);

  next.pk = kp.public_key;
  next.alpha.assign(alpha.begin(), alpha.end());
  next.h_enc = enc[0];
  next.gamma_enc = enc[1];
  next.beta = cofactor_gamma_to_hash(enc[2]);
  // Moving a Draw copies its ~4 KB table and moves its alpha buffer; neither
  // throws.
  d = std::move(next);
  return *d;
}

}  // namespace

VrfProof vrf_prove(const Ed25519KeyPair& kp, BytesView alpha) {
  const Draw& draw = draw_for(kp, alpha);
  const auto sk = expand(kp);

  // The nonce hashes H's encoding, so U and V cannot share H's inversion;
  // they share one of their own.
  const Scalar k = make_nonce(sk, draw.h_enc);
  const std::array<Ge25519, 2> points{ge_scalar_mul_base(k.bytes()),
                                      draw.h_table->mul(k.bytes())};
  std::array<Encoding, 2> enc{};  // U, V
  Ge25519::to_bytes_batch(points, enc);

  const auto c = make_challenge(kp.public_key, draw.h_enc, draw.gamma_enc, enc[0], enc[1]);
  const Scalar s = Scalar::muladd(challenge_scalar(c), sk.x, k);

  VrfProof proof{};
  std::memcpy(proof.data(), draw.gamma_enc.data(), 32);
  std::memcpy(proof.data() + 32, c.data(), kChallengeLen);
  std::memcpy(proof.data() + 48, s.bytes().data(), 32);
  return proof;
}

VrfOutput vrf_output(const Ed25519KeyPair& kp, BytesView alpha) {
  return draw_for(kp, alpha).beta;
}

VrfOutput vrf_proof_to_hash(const VrfProof& proof) {
  const auto gamma = Ge25519::from_bytes(BytesView(proof.data(), 32));
  AN_ENSURE_MSG(gamma.has_value(), "vrf_proof_to_hash: bad Gamma encoding");
  return cofactor_gamma_to_hash(gamma->mul_by_cofactor().to_bytes());
}

std::optional<VrfOutput> vrf_verify(BytesView public_key32, BytesView alpha,
                                    BytesView proof80) {
  if (public_key32.size() != 32 || proof80.size() != kVrfProofSize) return std::nullopt;
  const auto key = VerifyKey::decode(public_key32);
  if (!key) return std::nullopt;
  return vrf_verify(*key, alpha, proof80);
}

std::optional<VrfOutput> vrf_verify(const VerifyKey& key, BytesView alpha,
                                    BytesView proof80) {
  // RFC 9381 §5.4.5 ECVRF_validate_key: Y must decode (it did, into `key`)
  // and must not have small order (8*Y = identity), or proofs could be
  // forged for it.
  if (proof80.size() != kVrfProofSize || key.small_order()) return std::nullopt;
  const auto gamma = Ge25519::from_bytes(proof80.first(32));
  if (!gamma) return std::nullopt;

  std::array<std::uint8_t, kChallengeLen> c{};
  std::memcpy(c.data(), proof80.data() + 32, kChallengeLen);
  Scalar s;
  if (!Scalar::from_canonical(proof80.subspan(48), s)) return std::nullopt;

  const auto h_point = hash_to_curve_tai(key.bytes(), alpha);
  if (!h_point) return std::nullopt;

  const Scalar c_scalar = challenge_scalar(c);

  // U = s*B - c*Y ;  V = s*H - c*Gamma, the latter as one joint product.
  const Ge25519 u = ge_scalar_mul_base(s.bytes()).sub(key.mul(c_scalar.bytes()));
  const Ge25519 v = ge_double_scalar_mul(*h_point, s.bytes(), gamma->negate(), c_scalar.bytes());

  // Gamma's encoding is the proof's own first 32 bytes: from_bytes accepts
  // only canonical encodings, so re-encoding would reproduce them.
  const std::array<Ge25519, 4> points{*h_point, u, v, gamma->mul_by_cofactor()};
  std::array<Encoding, 4> enc{};  // H, U, V, 8*Gamma
  Ge25519::to_bytes_batch(points, enc);
  Encoding gamma_enc{};
  std::memcpy(gamma_enc.data(), proof80.data(), 32);

  const auto expected = make_challenge(key.bytes(), enc[0], gamma_enc, enc[1], enc[2]);
  if (!ct_equal(BytesView(expected.data(), expected.size()), BytesView(c.data(), c.size()))) {
    return std::nullopt;
  }

  return cofactor_gamma_to_hash(enc[3]);
}

}  // namespace accountnet::crypto
