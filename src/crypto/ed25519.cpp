#include "accountnet/crypto/ed25519.hpp"

#include <cstring>

#include "accountnet/crypto/ge25519.hpp"
#include "accountnet/crypto/sc25519.hpp"
#include "accountnet/crypto/sha512.hpp"
#include "accountnet/util/ensure.hpp"

namespace accountnet::crypto {

namespace {

struct ExpandedSecret {
  Scalar s;                              // clamped scalar
  std::array<std::uint8_t, 32> prefix;   // second half of SHA-512(seed)
};

ExpandedSecret expand_seed(BytesView seed32) {
  AN_ENSURE_MSG(seed32.size() == 32, "ed25519 seed must be 32 bytes");
  const auto h = Sha512::hash(seed32);
  std::array<std::uint8_t, 32> scalar_bytes;
  std::memcpy(scalar_bytes.data(), h.data(), 32);
  scalar_bytes[0] &= 0xf8;
  scalar_bytes[31] &= 0x7f;
  scalar_bytes[31] |= 0x40;
  ExpandedSecret out;
  // The clamped value can exceed L; reduce so group math sees a canonical
  // scalar (s*B is unchanged because reduction is mod the group order).
  out.s = Scalar::reduce(scalar_bytes);
  std::memcpy(out.prefix.data(), h.data() + 32, 32);
  return out;
}

}  // namespace

Ed25519KeyPair ed25519_keypair_from_seed(BytesView seed32) {
  const auto expanded = expand_seed(seed32);
  Ed25519KeyPair kp;
  std::memcpy(kp.seed.data(), seed32.data(), 32);
  kp.public_key = ge_scalar_mul_base(expanded.s.bytes()).to_bytes();
  return kp;
}

std::array<std::uint8_t, 64> ed25519_sign(const Ed25519KeyPair& kp, BytesView msg) {
  const auto expanded = expand_seed(kp.seed);

  Sha512 h_r;
  h_r.update(expanded.prefix);
  h_r.update(msg);
  const Scalar r = Scalar::reduce(h_r.finish());

  const auto r_enc = ge_scalar_mul_base(r.bytes()).to_bytes();

  Sha512 h_k;
  h_k.update(r_enc);
  h_k.update(kp.public_key);
  h_k.update(msg);
  const Scalar k = Scalar::reduce(h_k.finish());

  const Scalar s = Scalar::muladd(k, expanded.s, r);

  std::array<std::uint8_t, 64> sig;
  std::memcpy(sig.data(), r_enc.data(), 32);
  std::memcpy(sig.data() + 32, s.bytes().data(), 32);
  return sig;
}

std::optional<VerifyKey> VerifyKey::decode(BytesView public_key32) {
  const auto a = Ge25519::from_bytes(public_key32);
  if (!a) return std::nullopt;
  std::array<std::uint8_t, 32> bytes;
  std::memcpy(bytes.data(), public_key32.data(), 32);
  return VerifyKey(bytes, *a);
}

VerifyKey VerifyKey::with_table() const {
  VerifyKey out = *this;
  out.table_ = std::make_shared<const GeComb<8>>(point_);
  return out;
}

Ge25519 VerifyKey::mul(const std::array<std::uint8_t, 32>& scalar_le) const {
  return table_ ? table_->mul(scalar_le) : point_.scalar_mul(scalar_le);
}

bool ed25519_verify(BytesView public_key32, BytesView msg, BytesView signature64) {
  if (public_key32.size() != 32 || signature64.size() != 64) return false;
  const auto key = VerifyKey::decode(public_key32);
  return key && ed25519_verify(*key, msg, signature64);
}

bool ed25519_verify(const VerifyKey& key, BytesView msg, BytesView signature64) {
  if (signature64.size() != 64) return false;

  const auto r = Ge25519::from_bytes(signature64.first(32));
  if (!r) return false;
  Scalar s;
  if (!Scalar::from_canonical(signature64.subspan(32), s)) return false;

  Sha512 h_k;
  h_k.update(signature64.first(32));
  h_k.update(key.bytes());
  h_k.update(msg);
  const Scalar k = Scalar::reduce(h_k.finish());

  // Check S*B == R + k*A (equivalent to the cofactorless RFC equation).
  const Ge25519 lhs = ge_scalar_mul_base(s.bytes());
  const Ge25519 rhs = r->add(key.mul(k.bytes()));
  return lhs == rhs;
}

}  // namespace accountnet::crypto
