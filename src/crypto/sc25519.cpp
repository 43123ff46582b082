#include "accountnet/crypto/sc25519.hpp"

#include "accountnet/util/ensure.hpp"

namespace accountnet::crypto {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// 512-bit little-endian integer as 8 x 64-bit limbs; wide enough for a
// 256x256-bit product plus a 256-bit addend.
using U512 = std::array<u64, 8>;
// The 320-bit window Barrett reduction works in.
using U320 = std::array<u64, 5>;

// L = 0x1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ed
constexpr std::array<u64, 4> kOrder = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0,
                                       0x1000000000000000ULL};

// Barrett constant mu = floor(2^512 / L), 260 bits.
constexpr U320 kMu = {0xed9ce5a30a2c131bULL, 0x2106215d086329a7ULL, 0xffffffffffffffebULL,
                      0xffffffffffffffffULL, 0xfULL};

bool less_than_order(const U320& r) {
  if (r[4] != 0) return false;
  for (int i = 3; i >= 0; --i) {
    const auto k = static_cast<std::size_t>(i);
    if (r[k] != kOrder[k]) return r[k] < kOrder[k];
  }
  return false;
}

// a - b mod 2^320.
U320 sub320(const U320& a, const U320& b) {
  U320 out{};
  u64 borrow = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    const u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    out[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 127);
  }
  return out;
}

// x mod L by Barrett reduction (HAC 14.42 with b = 2^64, k = 4). The
// quotient estimate q = floor(floor(x / 2^192) * mu / 2^320) undershoots
// floor(x / L) by at most 2, so x - q*L, computed mod 2^320, lies in
// [0, 3L) and needs at most two final subtractions.
std::array<u64, 4> mod_order(const U512& x) {
  std::array<u64, 10> prod{};
  for (std::size_t i = 0; i < 5; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < 5; ++j) {
      const u128 t = static_cast<u128>(x[3 + i]) * kMu[j] + prod[i + j] + carry;
      prod[i + j] = static_cast<u64>(t);
      carry = static_cast<u64>(t >> 64);
    }
    prod[i + 5] = carry;
  }
  const U320 q = {prod[5], prod[6], prod[7], prod[8], prod[9]};

  U320 ql{};  // q * L mod 2^320
  for (std::size_t i = 0; i < 5; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < 4 && i + j < 5; ++j) {
      const u128 t = static_cast<u128>(q[i]) * kOrder[j] + ql[i + j] + carry;
      ql[i + j] = static_cast<u64>(t);
      carry = static_cast<u64>(t >> 64);
    }
    if (i == 0) ql[4] = carry;
  }

  U320 r = sub320({x[0], x[1], x[2], x[3], x[4]}, ql);
  const U320 order = {kOrder[0], kOrder[1], kOrder[2], kOrder[3], 0};
  while (!less_than_order(r)) r = sub320(r, order);
  return {r[0], r[1], r[2], r[3]};
}

U512 load_le(BytesView bytes) {
  AN_ENSURE_MSG(bytes.size() <= 64, "Scalar::reduce input too long");
  U512 out{};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    out[i / 8] |= static_cast<u64>(bytes[i]) << (8 * (i % 8));
  }
  return out;
}

U512 mul_wide(const U512& a, const U512& b) {
  // Schoolbook multiply of the low 4 limbs of each (256 x 256 -> 512).
  U512 out{};
  for (std::size_t i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const u128 t = static_cast<u128>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<u64>(t);
      carry = static_cast<u64>(t >> 64);
    }
    out[i + 4] = carry;
  }
  return out;
}

U512 add_wide(const U512& a, const U512& b) {
  U512 out{};
  u64 carry = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const u128 t = static_cast<u128>(a[i]) + b[i] + carry;
    out[i] = static_cast<u64>(t);
    carry = static_cast<u64>(t >> 64);
  }
  return out;
}

std::array<std::uint8_t, 32> store_le32(const std::array<u64, 4>& a) {
  std::array<std::uint8_t, 32> out{};
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(a[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

}  // namespace

Scalar Scalar::reduce(BytesView le_bytes) {
  Scalar s;
  s.bytes_ = store_le32(mod_order(load_le(le_bytes)));
  return s;
}

bool Scalar::from_canonical(BytesView b32, Scalar& out) {
  if (b32.size() != 32) return false;
  const U512 v = load_le(b32);
  if (!less_than_order({v[0], v[1], v[2], v[3], 0})) return false;
  out.bytes_ = store_le32({v[0], v[1], v[2], v[3]});
  return true;
}

Scalar Scalar::from_u64(std::uint64_t v) {
  Scalar s;
  for (int i = 0; i < 8; ++i) s.bytes_[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  return s;
}

Scalar Scalar::add(const Scalar& rhs) const {
  const U512 sum = add_wide(load_le(bytes_), load_le(rhs.bytes_));
  Scalar s;
  s.bytes_ = store_le32(mod_order(sum));
  return s;
}

Scalar Scalar::mul(const Scalar& rhs) const {
  const U512 prod = mul_wide(load_le(bytes_), load_le(rhs.bytes_));
  Scalar s;
  s.bytes_ = store_le32(mod_order(prod));
  return s;
}

Scalar Scalar::muladd(const Scalar& a, const Scalar& b, const Scalar& c) {
  const U512 prod = mul_wide(load_le(a.bytes_), load_le(b.bytes_));
  const U512 sum = add_wide(prod, load_le(c.bytes_));
  Scalar s;
  s.bytes_ = store_le32(mod_order(sum));
  return s;
}

bool Scalar::is_zero() const {
  std::uint8_t acc = 0;
  for (auto b : bytes_) acc |= b;
  return acc == 0;
}

}  // namespace accountnet::crypto
