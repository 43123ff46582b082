#include "accountnet/crypto/fe25519.hpp"

#include <cstring>

#include "accountnet/util/ensure.hpp"

namespace accountnet::crypto {

Fe25519 Fe25519::one() {
  return from_u64(1);
}

Fe25519 Fe25519::from_u64(std::uint64_t v) {
  Fe25519 r;
  r.limbs_[0] = v & kMask51;
  r.limbs_[1] = v >> 51;
  return r;
}

Fe25519 Fe25519::from_bytes(BytesView b32) {
  AN_ENSURE_MSG(b32.size() == 32, "Fe25519::from_bytes needs 32 bytes");
  auto load64 = [&](std::size_t off) {
    u64 v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b32[off + static_cast<std::size_t>(i)];
    return v;
  };
  const u64 q0 = load64(0);
  const u64 q1 = load64(8);
  const u64 q2 = load64(16);
  const u64 q3 = load64(24);
  Fe25519 r;
  r.limbs_[0] = q0 & kMask51;
  r.limbs_[1] = ((q0 >> 51) | (q1 << 13)) & kMask51;
  r.limbs_[2] = ((q1 >> 38) | (q2 << 26)) & kMask51;
  r.limbs_[3] = ((q2 >> 25) | (q3 << 39)) & kMask51;
  r.limbs_[4] = (q3 >> 12) & kMask51;  // drops the sign/top bit
  return r;
}

std::array<std::uint8_t, 32> Fe25519::to_bytes() const {
  Fe25519 t = *this;
  t.carry();
  t.carry();
  // Freeze to the canonical representative: compute q = floor((v + 19) / p)
  // (0 or 1) by propagating (t + 19) through the limbs, then add 19*q and mask.
  u64 q = (t.limbs_[0] + 19) >> 51;
  q = (t.limbs_[1] + q) >> 51;
  q = (t.limbs_[2] + q) >> 51;
  q = (t.limbs_[3] + q) >> 51;
  q = (t.limbs_[4] + q) >> 51;
  t.limbs_[0] += 19 * q;
  u64 c;
  c = t.limbs_[0] >> 51; t.limbs_[0] &= kMask51; t.limbs_[1] += c;
  c = t.limbs_[1] >> 51; t.limbs_[1] &= kMask51; t.limbs_[2] += c;
  c = t.limbs_[2] >> 51; t.limbs_[2] &= kMask51; t.limbs_[3] += c;
  c = t.limbs_[3] >> 51; t.limbs_[3] &= kMask51; t.limbs_[4] += c;
  t.limbs_[4] &= kMask51;

  std::array<std::uint8_t, 32> out{};
  const u64 q0 = t.limbs_[0] | (t.limbs_[1] << 51);
  const u64 q1 = (t.limbs_[1] >> 13) | (t.limbs_[2] << 38);
  const u64 q2 = (t.limbs_[2] >> 26) | (t.limbs_[3] << 25);
  const u64 q3 = (t.limbs_[3] >> 39) | (t.limbs_[4] << 12);
  auto store64 = [&](std::size_t off, u64 v) {
    for (int i = 0; i < 8; ++i) out[off + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  store64(0, q0);
  store64(8, q1);
  store64(16, q2);
  store64(24, q3);
  return out;
}

namespace {

// z^(2^n): n successive squarings.
Fe25519 square_times(Fe25519 z, int n) {
  for (int i = 0; i < n; ++i) z = z.square();
  return z;
}

// The common prefix of the inversion and square-root addition chains
// (ref10's): returns z^(2^250 - 1) and sets z11 = z^11. 249 squarings,
// 10 multiplications.
Fe25519 pow_2_250_1(const Fe25519& z, Fe25519& z11) {
  const Fe25519 z2 = z.square();
  const Fe25519 z9 = square_times(z2, 2) * z;
  z11 = z9 * z2;
  const Fe25519 z_5 = z11.square() * z9;                   // z^(2^5 - 1)
  const Fe25519 z_10 = square_times(z_5, 5) * z_5;         // z^(2^10 - 1)
  const Fe25519 z_20 = square_times(z_10, 10) * z_10;      // z^(2^20 - 1)
  const Fe25519 z_40 = square_times(z_20, 20) * z_20;      // z^(2^40 - 1)
  const Fe25519 z_50 = square_times(z_40, 10) * z_10;      // z^(2^50 - 1)
  const Fe25519 z_100 = square_times(z_50, 50) * z_50;     // z^(2^100 - 1)
  const Fe25519 z_200 = square_times(z_100, 100) * z_100;  // z^(2^200 - 1)
  return square_times(z_200, 50) * z_50;                   // z^(2^250 - 1)
}

}  // namespace

Fe25519 Fe25519::invert() const {
  // p - 2 = 2^255 - 21 = (2^250 - 1) * 2^5 + 11.
  Fe25519 z11;
  return square_times(pow_2_250_1(*this, z11), 5) * z11;
}

Fe25519 Fe25519::pow22523() const {
  // (p - 5) / 8 = 2^252 - 3 = (2^250 - 1) * 2^2 + 1.
  Fe25519 z11;
  return square_times(pow_2_250_1(*this, z11), 2) * *this;
}

bool Fe25519::is_zero() const {
  const auto b = to_bytes();
  std::uint8_t acc = 0;
  for (auto x : b) acc |= x;
  return acc == 0;
}

bool Fe25519::is_negative() const {
  return (to_bytes()[0] & 1) != 0;
}

bool Fe25519::operator==(const Fe25519& rhs) const {
  return to_bytes() == rhs.to_bytes();
}

const Fe25519& fe_sqrt_m1() {
  static const Fe25519 v = Fe25519::from_bytes(
      from_hex("b0a00e4a271beec478e42fad0618432fa7d7fb3d99004d2b0bdfc14f8024832b"));
  return v;
}

const Fe25519& fe_edwards_d() {
  static const Fe25519 v = Fe25519::from_bytes(
      from_hex("a3785913ca4deb75abd841414d0a700098e879777940c78c73fe6f2bee6c0352"));
  return v;
}

const Fe25519& fe_edwards_2d() {
  static const Fe25519 v = fe_edwards_d() + fe_edwards_d();
  return v;
}

}  // namespace accountnet::crypto
