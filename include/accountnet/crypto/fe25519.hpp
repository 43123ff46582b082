// Arithmetic in GF(2^255 - 19), the base field of edwards25519.
//
// Representation: five 51-bit limbs (radix 2^51), operated on through
// unsigned __int128 accumulation. Limbs are kept only loosely reduced
// (bounds below); to_bytes() produces the canonical (fully reduced)
// little-endian encoding.
//
// +, -, * and square are defined inline below, so the group code in
// ge25519.cpp compiles them into its formulas instead of calling into another
// translation unit for every field operation.
//
// Limb bounds. Write |f| for the largest limb of f and p_i for the limbs of p.
//   * carry(), *, square() and - return |r| < 2^51 + 2^24 < 2^52 ("carried").
//     carry() needs |f| < 2^63. * and square() need |f|, |g| < 2^59: then
//     19 * g_i < 2^64 fits a u64, every u128 column is at most
//     (1 + 4 * 19) * 2^118 < 2^125, the top column's carry is below 2^71, and
//     folding 19 times it into limb 0 leaves a carry below 2^24 into limb 1.
//   * + does not carry: |f + g| <= |f| + |g|.
//   * - adds 4p limb-wise before subtracting, then carries. 4 p_i >= 2^53 - 76,
//     so it needs |g| <= 2^53 - 76 (no limb underflows) and |f| < 2^62.
//   * to_bytes(), ==, is_zero() and is_negative() need |f| < 2^63.
// Every point coordinate in ge25519.cpp is carried: it is the output of *,
// - or Fe25519::from_bytes (|r| < 2^51). The group formulas add at most two
// carried values before the sum is used, so the widest operand anywhere is
// a sum of two carried values, |.| < 2^52 + 2^25. The worst chains:
//   * dbl_times: e = (x + y).square() - (yy + xx) and
//     f = (zz + zz) - diff subtract or start from such a sum;
//     y = (yy + xx) * diff and t = e * (yy + xx) multiply one.
//   * add_cached: Y1 + X1 and the cached Y2 + X2 and 2 Z2 enter *; the
//     outputs multiply the sums D + C and B + A.
//   * madd: the table's y + x and Z1 + Z1 enter *, and f = (Z1 + Z1) - C.
//   * from_bytes: v = d y^2 + 1 enters square() and *.
// 2^52 + 2^25 is below 2^53 - 76 (as the right operand of -) and far below
// 2^59 (as a factor of * or square()), so no bound above is ever exceeded.
//
// This is a from-scratch implementation (the paper used libsodium); it is
// validated by algebraic property tests, by a test-local reference on
// max-limb operand chains, and by the RFC 8032 Ed25519 vectors that exercise
// it end-to-end.
#pragma once

#include <array>
#include <cstdint>

#include "accountnet/util/bytes.hpp"

namespace accountnet::crypto {

class Fe25519 {
 public:
  /// Zero element.
  constexpr Fe25519() : limbs_{0, 0, 0, 0, 0} {}

  static Fe25519 zero() { return Fe25519(); }
  static Fe25519 one();
  static Fe25519 from_u64(std::uint64_t v);

  /// Loads a 32-byte little-endian encoding; the top bit is ignored
  /// (RFC 7748 convention). The value is reduced mod p.
  static Fe25519 from_bytes(BytesView b32);

  /// Canonical 32-byte little-endian encoding (fully reduced, < p).
  std::array<std::uint8_t, 32> to_bytes() const;

  /// Lazy: the limbs are added without a carry (see the bounds above).
  Fe25519 operator+(const Fe25519& rhs) const;
  Fe25519 operator-(const Fe25519& rhs) const;
  Fe25519 operator*(const Fe25519& rhs) const;
  Fe25519 square() const;
  Fe25519 negate() const;

  /// Multiplicative inverse (x^(p-2)); inverse of zero is zero. Addition
  /// chain: 254 squarings, 11 multiplications.
  Fe25519 invert() const;

  /// x^((p-5)/8), the exponentiation used in square-root extraction.
  /// Addition chain: 251 squarings, 11 multiplications.
  Fe25519 pow22523() const;

  bool is_zero() const;
  /// "Negative" per RFC 8032: least significant bit of the canonical encoding.
  bool is_negative() const;
  bool operator==(const Fe25519& rhs) const;

 private:
  using u64 = std::uint64_t;
  using u128 = unsigned __int128;
  static constexpr u64 kMask51 = (u64{1} << 51) - 1;

  explicit constexpr Fe25519(std::array<u64, 5> limbs) : limbs_(limbs) {}

  /// One carry-propagation pass; see the bounds above.
  void carry();

  /// Carries five 128-bit column sums down to 51-bit limbs, folding the top
  /// carry back in through 2^255 = 19 (mod p).
  static Fe25519 carry_columns(u128 r0, u128 r1, u128 r2, u128 r3, u128 r4);

  std::array<u64, 5> limbs_;
};

inline void Fe25519::carry() {
  u64 c;
  c = limbs_[0] >> 51; limbs_[0] &= kMask51; limbs_[1] += c;
  c = limbs_[1] >> 51; limbs_[1] &= kMask51; limbs_[2] += c;
  c = limbs_[2] >> 51; limbs_[2] &= kMask51; limbs_[3] += c;
  c = limbs_[3] >> 51; limbs_[3] &= kMask51; limbs_[4] += c;
  c = limbs_[4] >> 51; limbs_[4] &= kMask51; limbs_[0] += 19 * c;
  c = limbs_[0] >> 51; limbs_[0] &= kMask51; limbs_[1] += c;
}

inline Fe25519 Fe25519::carry_columns(u128 r0, u128 r1, u128 r2, u128 r3, u128 r4) {
  u128 c;
  c = r0 >> 51; r0 &= kMask51; r1 += c;
  c = r1 >> 51; r1 &= kMask51; r2 += c;
  c = r2 >> 51; r2 &= kMask51; r3 += c;
  c = r3 >> 51; r3 &= kMask51; r4 += c;
  c = r4 >> 51; r4 &= kMask51; r0 += 19 * c;
  c = r0 >> 51; r0 &= kMask51; r1 += c;
  return Fe25519({static_cast<u64>(r0), static_cast<u64>(r1), static_cast<u64>(r2),
                  static_cast<u64>(r3), static_cast<u64>(r4)});
}

inline Fe25519 Fe25519::operator+(const Fe25519& rhs) const {
  Fe25519 r;
  for (int i = 0; i < 5; ++i) r.limbs_[i] = limbs_[i] + rhs.limbs_[i];
  return r;
}

inline Fe25519 Fe25519::operator-(const Fe25519& rhs) const {
  static constexpr u64 kFourP0 = 0x1fffffffffffb4ULL;  // 4 * (2^51 - 19)
  static constexpr u64 kFourPi = 0x1ffffffffffffcULL;  // 4 * (2^51 - 1)
  Fe25519 r;
  r.limbs_[0] = limbs_[0] + kFourP0 - rhs.limbs_[0];
  for (int i = 1; i < 5; ++i) r.limbs_[i] = limbs_[i] + kFourPi - rhs.limbs_[i];
  r.carry();
  return r;
}

inline Fe25519 Fe25519::negate() const {
  return zero() - *this;
}

inline Fe25519 Fe25519::operator*(const Fe25519& rhs) const {
  const u64 f0 = limbs_[0], f1 = limbs_[1], f2 = limbs_[2], f3 = limbs_[3], f4 = limbs_[4];
  const u64 g0 = rhs.limbs_[0], g1 = rhs.limbs_[1], g2 = rhs.limbs_[2], g3 = rhs.limbs_[3],
            g4 = rhs.limbs_[4];
  const u64 g1_19 = 19 * g1, g2_19 = 19 * g2, g3_19 = 19 * g3, g4_19 = 19 * g4;

  const u128 r0 = (u128)f0 * g0 + (u128)f1 * g4_19 + (u128)f2 * g3_19 + (u128)f3 * g2_19 + (u128)f4 * g1_19;
  const u128 r1 = (u128)f0 * g1 + (u128)f1 * g0 + (u128)f2 * g4_19 + (u128)f3 * g3_19 + (u128)f4 * g2_19;
  const u128 r2 = (u128)f0 * g2 + (u128)f1 * g1 + (u128)f2 * g0 + (u128)f3 * g4_19 + (u128)f4 * g3_19;
  const u128 r3 = (u128)f0 * g3 + (u128)f1 * g2 + (u128)f2 * g1 + (u128)f3 * g0 + (u128)f4 * g4_19;
  const u128 r4 = (u128)f0 * g4 + (u128)f1 * g3 + (u128)f2 * g2 + (u128)f3 * g1 + (u128)f4 * g0;
  return carry_columns(r0, r1, r2, r3, r4);
}

inline Fe25519 Fe25519::square() const {
  // The multiplication above with f = g: the symmetric cross terms are
  // computed once and doubled, 15 products instead of 25.
  const u64 f0 = limbs_[0], f1 = limbs_[1], f2 = limbs_[2], f3 = limbs_[3], f4 = limbs_[4];
  const u64 d0 = 2 * f0, d1 = 2 * f1, d2 = 2 * f2, d3 = 2 * f3;
  const u64 f3_19 = 19 * f3, f4_19 = 19 * f4;

  const u128 r0 = (u128)f0 * f0 + (u128)d1 * f4_19 + (u128)d2 * f3_19;
  const u128 r1 = (u128)d0 * f1 + (u128)d2 * f4_19 + (u128)f3 * f3_19;
  const u128 r2 = (u128)d0 * f2 + (u128)f1 * f1 + (u128)d3 * f4_19;
  const u128 r3 = (u128)d0 * f3 + (u128)d1 * f2 + (u128)f4 * f4_19;
  const u128 r4 = (u128)d0 * f4 + (u128)d1 * f3 + (u128)f2 * f2;
  return carry_columns(r0, r1, r2, r3, r4);
}

/// sqrt(-1) mod p; needed for point decompression.
const Fe25519& fe_sqrt_m1();

/// Edwards curve constant d = -121665/121666 mod p.
const Fe25519& fe_edwards_d();

/// 2d, used in extended-coordinate point addition.
const Fe25519& fe_edwards_2d();

}  // namespace accountnet::crypto
