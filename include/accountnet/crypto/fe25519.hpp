// Arithmetic in GF(2^255 - 19), the base field of edwards25519.
//
// Representation: five 51-bit limbs (radix 2^51), operated on through
// unsigned __int128 accumulation. Limbs of a reduced element are < 2^52;
// to_bytes() produces the canonical (fully reduced) little-endian encoding.
//
// This is a from-scratch implementation (the paper used libsodium); it is
// validated by algebraic property tests and by the RFC 8032 Ed25519 vectors
// that exercise it end-to-end.
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
  explicit constexpr Fe25519(std::array<std::uint64_t, 5> limbs) : limbs_(limbs) {}

  /// One carry-propagation pass; keeps limbs < 2^52.
  void carry();

  std::array<std::uint64_t, 5> limbs_;
};

/// sqrt(-1) mod p; needed for point decompression.
const Fe25519& fe_sqrt_m1();

/// Edwards curve constant d = -121665/121666 mod p.
const Fe25519& fe_edwards_d();

/// 2d, used in extended-coordinate point addition.
const Fe25519& fe_edwards_2d();

}  // namespace accountnet::crypto
