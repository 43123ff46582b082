// Scalar arithmetic modulo the edwards25519 group order
// L = 2^252 + 27742317777372353535851937790883648493.
//
// Scalars are canonical 32-byte little-endian integers < L. Reduction of up
// to 512-bit values is Barrett reduction on 64-bit limbs (one 5x5-limb
// quotient estimate, one partial product, at most two final subtractions).
#pragma once

#include <array>
#include <cstdint>

#include "accountnet/util/bytes.hpp"

namespace accountnet::crypto {

class Scalar {
 public:
  /// Zero scalar.
  Scalar() : bytes_{} {}

  /// Reduces a little-endian integer of up to 64 bytes mod L.
  static Scalar reduce(BytesView le_bytes);

  /// Loads 32 canonical bytes; returns zero-initialized + false if >= L.
  static bool from_canonical(BytesView b32, Scalar& out);

  static Scalar from_u64(std::uint64_t v);

  const std::array<std::uint8_t, 32>& bytes() const { return bytes_; }

  Scalar add(const Scalar& rhs) const;
  Scalar mul(const Scalar& rhs) const;
  /// (a * b + c) mod L — the Ed25519 signing combination.
  static Scalar muladd(const Scalar& a, const Scalar& b, const Scalar& c);

  bool is_zero() const;
  bool operator==(const Scalar& rhs) const { return bytes_ == rhs.bytes_; }

 private:
  std::array<std::uint8_t, 32> bytes_;  // little-endian, < L
};

}  // namespace accountnet::crypto
