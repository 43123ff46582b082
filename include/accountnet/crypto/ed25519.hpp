// Ed25519 signatures per RFC 8032, built on fe25519/ge25519/sc25519.
//
// Keys are 32-byte seeds; public keys the usual 32-byte compressed points;
// signatures the 64-byte R||S form. Validated against the RFC 8032 test
// vectors in tests/crypto.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "accountnet/crypto/ge25519.hpp"
#include "accountnet/util/bytes.hpp"

namespace accountnet::crypto {

struct Ed25519KeyPair {
  std::array<std::uint8_t, 32> seed;        ///< Private seed (keep secret).
  std::array<std::uint8_t, 32> public_key;  ///< Compressed point A = s*B.
};

/// Derives the public key from a 32-byte seed.
Ed25519KeyPair ed25519_keypair_from_seed(BytesView seed32);

/// Produces the 64-byte signature R||S.
std::array<std::uint8_t, 64> ed25519_sign(const Ed25519KeyPair& kp, BytesView msg);

/// A public key decoded for verification: its encoding, the point A,
/// whether A has small order (8*A = identity), and, once with_table() made
/// it, A's 8-row comb (~7.7 KB), through which k*A takes 28 doublings
/// instead of about 252. Ed25519 and ECVRF verification both read it.
class VerifyKey {
 public:
  /// Decodes a 32-byte public key; nullopt if it is not a canonical point
  /// encoding (RFC 8032 §5.1.3).
  static std::optional<VerifyKey> decode(BytesView public_key32);

  /// This key with its comb table built (about one scalar multiplication).
  VerifyKey with_table() const;

  const std::array<std::uint8_t, 32>& bytes() const { return bytes_; }
  bool small_order() const { return small_order_; }

  /// scalar * A for a scalar below 2^255: from the table when there is
  /// one, else the signed-window product. Both give the same point.
  Ge25519 mul(const std::array<std::uint8_t, 32>& scalar_le) const;

 private:
  VerifyKey(const std::array<std::uint8_t, 32>& bytes, const Ge25519& point)
      : bytes_(bytes), point_(point), small_order_(point.mul_by_cofactor().is_identity()) {}

  std::array<std::uint8_t, 32> bytes_;
  Ge25519 point_;
  bool small_order_;
  std::shared_ptr<const GeComb<8>> table_;
};

/// Verifies a signature; strict about canonical S (< L). Decodes the key
/// and takes the plain variable-base path.
bool ed25519_verify(BytesView public_key32, BytesView msg, BytesView signature64);

/// The same verification against an already decoded key; the verdict is
/// the same with or without its table.
bool ed25519_verify(const VerifyKey& key, BytesView msg, BytesView signature64);

}  // namespace accountnet::crypto
