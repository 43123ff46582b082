// Group operations on edwards25519 (twisted Edwards curve, a = -1,
// d = -121665/121666), extended coordinates (X : Y : Z : T), T = XY/Z.
//
// Provides compression/decompression per RFC 8032 §5.1.3, variable-base,
// table-driven (comb) and two-point joint scalar multiplication; enough for
// Ed25519 and ECVRF. Every operation is variable-time.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <span>

#include "accountnet/crypto/fe25519.hpp"
#include "accountnet/util/bytes.hpp"

namespace accountnet::crypto {

template <std::size_t Rows>
class GeComb;

class Ge25519 {
 public:
  /// Neutral element (0, 1); so is a default-constructed point.
  Ge25519() : x_(), y_(Fe25519::one()), z_(Fe25519::one()), t_() {}
  static Ge25519 identity();

  /// The standard base point B (y = 4/5, x positive... RFC 8032 sign rules).
  static const Ge25519& base_point();

  /// Decompresses a 32-byte encoding; nullopt if it is not a curve point or
  /// its y coordinate is not canonical (y >= p), per RFC 8032 §5.1.3.
  static std::optional<Ge25519> from_bytes(BytesView b32);

  /// Canonical 32-byte compressed encoding.
  std::array<std::uint8_t, 32> to_bytes() const;

  /// out[i] = points[i].to_bytes() for every i, with one field inversion for
  /// the whole batch (Montgomery's trick) instead of one per point.
  static void to_bytes_batch(std::span<const Ge25519> points,
                             std::span<std::array<std::uint8_t, 32>> out);

  Ge25519 add(const Ge25519& rhs) const;
  Ge25519 dbl() const;
  /// 2^n * P by n doublings, computing T only in the last one.
  Ge25519 dbl_times(int n) const;
  Ge25519 negate() const;
  Ge25519 sub(const Ge25519& rhs) const;

  /// scalar * P for a 32-byte little-endian integer (the full 256 bits are
  /// used; nothing is reduced). Signed 4-bit window: a table of 1..8 * P in
  /// cached form (one doubling, six additions), then per nonzero signed
  /// radix-16 digit one addition, with four doublings between digits.
  Ge25519 scalar_mul(const std::array<std::uint8_t, 32>& scalar_le) const;

  /// 8 * P (clears the cofactor).
  Ge25519 mul_by_cofactor() const;

  bool is_identity() const;
  bool operator==(const Ge25519& rhs) const;

 private:
  Ge25519(Fe25519 x, Fe25519 y, Fe25519 z, Fe25519 t) : x_(x), y_(y), z_(z), t_(t) {}

  /// zinv[i] = 1 / points[i].Z for every i, with one field inversion for the
  /// whole batch (Montgomery's trick).
  static void invert_z_batch(std::span<const Ge25519> points, std::span<Fe25519> zinv);

  /// An affine point in the (y + x, y - x, 2d*x*y) form comb tables store.
  struct Precomp {
    Fe25519 ypx;   // y + x
    Fe25519 ymx;   // y - x
    Fe25519 xy2d;  // 2d * x * y
  };
  /// this + p, or this - p when `negate`; mixed addition (Z of p is 1).
  Ge25519 madd(const Precomp& p, bool negate) const;
  template <std::size_t Rows>
  friend class GeComb;

  /// A point in the (Y + X, Y - X, 2Z, 2d*T) form that additions read
  /// (defined in ge25519.cpp).
  struct Cached;
  Cached to_cached() const;
  /// this + q, or this - q when `negate`. T of the sum is computed only
  /// when `with_t`; leave it out only when a doubling comes next.
  Ge25519 add_cached(const Cached& q, bool negate, bool with_t) const;

  /// sum scalars[i] * points[i] (Straus); defined and instantiated in
  /// ge25519.cpp.
  template <std::size_t N>
  static Ge25519 straus(const std::array<const Ge25519*, N>& points,
                        const std::array<const std::array<std::uint8_t, 32>*, N>& scalars);
  friend Ge25519 ge_double_scalar_mul(const Ge25519& p, const std::array<std::uint8_t, 32>& a,
                                      const Ge25519& q, const std::array<std::uint8_t, 32>& b);

  Fe25519 x_;
  Fe25519 y_;
  Fe25519 z_;
  Fe25519 t_;
};

/// A comb table for products with one fixed point P: row r holds j *
/// 16^(k*r) * P for j = 1..8, with k = 64 / Rows signed radix-16 digits per
/// row. A product is a Horner loop over the k digit positions: four
/// doublings between positions and one addition per nonzero digit, so
/// (k - 1) * 4 doublings in all. 64 rows (the base point's table) need no
/// doubling; 8 rows (a verification key's) need 28; 4 rows (a draw's H)
/// need 60.
///
/// The table is brought to Z = 1 with one field inversion for the whole
/// table and stores (y + x, y - x, 2d*x*y), 120 bytes a point, read by mixed
/// additions: ~60 KB for B's 64 rows, ~7.7 KB for a key's 8, ~3.8 KB for
/// H's 4.
template <std::size_t Rows>
class GeComb {
  static_assert(Rows > 0 && 64 % Rows == 0, "rows must divide the 64 digit positions");

 public:
  explicit GeComb(const Ge25519& p);

  /// scalar * P for a 32-byte little-endian scalar below 2^255 (enforced:
  /// the table has no row for the final carry digit, and reducing the
  /// scalar mod L would be wrong for a P with a torsion component).
  Ge25519 mul(const std::array<std::uint8_t, 32>& scalar_le) const;

 private:
  static constexpr std::size_t kDigitsPerRow = 64 / Rows;
  std::array<std::array<Ge25519::Precomp, 8>, Rows> rows_;
};

extern template class GeComb<4>;
extern template class GeComb<8>;
extern template class GeComb<64>;

/// scalar * B for the standard base point through a 64-row comb of B built on
/// first use: one mixed addition per nonzero signed radix-16 digit and no
/// doublings. Scalars >= 2^255 are reduced mod L first (B has order L).
Ge25519 ge_scalar_mul_base(const std::array<std::uint8_t, 32>& scalar_le);

/// a * P + b * Q with one shared doubling chain (Straus, signed 4-bit
/// windows); equals P.scalar_mul(a).add(Q.scalar_mul(b)) for about half the
/// doublings.
Ge25519 ge_double_scalar_mul(const Ge25519& p, const std::array<std::uint8_t, 32>& a,
                             const Ge25519& q, const std::array<std::uint8_t, 32>& b);

}  // namespace accountnet::crypto
