#include "accountnet/crypto/ge25519.hpp"

#include <memory>

#include "accountnet/crypto/sc25519.hpp"
#include "accountnet/util/ensure.hpp"

namespace accountnet::crypto {

Ge25519 Ge25519::identity() {
  return Ge25519();
}

const Ge25519& Ge25519::base_point() {
  // RFC 8032: B has y = 4/5 (mod p) and positive x.
  static const Ge25519 b = [] {
    auto pt = Ge25519::from_bytes(
        from_hex("5866666666666666666666666666666666666666666666666666666666666666"));
    AN_ENSURE_MSG(pt.has_value(), "base point decompression failed");
    return *pt;
  }();
  return b;
}

std::optional<Ge25519> Ge25519::from_bytes(BytesView b32) {
  if (b32.size() != 32) return std::nullopt;
  const bool sign = (b32[31] & 0x80) != 0;
  const Fe25519 y = Fe25519::from_bytes(b32);  // masks the sign bit

  // Recover x from x^2 = (y^2 - 1) / (d y^2 + 1).
  const Fe25519 y2 = y.square();
  const Fe25519 u = y2 - Fe25519::one();
  const Fe25519 v = fe_edwards_d() * y2 + Fe25519::one();

  // Candidate root: x = u v^3 (u v^7)^((p-5)/8).
  const Fe25519 v3 = v.square() * v;
  const Fe25519 v7 = v3.square() * v;
  Fe25519 x = u * v3 * (u * v7).pow22523();

  const Fe25519 vxx = v * x.square();
  if (!(vxx == u)) {
    if (vxx == u.negate()) {
      x = x * fe_sqrt_m1();
    } else {
      return std::nullopt;  // not a square: not on the curve
    }
  }
  if (x.is_zero() && sign) return std::nullopt;  // -0 is not canonical
  if (x.is_negative() != sign) x = x.negate();

  return Ge25519(x, y, Fe25519::one(), x * y);
}

std::array<std::uint8_t, 32> Ge25519::to_bytes() const {
  const Fe25519 zinv = z_.invert();
  const Fe25519 x = x_ * zinv;
  const Fe25519 y = y_ * zinv;
  auto out = y.to_bytes();
  if (x.is_negative()) out[31] |= 0x80;
  return out;
}

Ge25519 Ge25519::add(const Ge25519& rhs) const {
  // EFD "add-2008-hwcd-3" for a = -1.
  const Fe25519 a = (y_ - x_) * (rhs.y_ - rhs.x_);
  const Fe25519 b = (y_ + x_) * (rhs.y_ + rhs.x_);
  const Fe25519 c = t_ * fe_edwards_2d() * rhs.t_;
  const Fe25519 d = (z_ + z_) * rhs.z_;
  const Fe25519 e = b - a;
  const Fe25519 f = d - c;
  const Fe25519 g = d + c;
  const Fe25519 h = b + a;
  return Ge25519(e * f, g * h, f * g, e * h);
}

Ge25519 Ge25519::dbl() const {
  return dbl_times(1);
}

Ge25519 Ge25519::dbl_times(int n) const {
  // EFD "dbl-2008-hwcd" for a = -1, with all four outputs negated (the
  // same projective point) so that a = X^2 and b = Y^2 enter only as
  // b + a and b - a. Doubling never reads T, so only the last one
  // computes it.
  Fe25519 x = x_, y = y_, z = z_, t = t_;
  for (int i = 0; i < n; ++i) {
    const Fe25519 xx = x.square();
    const Fe25519 yy = y.square();
    const Fe25519 zz = z.square();
    const Fe25519 sum = yy + xx;
    const Fe25519 diff = yy - xx;
    const Fe25519 e = (x + y).square() - sum;
    const Fe25519 f = zz + zz - diff;
    x = e * f;
    y = sum * diff;
    z = diff * f;
    if (i + 1 == n) t = e * sum;
  }
  return Ge25519(x, y, z, t);
}

Ge25519 Ge25519::negate() const {
  return Ge25519(x_.negate(), y_, z_, t_.negate());
}

namespace {

using Scalar32 = std::array<std::uint8_t, 32>;

std::uint8_t nibble(const Scalar32& s, int n) {
  const std::uint8_t byte = s[static_cast<std::size_t>(n / 2)];
  return (n % 2) ? (byte >> 4) : (byte & 0x0f);
}

// sum k_i * P_i for N points: one window table of 0..15 * P_i per point and
// one MSB-first chain of doublings shared by all of them (Straus). Leading
// zero nibbles cost nothing. Not constant-time (research artifact).
template <std::size_t N>
Ge25519 straus(const std::array<const Ge25519*, N>& points,
               const std::array<const Scalar32*, N>& scalars) {
  std::array<std::array<Ge25519, 16>, N> tables;
  for (std::size_t p = 0; p < N; ++p) {
    auto& t = tables[p];
    t[1] = *points[p];
    for (std::size_t i = 2; i < 16; ++i) t[i] = t[i - 1].add(*points[p]);
  }
  Ge25519 acc;
  bool started = false;
  for (int n = 63; n >= 0; --n) {
    if (started) acc = acc.dbl_times(4);
    for (std::size_t p = 0; p < N; ++p) {
      const std::uint8_t d = nibble(*scalars[p], n);
      if (d == 0) continue;
      acc = started ? acc.add(tables[p][d]) : tables[p][d];
      started = true;
    }
  }
  return acc;
}

}  // namespace

Ge25519 Ge25519::scalar_mul(const std::array<std::uint8_t, 32>& scalar_le) const {
  return straus<1>({this}, {&scalar_le});
}

Ge25519 Ge25519::mul_by_cofactor() const {
  return dbl_times(3);
}

bool Ge25519::is_identity() const {
  // (0 : Z : Z) encodes the identity.
  return x_.is_zero() && y_ == z_;
}

bool Ge25519::operator==(const Ge25519& rhs) const {
  // Projective equality: X1 Z2 == X2 Z1 and Y1 Z2 == Y2 Z1.
  return (x_ * rhs.z_ == rhs.x_ * z_) && (y_ * rhs.z_ == rhs.y_ * z_);
}

struct Ge25519::Precomp {
  Fe25519 ypx;   // y + x
  Fe25519 ymx;   // y - x
  Fe25519 xy2d;  // 2d * x * y
};

Ge25519 Ge25519::madd(const Precomp& p, bool negate) const {
  // add() with Z2 = 1 and T2 = x2 * y2 folded into the table entry. -p
  // swaps y + x with y - x and negates 2d * x * y, i.e. swaps f and g.
  const Fe25519 a = (y_ - x_) * (negate ? p.ypx : p.ymx);
  const Fe25519 b = (y_ + x_) * (negate ? p.ymx : p.ypx);
  const Fe25519 c = t_ * p.xy2d;
  const Fe25519 d = z_ + z_;
  const Fe25519 e = b - a;
  const Fe25519 f = negate ? d + c : d - c;
  const Fe25519 g = negate ? d - c : d + c;
  const Fe25519 h = b + a;
  return Ge25519(e * f, g * h, f * g, e * h);
}

Ge25519 ge_scalar_mul_base(const std::array<std::uint8_t, 32>& scalar_le) {
  using Precomp = Ge25519::Precomp;
  using BaseTable = std::array<std::array<Precomp, 8>, 64>;
  // table[i][j] = (j + 1) * 16^i * B in affine form: 448 additions, 64
  // doublings and 512 inversions, once per process (thread-safe static).
  static const std::unique_ptr<const BaseTable> table = [] {
    auto t = std::make_unique<BaseTable>();
    Ge25519 row_base = Ge25519::base_point();
    for (auto& row : *t) {
      Ge25519 multiple = row_base;
      for (std::size_t j = 0; j < row.size(); ++j) {
        if (j > 0) multiple = multiple.add(row_base);
        const Fe25519 zinv = multiple.z_.invert();
        const Fe25519 x = multiple.x_ * zinv;
        const Fe25519 y = multiple.y_ * zinv;
        row[j] = Precomp{y + x, y - x, x * y * fe_edwards_2d()};
      }
      row_base = multiple.dbl();  // 16 * 16^i * B
    }
    return t;
  }();

  // Signed radix-16 digits: scalar = sum e[i] * 16^i with e[0..62] in
  // [-8, 8) and e[63] in [0, 8], which holds for scalars below 2^255.
  // Larger inputs are reduced first; k * B depends only on k mod L.
  Scalar32 k = scalar_le;
  if (k[31] & 0x80) k = Scalar::reduce(k).bytes();
  std::array<int, 64> e{};
  int carry = 0;
  for (int i = 0; i < 63; ++i) {
    const int digit = nibble(k, i) + carry;
    carry = (digit + 8) >> 4;
    e[static_cast<std::size_t>(i)] = digit - (carry << 4);
  }
  e[63] = nibble(k, 63) + carry;

  Ge25519 acc = Ge25519::identity();
  for (std::size_t i = 0; i < 64; ++i) {
    if (e[i] == 0) continue;
    const bool negative = e[i] < 0;
    acc = acc.madd((*table)[i][static_cast<std::size_t>(negative ? -e[i] : e[i]) - 1], negative);
  }
  return acc;
}

Ge25519 ge_double_scalar_mul(const Ge25519& p, const std::array<std::uint8_t, 32>& a,
                             const Ge25519& q, const std::array<std::uint8_t, 32>& b) {
  return straus<2>({&p, &q}, {&a, &b});
}

}  // namespace accountnet::crypto
