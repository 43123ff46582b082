#include "accountnet/crypto/ge25519.hpp"

#include <memory>
#include <vector>

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

namespace {

// RFC 8032 §5.1.3 step 1: the encoded y (sign bit masked) must be below
// p = 2^255 - 19, whose little-endian bytes are ed ff .. ff 7f.
bool y_is_canonical(BytesView b32) {
  if ((b32[31] & 0x7f) != 0x7f) return true;
  for (std::size_t i = 30; i >= 1; --i) {
    if (b32[i] != 0xff) return true;
  }
  return b32[0] < 0xed;
}

std::array<std::uint8_t, 32> encode_affine(const Fe25519& x, const Fe25519& y) {
  auto out = y.to_bytes();
  if (x.is_negative()) out[31] |= 0x80;
  return out;
}

}  // namespace

std::optional<Ge25519> Ge25519::from_bytes(BytesView b32) {
  if (b32.size() != 32 || !y_is_canonical(b32)) return std::nullopt;
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
  return encode_affine(x_ * zinv, y_ * zinv);
}

void Ge25519::invert_z_batch(std::span<const Ge25519> points, std::span<Fe25519> zinv) {
  if (points.empty()) return;
  // zinv[i] first holds the prefix product Z_0 * ... * Z_i. Walking back from
  // 1 / prefix[n-1]: 1/Z_i = (1/prefix[i]) * prefix[i-1] and
  // 1/prefix[i-1] = (1/prefix[i]) * Z_i.
  zinv[0] = points[0].z_;
  for (std::size_t i = 1; i < points.size(); ++i) zinv[i] = zinv[i - 1] * points[i].z_;
  Fe25519 inv = zinv[points.size() - 1].invert();
  for (std::size_t i = points.size() - 1; i > 0; --i) {
    zinv[i] = inv * zinv[i - 1];
    inv = inv * points[i].z_;
  }
  zinv[0] = inv;
}

void Ge25519::to_bytes_batch(std::span<const Ge25519> points,
                             std::span<std::array<std::uint8_t, 32>> out) {
  AN_ENSURE_MSG(points.size() == out.size(), "Ge25519::to_bytes_batch size mismatch");
  std::vector<Fe25519> zinv(points.size());
  invert_z_batch(points, zinv);
  for (std::size_t i = 0; i < points.size(); ++i) {
    out[i] = encode_affine(points[i].x_ * zinv[i], points[i].y_ * zinv[i]);
  }
}

struct Ge25519::Cached {
  Fe25519 ypx;  // Y + X
  Fe25519 ymx;  // Y - X
  Fe25519 z2;   // 2Z
  Fe25519 t2d;  // 2d * T
};

Ge25519::Cached Ge25519::to_cached() const {
  return Cached{y_ + x_, y_ - x_, z_ + z_, t_ * fe_edwards_2d()};
}

Ge25519 Ge25519::add_cached(const Cached& q, bool negate, bool with_t) const {
  // EFD "add-2008-hwcd-3" for a = -1 with the second operand's sums, 2Z and
  // 2d*T read from the cache: 8 multiplications, 7 without T. -q swaps
  // Y + X with Y - X and negates 2d*T, i.e. swaps f and g.
  const Fe25519 a = (y_ - x_) * (negate ? q.ypx : q.ymx);
  const Fe25519 b = (y_ + x_) * (negate ? q.ymx : q.ypx);
  const Fe25519 c = t_ * q.t2d;
  const Fe25519 d = z_ * q.z2;
  const Fe25519 e = b - a;
  const Fe25519 f = negate ? d + c : d - c;
  const Fe25519 g = negate ? d - c : d + c;
  const Fe25519 h = b + a;
  return Ge25519(e * f, g * h, f * g, with_t ? e * h : Fe25519());
}

Ge25519 Ge25519::add(const Ge25519& rhs) const {
  return add_cached(rhs.to_cached(), false, true);
}

Ge25519 Ge25519::sub(const Ge25519& rhs) const {
  return add_cached(rhs.to_cached(), true, true);
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

// Signed radix-16 digits: k = sum e[i] * 16^i with e[0..63] in [-8, 8) and
// the final carry e[64] in {0, 1}, so 1..8 * P covers every digit.
std::array<std::int8_t, 65> signed_radix16(const Scalar32& k) {
  std::array<std::int8_t, 65> e{};
  int carry = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    const int digit = nibble(k, static_cast<int>(i)) + carry;
    carry = (digit + 8) >> 4;
    e[i] = static_cast<std::int8_t>(digit - (carry << 4));
  }
  e[64] = static_cast<std::int8_t>(carry);
  return e;
}

}  // namespace

// One table of 1..8 * P_i in cached form per point and one MSB-first chain
// of doublings shared by all of them. Leading zero digits cost nothing; an
// addition that a doubling follows skips T. Not constant-time (research
// artifact).
template <std::size_t N>
Ge25519 Ge25519::straus(const std::array<const Ge25519*, N>& points,
                        const std::array<const Scalar32*, N>& scalars) {
  std::array<std::array<Cached, 8>, N> tables;
  std::array<std::array<std::int8_t, 65>, N> digits;
  for (std::size_t p = 0; p < N; ++p) {
    auto& t = tables[p];
    t[0] = points[p]->to_cached();
    Ge25519 multiple = points[p]->dbl();
    t[1] = multiple.to_cached();
    for (std::size_t j = 2; j < 8; ++j) {
      multiple = multiple.add_cached(t[0], false, true);
      t[j] = multiple.to_cached();
    }
    digits[p] = signed_radix16(*scalars[p]);
  }
  Ge25519 acc;
  bool started = false;
  for (int n = 64; n >= 0; --n) {
    const auto pos = static_cast<std::size_t>(n);
    if (started) acc = acc.dbl_times(4);
    for (std::size_t p = 0; p < N; ++p) {
      const int d = digits[p][pos];
      if (d == 0) continue;
      bool with_t = n == 0;  // the result itself needs T
      for (std::size_t later = p + 1; later < N; ++later) with_t |= digits[later][pos] != 0;
      acc = acc.add_cached(tables[p][static_cast<std::size_t>(d < 0 ? -d : d) - 1], d < 0, with_t);
      started = true;
    }
  }
  return acc;
}

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

Ge25519 Ge25519::madd(const Precomp& p, bool negate) const {
  // add_cached() with Z2 = 1 and T2 = x2 * y2 folded into the table entry. -p
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

template <std::size_t Rows>
GeComb<Rows>::GeComb(const Ge25519& p) {
  // points[8r + j] = (j + 1) * 16^(k*r) * P: per row one doubling and six
  // additions off the row's base, then 8 * base doubled 4k - 3 times is the
  // next row's base.
  std::vector<Ge25519> points(Rows * 8);
  Ge25519 row_base = p;
  for (std::size_t r = 0; r < Rows; ++r) {
    Ge25519* row = &points[r * 8];
    const Ge25519::Cached base = row_base.to_cached();
    row[0] = row_base;
    row[1] = row_base.dbl();
    for (std::size_t j = 2; j < 8; ++j) row[j] = row[j - 1].add_cached(base, false, true);
    if (r + 1 < Rows) row_base = row[7].dbl_times(static_cast<int>(4 * kDigitsPerRow - 3));
  }
  std::vector<Fe25519> zinv(points.size());
  Ge25519::invert_z_batch(points, zinv);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Fe25519 x = points[i].x_ * zinv[i];
    const Fe25519 y = points[i].y_ * zinv[i];
    rows_[i / 8][i % 8] = Ge25519::Precomp{y + x, y - x, x * y * fe_edwards_2d()};
  }
}

template <std::size_t Rows>
Ge25519 GeComb<Rows>::mul(const std::array<std::uint8_t, 32>& scalar_le) const {
  AN_ENSURE_MSG((scalar_le[31] & 0x80) == 0, "GeComb::mul: scalar must be below 2^255");
  // With no row for the final carry, it is folded into the top digit:
  // e[63] + 16 * e[64] lies in [0, 8] for scalars below 2^255.
  auto e = signed_radix16(scalar_le);
  e[63] = static_cast<std::int8_t>(e[63] + 16 * e[64]);

  // Digit i = k*r + t sits in row r at Horner position t. Leading positions
  // with no nonzero digit cost nothing.
  Ge25519 acc;
  bool started = false;
  for (std::size_t t = kDigitsPerRow; t-- > 0;) {
    if (started) acc = acc.dbl_times(4);
    for (std::size_t r = 0; r < Rows; ++r) {
      const int d = e[r * kDigitsPerRow + t];
      if (d == 0) continue;
      acc = acc.madd(rows_[r][static_cast<std::size_t>(d < 0 ? -d : d) - 1], d < 0);
      started = true;
    }
  }
  return acc;
}

template class GeComb<4>;
template class GeComb<8>;
template class GeComb<64>;

Ge25519 ge_scalar_mul_base(const std::array<std::uint8_t, 32>& scalar_le) {
  // Built once per process (thread-safe static).
  static const std::unique_ptr<const GeComb<64>> table =
      std::make_unique<const GeComb<64>>(Ge25519::base_point());
  // k * B depends only on k mod L, so a scalar the comb cannot take is
  // reduced first.
  if (scalar_le[31] & 0x80) return table->mul(Scalar::reduce(scalar_le).bytes());
  return table->mul(scalar_le);
}

Ge25519 ge_double_scalar_mul(const Ge25519& p, const std::array<std::uint8_t, 32>& a,
                             const Ge25519& q, const std::array<std::uint8_t, 32>& b) {
  return Ge25519::straus<2>({&p, &q}, {&a, &b});
}

}  // namespace accountnet::crypto
