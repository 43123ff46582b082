// Group-law property tests for edwards25519 points.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "accountnet/crypto/ge25519.hpp"
#include "accountnet/crypto/sc25519.hpp"
#include "accountnet/util/ensure.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::crypto {
namespace {

std::array<std::uint8_t, 32> scalar_of(std::uint64_t v) {
  std::array<std::uint8_t, 32> s{};
  for (int i = 0; i < 8; ++i) s[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  return s;
}

std::array<std::uint8_t, 32> random_scalar(Rng& rng) {
  std::array<std::uint8_t, 32> s{};
  for (auto& b : s) b = static_cast<std::uint8_t>(rng.next_u64());
  s[31] &= 0x0f;  // keep < 2^252 so no reduction questions arise
  return s;
}

std::array<std::uint8_t, 32> scalar_from_hex(const char* hex) {
  const Bytes b = from_hex(hex);
  std::array<std::uint8_t, 32> s{};
  std::copy(b.begin(), b.end(), s.begin());
  return s;
}

// Plain MSB-first double-and-add over all 256 scalar bits: the reference the
// windowed, table-driven and joint multiplications are checked against.
Ge25519 reference_mul(const Ge25519& p, const std::array<std::uint8_t, 32>& k) {
  Ge25519 acc = Ge25519::identity();
  for (int bit = 255; bit >= 0; --bit) {
    acc = acc.dbl();
    if ((k[static_cast<std::size_t>(bit / 8)] >> (bit % 8)) & 1) acc = acc.add(p);
  }
  return acc;
}

// Scalars that stress the signed radix-16 recoding of the base table.
std::vector<std::array<std::uint8_t, 32>> edge_scalars() {
  std::vector<std::array<std::uint8_t, 32>> out;
  for (std::uint64_t v : {0, 1, 8, 15, 16}) out.push_back(scalar_of(v));
  // L - 1, 2^252, and all-0x88 bytes (every nibble 8: a carry through every
  // digit, and a scalar >= 2^255 that the base path must reduce first).
  out.push_back(scalar_from_hex("ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010"));
  out.push_back(scalar_from_hex("0000000000000000000000000000000000000000000000000000000000000010"));
  std::array<std::uint8_t, 32> all88{};
  all88.fill(0x88);
  out.push_back(all88);
  // 2^256 - 1: every signed digit is -1 and the final carry is 1. All-0x08
  // bytes: every other digit is 8, which recodes to -8 with a carry.
  std::array<std::uint8_t, 32> all_ff{};
  all_ff.fill(0xff);
  out.push_back(all_ff);
  std::array<std::uint8_t, 32> all08{};
  all08.fill(0x08);
  out.push_back(all08);
  return out;
}

Ge25519 decode_hex(const char* hex) {
  const auto p = Ge25519::from_bytes(from_hex(hex));
  EXPECT_TRUE(p.has_value()) << hex;
  return p.value_or(Ge25519::identity());
}

// A point of order 8 (canonical encoding).
const char* kOrder8 = "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05";

TEST(Ge25519, IdentityEncoding) {
  EXPECT_EQ(to_hex(Ge25519::identity().to_bytes()),
            "0100000000000000000000000000000000000000000000000000000000000000");
  EXPECT_TRUE(Ge25519::identity().is_identity());
}

TEST(Ge25519, BasePointRoundTrip) {
  const auto enc = Ge25519::base_point().to_bytes();
  EXPECT_EQ(to_hex(enc),
            "5866666666666666666666666666666666666666666666666666666666666666");
  const auto decoded = Ge25519::from_bytes(enc);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, Ge25519::base_point());
}

TEST(Ge25519, AddIdentity) {
  const auto& b = Ge25519::base_point();
  EXPECT_EQ(b.add(Ge25519::identity()), b);
  EXPECT_EQ(Ge25519::identity().add(b), b);
}

TEST(Ge25519, DoubleMatchesAdd) {
  const auto& b = Ge25519::base_point();
  EXPECT_EQ(b.dbl(), b.add(b));
  const auto b2 = b.dbl();
  EXPECT_EQ(b2.dbl(), b2.add(b2));
}

TEST(Ge25519, NegatePlusSelfIsIdentity) {
  const auto& b = Ge25519::base_point();
  EXPECT_TRUE(b.add(b.negate()).is_identity());
  const auto p = b.scalar_mul(scalar_of(12345));
  EXPECT_TRUE(p.sub(p).is_identity());
}

TEST(Ge25519, AdditionCommutesAndAssociates) {
  const auto& b = Ge25519::base_point();
  const auto p = b.scalar_mul(scalar_of(7));
  const auto q = b.scalar_mul(scalar_of(11));
  const auto r = b.scalar_mul(scalar_of(13));
  EXPECT_EQ(p.add(q), q.add(p));
  EXPECT_EQ(p.add(q).add(r), p.add(q.add(r)));
}

TEST(Ge25519, ScalarMulMatchesRepeatedAdd) {
  const auto& b = Ge25519::base_point();
  Ge25519 acc = Ge25519::identity();
  for (std::uint64_t k = 0; k <= 40; ++k) {
    EXPECT_EQ(b.scalar_mul(scalar_of(k)), acc) << "k=" << k;
    acc = acc.add(b);
  }
}

TEST(Ge25519, ScalarMulDistributes) {
  Rng rng(201);
  const auto& b = Ge25519::base_point();
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t m = rng.uniform(1 << 20);
    const std::uint64_t n = rng.uniform(1 << 20);
    const auto lhs = b.scalar_mul(scalar_of(m + n));
    const auto rhs = b.scalar_mul(scalar_of(m)).add(b.scalar_mul(scalar_of(n)));
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(Ge25519, OrderTimesBaseIsIdentity) {
  // L = 2^252 + 27742317777372353535851937790883648493 (little-endian bytes).
  const auto order =
      from_hex("edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  std::array<std::uint8_t, 32> l{};
  std::copy(order.begin(), order.end(), l.begin());
  EXPECT_TRUE(Ge25519::base_point().scalar_mul(l).is_identity());
}

TEST(Ge25519, CompressDecompressRandomPoints) {
  Rng rng(202);
  for (int i = 0; i < 25; ++i) {
    const auto p = Ge25519::base_point().scalar_mul(random_scalar(rng));
    const auto enc = p.to_bytes();
    const auto dec = Ge25519::from_bytes(enc);
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(*dec, p);
    EXPECT_EQ(dec->to_bytes(), enc);
  }
}

TEST(Ge25519, RejectsNonCurveEncoding) {
  // y = 2 gives x^2 = 3/(4d+1), which is not a quadratic residue for this d.
  int rejected = 0;
  for (std::uint8_t y = 2; y < 12; ++y) {
    Bytes enc(32, 0);
    enc[0] = y;
    if (!Ge25519::from_bytes(enc)) ++rejected;
  }
  EXPECT_GT(rejected, 0);  // roughly half of all y values are off-curve
}

TEST(Ge25519, RejectsWrongLength) {
  EXPECT_FALSE(Ge25519::from_bytes(Bytes(31, 0)).has_value());
  EXPECT_FALSE(Ge25519::from_bytes(Bytes(33, 0)).has_value());
}

TEST(Ge25519, RejectsNegativeZeroX) {
  // y = 1 implies x = 0; the sign bit must then be 0.
  Bytes enc(32, 0);
  enc[0] = 1;
  enc[31] = 0x80;
  EXPECT_FALSE(Ge25519::from_bytes(enc).has_value());
  enc[31] = 0x00;
  const auto p = Ge25519::from_bytes(enc);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->is_identity());
}

TEST(Ge25519, RejectsNonCanonicalY) {
  // y = p and y = p + 1 reduce to 0 and 1: without the check they decode to
  // the order-4 points and to the identity, second encodings of points that
  // already have one. RFC 8032 §5.1.3 requires decoding to fail for y >= p.
  for (const char* hex : {
           "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // y = p
           "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
           "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // y = p + 1
           "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
           "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // y = 2^255 - 1
       }) {
    EXPECT_FALSE(Ge25519::from_bytes(from_hex(hex)).has_value()) << hex;
  }
  // y = p - 1 is canonical: the point (0, -1) of order 2.
  const auto minus_one = Ge25519::from_bytes(
      from_hex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"));
  ASSERT_TRUE(minus_one.has_value());
  EXPECT_FALSE(minus_one->is_identity());
  EXPECT_TRUE(minus_one->dbl().is_identity());
  // The canonical encodings of what y = p and y = p + 1 used to decode to.
  EXPECT_TRUE(decode_hex("0000000000000000000000000000000000000000000000000000000000000000")
                  .dbl_times(2)
                  .is_identity());
  EXPECT_TRUE(decode_hex("0100000000000000000000000000000000000000000000000000000000000000")
                  .is_identity());
}

TEST(Ge25519, BatchEncodingMatchesToBytes) {
  Rng rng(205);
  const auto& b = Ge25519::base_point();
  // Z = 1 points (decompressed), the identity, projective points from
  // additions and multiplications, and points outside the prime-order
  // subgroup.
  std::vector<Ge25519> pool = {
      decode_hex("5866666666666666666666666666666666666666666666666666666666666666"),
      Ge25519::identity(),
      b.scalar_mul(random_scalar(rng)),
      decode_hex(kOrder8),
      b.dbl().add(b),
      Ge25519::from_bytes(b.scalar_mul(random_scalar(rng)).to_bytes()).value(),
      b.scalar_mul(random_scalar(rng)).negate(),
      b.sub(b),
  };
  for (std::size_t n = 1; n <= 5; ++n) {
    for (std::size_t first = 0; first + n <= pool.size(); ++first) {
      std::vector<std::array<std::uint8_t, 32>> out(n);
      Ge25519::to_bytes_batch(std::span(pool).subspan(first, n), out);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], pool[first + i].to_bytes()) << "n=" << n << " point " << first + i;
      }
    }
  }
  Ge25519::to_bytes_batch({}, {});  // an empty batch does nothing
}

TEST(Ge25519, CofactorMulIsThreeDoublings) {
  const auto p = Ge25519::base_point().scalar_mul(scalar_of(999));
  EXPECT_EQ(p.mul_by_cofactor(), p.scalar_mul(scalar_of(8)));
}

TEST(Ge25519, ScalarMulByZeroAndOne) {
  const auto& b = Ge25519::base_point();
  EXPECT_TRUE(b.scalar_mul(scalar_of(0)).is_identity());
  EXPECT_EQ(b.scalar_mul(scalar_of(1)), b);
}

TEST(Ge25519, DblTimesMatchesRepeatedDoubling) {
  const auto p = Ge25519::base_point().scalar_mul(scalar_of(12345));
  Ge25519 expected = p;
  for (int n = 0; n <= 5; ++n) {
    EXPECT_EQ(p.dbl_times(n).to_bytes(), expected.to_bytes()) << "n=" << n;
    expected = expected.dbl();
  }
}

TEST(Ge25519, BaseTableMatchesVariableBaseOnEdgeScalars) {
  const auto& b = Ge25519::base_point();
  for (const auto& k : edge_scalars()) {
    const auto expected = reference_mul(b, k).to_bytes();
    EXPECT_EQ(ge_scalar_mul_base(k).to_bytes(), expected) << to_hex(k);
    EXPECT_EQ(b.scalar_mul(k).to_bytes(), expected) << to_hex(k);
  }
}

TEST(Ge25519, BaseTableMatchesVariableBaseOnRandomScalars) {
  Rng rng(203);
  const auto& b = Ge25519::base_point();
  for (int i = 0; i < 64; ++i) {
    std::array<std::uint8_t, 32> k{};
    for (auto& byte : k) byte = static_cast<std::uint8_t>(rng.next_u64());
    if (i % 2 == 0) k[31] &= 0x0f;  // half below 2^252, half full-width
    const auto expected = b.scalar_mul(k).to_bytes();
    EXPECT_EQ(ge_scalar_mul_base(k).to_bytes(), expected) << to_hex(k);
    if (i < 8) {
      EXPECT_EQ(reference_mul(b, k).to_bytes(), expected) << to_hex(k);
    }
  }
}

// The signed windows use the scalar's full 256 bits (the final carry digit
// included) and never reduce it mod L, so on points with a torsion
// component they must still agree with plain double-and-add.
TEST(Ge25519, SignedWindowsMatchReferenceOnTorsionPoints) {
  Rng rng(206);
  const Ge25519 t8 = decode_hex(kOrder8);
  ASSERT_FALSE(t8.dbl_times(2).is_identity());
  ASSERT_TRUE(t8.mul_by_cofactor().is_identity());
  const Ge25519 p = ge_scalar_mul_base(random_scalar(rng)).add(t8);
  const Ge25519 q = t8.negate();
  for (const auto& k : edge_scalars()) {
    const auto expected = reference_mul(p, k);
    EXPECT_EQ(p.scalar_mul(k).to_bytes(), expected.to_bytes()) << to_hex(k);
    EXPECT_EQ(q.scalar_mul(k).to_bytes(), reference_mul(q, k).to_bytes()) << to_hex(k);
    EXPECT_EQ(ge_double_scalar_mul(p, k, q, k).to_bytes(),
              expected.add(reference_mul(q, k)).to_bytes())
        << to_hex(k);
  }
}

TEST(Ge25519, DoubleScalarMulMatchesSeparateProducts) {
  Rng rng(204);
  auto scalars = edge_scalars();
  for (int i = 0; i < 16; ++i) scalars.push_back(random_scalar(rng));
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    const auto p = ge_scalar_mul_base(random_scalar(rng));
    const auto q = ge_scalar_mul_base(random_scalar(rng));
    const auto& a = scalars[i];
    const auto& c = scalars[(i * 7 + 3) % scalars.size()];
    const auto expected = p.scalar_mul(a).add(q.scalar_mul(c)).to_bytes();
    EXPECT_EQ(ge_double_scalar_mul(p, a, q, c).to_bytes(), expected) << i;
    if (i < 4) {
      EXPECT_EQ(reference_mul(p, a).add(reference_mul(q, c)).to_bytes(), expected) << i;
    }
  }
  // The VRF verifier's shape: s*H - c*Gamma with a 128-bit c.
  const auto h = ge_scalar_mul_base(random_scalar(rng));
  const auto gamma = ge_scalar_mul_base(random_scalar(rng));
  const auto s = random_scalar(rng);
  auto c = random_scalar(rng);
  std::fill(c.begin() + 16, c.end(), 0);
  EXPECT_EQ(ge_double_scalar_mul(h, s, gamma.negate(), c).to_bytes(),
            h.scalar_mul(s).sub(gamma.scalar_mul(c)).to_bytes());
  EXPECT_TRUE(ge_double_scalar_mul(h, scalar_of(0), gamma, scalar_of(0)).is_identity());
}

// A comb of P gives P.scalar_mul(k) for every scalar below 2^255: on
// random points, on points with an order-8 component and on every
// decodable small-order point (where the table's rows repeat), for 0, 1,
// L - 1, 2^128 - 1, 2^252 and random scalars below L. Checked for the
// three combs in use: H's 4 rows, a key's 8 and B's 64.
template <std::size_t Rows>
void expect_comb_matches_scalar_mul(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::array<std::uint8_t, 32>> scalars = {
      scalar_of(0), scalar_of(1),
      scalar_from_hex("ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010"),
      scalar_from_hex("ffffffffffffffffffffffffffffffff00000000000000000000000000000000"),
      scalar_from_hex("0000000000000000000000000000000000000000000000000000000000000010")};
  for (int i = 0; i < 8; ++i) {
    Bytes wide(64);
    for (auto& b : wide) b = static_cast<std::uint8_t>(rng.next_u64());
    scalars.push_back(Scalar::reduce(wide).bytes());
  }
  std::vector<Ge25519> points;
  for (int i = 0; i < 3; ++i) points.push_back(ge_scalar_mul_base(random_scalar(rng)));
  points.push_back(points[0].add(decode_hex(kOrder8)));
  for (const char* small_order : {
           "0100000000000000000000000000000000000000000000000000000000000000",  // identity
           "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // order 2
           "0000000000000000000000000000000000000000000000000000000000000000",  // order 4
           "0000000000000000000000000000000000000000000000000000000000000080",  // order 4
           kOrder8,
       }) {
    points.push_back(decode_hex(small_order));
  }
  for (std::size_t p = 0; p < points.size(); ++p) {
    const GeComb<Rows> comb(points[p]);
    for (const auto& k : scalars) {
      EXPECT_EQ(comb.mul(k).to_bytes(), points[p].scalar_mul(k).to_bytes())
          << Rows << " rows, point " << p << ", k = " << to_hex(k);
    }
  }
}

TEST(Ge25519, CombMatchesScalarMulWith4Rows) { expect_comb_matches_scalar_mul<4>(207); }
TEST(Ge25519, CombMatchesScalarMulWith8Rows) { expect_comb_matches_scalar_mul<8>(208); }
TEST(Ge25519, CombMatchesScalarMulWith64Rows) { expect_comb_matches_scalar_mul<64>(209); }

// The comb has no row for a final carry digit, and reducing mod L is wrong
// for a point with a torsion component, so it refuses scalars >= 2^255.
TEST(Ge25519, CombRejectsScalarsFrom2To255) {
  const GeComb<8> comb(Ge25519::base_point());
  std::array<std::uint8_t, 32> k{};
  k[31] = 0x80;
  EXPECT_THROW((void)comb.mul(k), EnsureError);
  k[31] = 0x7f;
  EXPECT_NO_THROW((void)comb.mul(k));
}

}  // namespace
}  // namespace accountnet::crypto
