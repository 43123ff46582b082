// Algebraic property tests for GF(2^255 - 19) arithmetic.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "accountnet/crypto/fe25519.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::crypto {
namespace {

Fe25519 random_fe(Rng& rng) {
  Bytes b(32);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
  return Fe25519::from_bytes(b);
}

TEST(Fe25519, ZeroAndOne) {
  EXPECT_TRUE(Fe25519::zero().is_zero());
  EXPECT_FALSE(Fe25519::one().is_zero());
  EXPECT_EQ(to_hex(Fe25519::one().to_bytes()),
            "0100000000000000000000000000000000000000000000000000000000000000");
}

TEST(Fe25519, PEncodesAsZero) {
  // p = 2^255 - 19 is non-canonical; from_bytes must reduce it to 0.
  const auto p = from_hex("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  EXPECT_TRUE(Fe25519::from_bytes(p).is_zero());
}

TEST(Fe25519, PPlusOneEncodesAsOne) {
  const auto p1 = from_hex("eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  EXPECT_EQ(Fe25519::from_bytes(p1), Fe25519::one());
}

TEST(Fe25519, TopBitIgnoredOnLoad) {
  auto lo = from_hex("0500000000000000000000000000000000000000000000000000000000000000");
  auto hi = lo;
  hi[31] |= 0x80;
  EXPECT_EQ(Fe25519::from_bytes(lo), Fe25519::from_bytes(hi));
}

TEST(Fe25519, RoundTripCanonical) {
  Rng rng(101);
  for (int i = 0; i < 200; ++i) {
    const Fe25519 x = random_fe(rng);
    EXPECT_EQ(Fe25519::from_bytes(x.to_bytes()), x);
  }
}

TEST(Fe25519, AdditionCommutesAndAssociates) {
  Rng rng(102);
  for (int i = 0; i < 100; ++i) {
    const Fe25519 a = random_fe(rng), b = random_fe(rng), c = random_fe(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
  }
}

TEST(Fe25519, MultiplicationCommutesAndAssociates) {
  Rng rng(103);
  for (int i = 0; i < 100; ++i) {
    const Fe25519 a = random_fe(rng), b = random_fe(rng), c = random_fe(rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
  }
}

TEST(Fe25519, Distributivity) {
  Rng rng(104);
  for (int i = 0; i < 100; ++i) {
    const Fe25519 a = random_fe(rng), b = random_fe(rng), c = random_fe(rng);
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST(Fe25519, SubtractionInvertsAddition) {
  Rng rng(105);
  for (int i = 0; i < 100; ++i) {
    const Fe25519 a = random_fe(rng), b = random_fe(rng);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ(a - a, Fe25519::zero());
  }
}

TEST(Fe25519, NegateIsAdditiveInverse) {
  Rng rng(106);
  for (int i = 0; i < 100; ++i) {
    const Fe25519 a = random_fe(rng);
    EXPECT_TRUE((a + a.negate()).is_zero());
  }
}

TEST(Fe25519, SquareMatchesSelfMultiply) {
  Rng rng(107);
  for (int i = 0; i < 100; ++i) {
    const Fe25519 a = random_fe(rng);
    EXPECT_EQ(a.square(), a * a);
  }
}

TEST(Fe25519, InverseProperty) {
  Rng rng(108);
  for (int i = 0; i < 50; ++i) {
    const Fe25519 a = random_fe(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a * a.invert(), Fe25519::one());
  }
}

TEST(Fe25519, InverseOfZeroIsZero) {
  EXPECT_TRUE(Fe25519::zero().invert().is_zero());
}

TEST(Fe25519, SqrtM1SquaresToMinusOne) {
  EXPECT_EQ(fe_sqrt_m1().square(), Fe25519::one().negate());
}

TEST(Fe25519, EdwardsDConstant) {
  // d = -121665 / 121666 (mod p)  <=>  121666 * d + 121665 == 0.
  const Fe25519 lhs = Fe25519::from_u64(121666) * fe_edwards_d() + Fe25519::from_u64(121665);
  EXPECT_TRUE(lhs.is_zero());
  EXPECT_EQ(fe_edwards_2d(), fe_edwards_d() + fe_edwards_d());
}

TEST(Fe25519, Pow22523Property) {
  // For a square u, (u^((p-5)/8))^4 * u^2 should relate via x^2 = u chains.
  // Direct check: x = u^((p+3)/8) = u * u^((p-5)/8) satisfies x^4 = u^2 ... we
  // verify the weaker identity used by decompression: with r = u*pow22523(u),
  // either r^2 == u or r^2 == -u when u is a square or sqrt(-1)-twisted.
  Rng rng(109);
  int checked = 0;
  for (int i = 0; i < 50 && checked < 20; ++i) {
    const Fe25519 u = random_fe(rng).square();  // guaranteed square
    if (u.is_zero()) continue;
    const Fe25519 r = u * u.pow22523();
    const Fe25519 r2 = r.square();
    EXPECT_TRUE(r2 == u || r2 == u.negate());
    ++checked;
  }
  EXPECT_GE(checked, 20);
}

// Square-and-multiply over the exponent's bits, MSB first: the reference the
// addition chains in invert() and pow22523() are checked against.
Fe25519 reference_pow(const Fe25519& x, const char* exponent_le_hex) {
  const Bytes e = from_hex(exponent_le_hex);
  Fe25519 acc = Fe25519::one();
  for (int bit = 255; bit >= 0; --bit) {
    acc = acc.square();
    if ((e[static_cast<std::size_t>(bit / 8)] >> (bit % 8)) & 1) acc = acc * x;
  }
  return acc;
}

// p - 2 = 2^255 - 21 and (p - 5) / 8 = 2^252 - 3, little-endian.
const char* kPMinus2 = "ebffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
const char* kPMinus5Over8 = "fdffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff0f";

TEST(Fe25519, AdditionChainsMatchSquareAndMultiply) {
  Rng rng(110);
  std::vector<Fe25519> inputs = {Fe25519::zero(), Fe25519::one(), Fe25519::one().negate(),
                                 Fe25519::from_u64(2), fe_sqrt_m1(), fe_edwards_d()};
  for (int i = 0; i < 32; ++i) inputs.push_back(random_fe(rng));
  for (const auto& x : inputs) {
    EXPECT_EQ(x.invert().to_bytes(), reference_pow(x, kPMinus2).to_bytes()) << to_hex(x.to_bytes());
    EXPECT_EQ(x.pow22523().to_bytes(), reference_pow(x, kPMinus5Over8).to_bytes())
        << to_hex(x.to_bytes());
  }
}

// Test-local reference for GF(2^255 - 19): a 256-bit integer in four 64-bit
// limbs, fully reduced after every operation, so it has no lazy carries.
using u64 = std::uint64_t;
using u128 = unsigned __int128;
using Ref = std::array<u64, 4>;

constexpr Ref kRefP = {0xffffffffffffffedULL, 0xffffffffffffffffULL, 0xffffffffffffffffULL,
                       0x7fffffffffffffffULL};

bool ref_geq(const Ref& a, const Ref& b) {
  for (int i = 3; i >= 0; --i) {
    if (a[static_cast<std::size_t>(i)] != b[static_cast<std::size_t>(i)]) {
      return a[static_cast<std::size_t>(i)] > b[static_cast<std::size_t>(i)];
    }
  }
  return true;
}

Ref ref_sub_raw(const Ref& a, const Ref& b) {  // a - b mod 2^256
  Ref r{};
  u64 borrow = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    r[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  return r;
}

// Reduces lo + 2^256 * hi mod p through 2^256 = 38 (mod p).
Ref ref_fold(const std::array<u64, 8>& t) {
  Ref r{};
  u128 c = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    c += static_cast<u128>(t[i]) + static_cast<u128>(t[i + 4]) * 38;
    r[i] = static_cast<u64>(c);
    c >>= 64;
  }
  while (c != 0) {  // fold the carry back in until none is left
    u128 k = c * 38;
    for (std::size_t i = 0; i < 4; ++i) {
      k += r[i];
      r[i] = static_cast<u64>(k);
      k >>= 64;
    }
    c = k;
  }
  while (ref_geq(r, kRefP)) r = ref_sub_raw(r, kRefP);
  return r;
}

Ref ref_add(const Ref& a, const Ref& b) {
  std::array<u64, 8> t{};
  u128 c = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    c += static_cast<u128>(a[i]) + b[i];
    t[i] = static_cast<u64>(c);
    c >>= 64;
  }
  t[4] = static_cast<u64>(c);
  return ref_fold(t);
}

Ref ref_sub(const Ref& a, const Ref& b) {
  return ref_geq(a, b) ? ref_sub_raw(a, b) : ref_add(a, ref_sub_raw(kRefP, b));
}

Ref ref_mul(const Ref& a, const Ref& b) {
  std::array<u64, 8> t{};
  for (std::size_t i = 0; i < 4; ++i) {
    u128 c = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      c += static_cast<u128>(a[i]) * b[j] + t[i + j];
      t[i + j] = static_cast<u64>(c);
      c >>= 64;
    }
    t[i + 4] = static_cast<u64>(c);
  }
  return ref_fold(t);
}

Ref ref_from_bytes(const Bytes& b) {  // top bit ignored, like Fe25519
  std::array<u64, 8> t{};
  for (std::size_t i = 0; i < 32; ++i) t[i / 8] |= static_cast<u64>(b[i]) << (8 * (i % 8));
  t[3] &= 0x7fffffffffffffffULL;
  return ref_fold(t);
}

std::array<std::uint8_t, 32> ref_to_bytes(const Ref& r) {
  std::array<std::uint8_t, 32> out{};
  for (std::size_t i = 0; i < 32; ++i) out[i] = static_cast<std::uint8_t>(r[i / 8] >> (8 * (i % 8)));
  return out;
}

// An Fe25519 and its reference value, carried through the same operations.
struct Both {
  Fe25519 fe;
  Ref ref;
};
Both operator+(const Both& a, const Both& b) { return {a.fe + b.fe, ref_add(a.ref, b.ref)}; }
Both operator-(const Both& a, const Both& b) { return {a.fe - b.fe, ref_sub(a.ref, b.ref)}; }
Both operator*(const Both& a, const Both& b) { return {a.fe * b.fe, ref_mul(a.ref, b.ref)}; }
Both square(const Both& a) { return {a.fe.square(), ref_mul(a.ref, a.ref)}; }
Both negate(const Both& a) { return {a.fe.negate(), ref_sub(Ref{}, a.ref)}; }

Both both_from_bytes(const Bytes& b) { return {Fe25519::from_bytes(b), ref_from_bytes(b)}; }

// The operand chains of the group formulas (doubling, cached and mixed
// addition, decompression), where + leaves its limbs uncarried, fed with
// inputs whose limbs are all at the 2^51 - 1 maximum from_bytes produces
// and with random ones. Every result must equal the eagerly reduced
// reference.
TEST(Fe25519, LazyCarryChainsMatchReference) {
  Rng rng(111);
  std::vector<Bytes> encodings = {
      from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),  // 2^255 - 1
      from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
      from_hex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),  // p - 1
      from_hex("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),  // p
      from_hex("0000000000000000000000000000000000000000000000000000000000000000"),
  };
  for (int i = 0; i < 12; ++i) {
    Bytes b(32);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
    encodings.push_back(b);
  }
  const std::size_t n = encodings.size();
  const Both ed = both_from_bytes(
      from_hex("a3785913ca4deb75abd841414d0a700098e879777940c78c73fe6f2bee6c0352"));
  const Both ed2 = ed + ed;  // as fe_edwards_2d(): an uncarried sum
  const Both one =
      both_from_bytes(from_hex("0100000000000000000000000000000000000000000000000000000000000000"));
  auto check = [](const Both& v, const char* what, std::size_t i) {
    EXPECT_EQ(v.fe.to_bytes(), ref_to_bytes(v.ref)) << what << " input " << i;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Both x = both_from_bytes(encodings[i]);
    const Both y = both_from_bytes(encodings[(i + 1) % n]);
    const Both z = both_from_bytes(encodings[(i + 2) % n]);
    const Both t = both_from_bytes(encodings[(i + 3) % n]);

    // dbl_times
    const Both xx = square(x), yy = square(y), zz = square(z);
    const Both sum = yy + xx;
    const Both diff = yy - xx;
    const Both e = square(x + y) - sum;
    const Both f = zz + zz - diff;
    check(e * f, "dbl X", i);
    check(sum * diff, "dbl Y", i);
    check(diff * f, "dbl Z", i);
    check(e * sum, "dbl T", i);

    // add_cached / madd, both signs, with a cached second operand (y, x, z, t)
    const Both ypx = y + x, ymx = y - x, z2 = z + z, t2d = t * ed2;
    for (const bool neg : {false, true}) {
      const Both a = (x - y) * (neg ? ypx : ymx);
      const Both b = (x + y) * (neg ? ymx : ypx);
      const Both c = t * t2d;
      const Both d = z * z2;
      const Both ee = b - a;
      const Both ff = neg ? d + c : d - c;
      const Both gg = neg ? d - c : d + c;
      const Both hh = b + a;
      check(ee * ff, "add X", i);
      check(gg * hh, "add Y", i);
      check(ff * gg, "add Z", i);
      check(ee * hh, "add T", i);
      check(z2 - c, "madd f", i);
      check(negate(hh), "negate sum", i);
    }

    // from_bytes: u = y^2 - 1, v = d y^2 + 1
    const Both v = yy * ed + one;
    check(square(v) * v, "v^3", i);
    check(yy - one, "u", i);
  }
}

TEST(Fe25519, IsNegativeMatchesLsb) {
  EXPECT_FALSE(Fe25519::zero().is_negative());
  EXPECT_TRUE(Fe25519::one().is_negative());
  EXPECT_FALSE(Fe25519::from_u64(2).is_negative());
}

TEST(Fe25519, FromU64LargeValue) {
  const auto x = Fe25519::from_u64(UINT64_MAX);
  const auto b = x.to_bytes();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(b[static_cast<std::size_t>(i)], 0xff);
  for (int i = 8; i < 32; ++i) EXPECT_EQ(b[static_cast<std::size_t>(i)], 0x00);
}

}  // namespace
}  // namespace accountnet::crypto
