// Scalar arithmetic mod L property tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "accountnet/crypto/sc25519.hpp"
#include "accountnet/util/ensure.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::crypto {
namespace {

const char* kOrderHex =
    "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010";

Scalar random_scalar(Rng& rng) {
  Bytes b(64);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
  return Scalar::reduce(b);
}

TEST(Scalar, ZeroDefault) {
  EXPECT_TRUE(Scalar().is_zero());
}

TEST(Scalar, OrderReducesToZero) {
  EXPECT_TRUE(Scalar::reduce(from_hex(kOrderHex)).is_zero());
}

TEST(Scalar, OrderPlusOneReducesToOne) {
  auto bytes = from_hex(kOrderHex);
  bytes[0] += 1;  // L + 1 (no carry: low byte of L is 0xed)
  EXPECT_EQ(Scalar::reduce(bytes), Scalar::from_u64(1));
}

TEST(Scalar, SmallValuesUnchanged) {
  for (std::uint64_t v : {0ULL, 1ULL, 255ULL, 65536ULL, 0xffffffffffffffffULL}) {
    Bytes b(8);
    for (int i = 0; i < 8; ++i) b[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
    EXPECT_EQ(Scalar::reduce(b), Scalar::from_u64(v));
  }
}

TEST(Scalar, FromCanonicalAcceptsBelowOrder) {
  Scalar s;
  auto below = from_hex(kOrderHex);
  below[0] -= 1;  // L - 1
  EXPECT_TRUE(Scalar::from_canonical(below, s));
  EXPECT_EQ(Bytes(s.bytes().begin(), s.bytes().end()), below);
}

TEST(Scalar, FromCanonicalRejectsOrderAndAbove) {
  Scalar s;
  EXPECT_FALSE(Scalar::from_canonical(from_hex(kOrderHex), s));
  Bytes max(32, 0xff);
  EXPECT_FALSE(Scalar::from_canonical(max, s));
  EXPECT_FALSE(Scalar::from_canonical(Bytes(31, 0), s));
}

TEST(Scalar, AddCommutesAndWraps) {
  Rng rng(301);
  for (int i = 0; i < 100; ++i) {
    const Scalar a = random_scalar(rng), b = random_scalar(rng);
    EXPECT_EQ(a.add(b), b.add(a));
  }
  // (L-1) + 1 == 0.
  auto lm1 = from_hex(kOrderHex);
  lm1[0] -= 1;
  Scalar a;
  ASSERT_TRUE(Scalar::from_canonical(lm1, a));
  EXPECT_TRUE(a.add(Scalar::from_u64(1)).is_zero());
}

TEST(Scalar, MulCommutesAssociatesDistributes) {
  Rng rng(302);
  for (int i = 0; i < 50; ++i) {
    const Scalar a = random_scalar(rng), b = random_scalar(rng), c = random_scalar(rng);
    EXPECT_EQ(a.mul(b), b.mul(a));
    EXPECT_EQ(a.mul(b).mul(c), a.mul(b.mul(c)));
    EXPECT_EQ(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
  }
}

TEST(Scalar, MulIdentityAndZero) {
  Rng rng(303);
  const Scalar one = Scalar::from_u64(1);
  for (int i = 0; i < 20; ++i) {
    const Scalar a = random_scalar(rng);
    EXPECT_EQ(a.mul(one), a);
    EXPECT_TRUE(a.mul(Scalar()).is_zero());
  }
}

TEST(Scalar, MulAddMatchesComposition) {
  Rng rng(304);
  for (int i = 0; i < 50; ++i) {
    const Scalar a = random_scalar(rng), b = random_scalar(rng), c = random_scalar(rng);
    EXPECT_EQ(Scalar::muladd(a, b, c), a.mul(b).add(c));
  }
}

TEST(Scalar, KnownProduct) {
  // 2^128 * 2^128 = 2^256 mod L; 2^256 mod L is a fixed constant we can pin
  // by computing it two independent ways.
  Bytes two128(32, 0);
  two128[16] = 1;
  Scalar a;
  ASSERT_TRUE(Scalar::from_canonical(two128, a));
  const Scalar direct = a.mul(a);

  Bytes two256_le(33, 0);
  two256_le[32] = 1;
  EXPECT_EQ(Scalar::reduce(two256_le), direct);
}

TEST(Scalar, Reduce64ByteInput) {
  Rng rng(305);
  Bytes b(64);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
  // reduce(b) == reduce(lo) + reduce(hi) * 2^256 mod L, checked via split.
  Bytes lo(b.begin(), b.begin() + 32);
  Bytes hi(b.begin() + 32, b.end());
  Bytes two256_le(33, 0);
  two256_le[32] = 1;
  const Scalar expected =
      Scalar::reduce(lo).add(Scalar::reduce(hi).mul(Scalar::reduce(two256_le)));
  EXPECT_EQ(Scalar::reduce(b), expected);
}

// Bit-serial shift-subtract long division of a 64-byte little-endian value
// by L: the reference the word-level reduction is checked against.
Bytes reference_reduce(const Bytes& le64) {
  const Bytes order = from_hex(kOrderHex);
  Bytes r(33, 0);  // running remainder, always < 2L < 2^254
  for (int bit = 511; bit >= 0; --bit) {
    // r = 2r + bit
    int carry = (le64[static_cast<std::size_t>(bit / 8)] >> (bit % 8)) & 1;
    for (auto& byte : r) {
      const int v = (byte << 1) | carry;
      byte = static_cast<std::uint8_t>(v);
      carry = v >> 8;
    }
    // if r >= L: r -= L
    bool geq = true;
    for (int i = 32; i >= 0; --i) {
      const int o = i < 32 ? order[static_cast<std::size_t>(i)] : 0;
      if (r[static_cast<std::size_t>(i)] != o) {
        geq = r[static_cast<std::size_t>(i)] > o;
        break;
      }
    }
    if (!geq) continue;
    int borrow = 0;
    for (std::size_t i = 0; i < r.size(); ++i) {
      const int v = r[i] - (i < 32 ? order[i] : 0) - borrow;
      r[i] = static_cast<std::uint8_t>(v);
      borrow = v < 0 ? 1 : 0;
    }
  }
  return Bytes(r.begin(), r.begin() + 32);
}

Bytes le64_from_multiple_of_order(unsigned multiple) {
  const Bytes order = from_hex(kOrderHex);
  Bytes out(64, 0);
  unsigned carry = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    const unsigned v = (i < 32 ? order[i] : 0u) * multiple + carry;
    out[i] = static_cast<std::uint8_t>(v);
    carry = v >> 8;
  }
  return out;
}

TEST(Scalar, WordLevelReduceMatchesShiftSubtract) {
  std::vector<Bytes> inputs = {Bytes(64, 0x00), Bytes(64, 0xff)};
  Bytes order_minus_one = le64_from_multiple_of_order(1);
  order_minus_one[0] -= 1;  // L ends in 0xed: no borrow
  inputs.push_back(order_minus_one);
  inputs.push_back(le64_from_multiple_of_order(1));
  inputs.push_back(le64_from_multiple_of_order(2));
  Rng rng(306);
  for (int i = 0; i < 200; ++i) {
    Bytes b(64);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
    // Vary the magnitude so every quotient size is covered.
    std::fill(b.begin() + 64 - (i % 40), b.end(), 0);
    inputs.push_back(b);
  }
  for (const auto& in : inputs) {
    EXPECT_EQ(to_hex(Scalar::reduce(in).bytes()), to_hex(reference_reduce(in))) << to_hex(in);
  }
  EXPECT_TRUE(Scalar::reduce(le64_from_multiple_of_order(2)).is_zero());
  EXPECT_EQ(to_hex(Scalar::reduce(order_minus_one).bytes()),
            to_hex(Bytes(order_minus_one.begin(), order_minus_one.begin() + 32)));
}

TEST(Scalar, ReduceRejectsOverlongInput) {
  EXPECT_THROW(Scalar::reduce(Bytes(65, 0)), EnsureError);
}

}  // namespace
}  // namespace accountnet::crypto
