// OrderStatIndex: insert/erase/kth against a std::set reference.
#include <gtest/gtest.h>

#include <iterator>
#include <set>

#include "accountnet/util/ensure.hpp"
#include "accountnet/util/order_stat.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet {
namespace {

void expect_matches(const OrderStatIndex& idx, const std::set<std::size_t>& ref) {
  ASSERT_EQ(idx.size(), ref.size());
  EXPECT_EQ(idx.empty(), ref.empty());
  std::size_t k = 0;
  for (const std::size_t v : ref) {
    EXPECT_EQ(idx.kth(k), v) << "k " << k;
    ++k;
  }
}

TEST(OrderStatIndex, EmptyIndex) {
  const OrderStatIndex idx(10);
  EXPECT_TRUE(idx.empty());
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_THROW(idx.kth(0), EnsureError);
  const OrderStatIndex none(0);
  EXPECT_TRUE(none.empty());
  EXPECT_THROW(none.kth(0), EnsureError);
}

TEST(OrderStatIndex, SingleElement) {
  OrderStatIndex one(1);
  EXPECT_TRUE(one.insert(0));
  EXPECT_FALSE(one.insert(0));
  EXPECT_EQ(one.kth(0), 0u);
  EXPECT_THROW(one.kth(1), EnsureError);
  EXPECT_TRUE(one.erase(0));
  EXPECT_FALSE(one.erase(0));
  EXPECT_TRUE(one.empty());

  OrderStatIndex idx(37);
  idx.insert(36);  // the last slot, past every power of two below n
  EXPECT_EQ(idx.kth(0), 36u);
  EXPECT_THROW(idx.insert(37), EnsureError);
}

// Seeded random insert/erase streams over sizes around powers of two; after
// every step the size, membership and every rank agree with std::set.
TEST(OrderStatIndex, SeededOpsMatchStdSet) {
  for (const std::size_t n : {1u, 2u, 3u, 7u, 8u, 9u, 64u, 100u, 257u}) {
    Rng rng(1000 + n);
    OrderStatIndex idx(n);
    std::set<std::size_t> ref;
    for (int step = 0; step < 600; ++step) {
      const std::size_t v = rng.uniform(n);
      if (rng.chance(0.6)) {
        EXPECT_EQ(idx.insert(v), ref.insert(v).second) << "n " << n;
      } else {
        EXPECT_EQ(idx.erase(v), ref.erase(v) > 0) << "n " << n;
      }
      ASSERT_EQ(idx.size(), ref.size()) << "n " << n << " step " << step;
      if (!ref.empty()) {
        const std::size_t k = rng.uniform(ref.size());
        EXPECT_EQ(idx.kth(k), *std::next(ref.begin(), static_cast<std::ptrdiff_t>(k)))
            << "n " << n << " step " << step;
      }
    }
    expect_matches(idx, ref);
    for (const std::size_t v : std::set<std::size_t>(ref)) {
      idx.erase(v);
      ref.erase(v);
      expect_matches(idx, ref);
    }
    EXPECT_TRUE(idx.empty());
  }
}

}  // namespace
}  // namespace accountnet
