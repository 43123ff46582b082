// BoundedSet / BoundedMap: FIFO eviction, erase tolerance, log compaction.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accountnet/util/bounded.hpp"
#include "accountnet/util/ensure.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet {
namespace {

TEST(BoundedSet, InsertReportsNovelty) {
  BoundedSet<int> s(4);
  EXPECT_TRUE(s.insert(1));
  EXPECT_FALSE(s.insert(1));
  EXPECT_TRUE(s.contains(1));
  EXPECT_FALSE(s.contains(2));
  EXPECT_EQ(s.size(), 1u);
}

TEST(BoundedSet, EvictsOldestWhenFull) {
  BoundedSet<int> s(3);
  s.insert(1);
  s.insert(2);
  s.insert(3);
  EXPECT_EQ(s.evictions(), 0u);
  s.insert(4);  // evicts 1
  EXPECT_EQ(s.size(), 3u);
  EXPECT_FALSE(s.contains(1));
  EXPECT_TRUE(s.contains(2));
  EXPECT_TRUE(s.contains(4));
  EXPECT_EQ(s.evictions(), 1u);
  // An evicted key may be re-admitted later.
  EXPECT_TRUE(s.insert(1));
}

TEST(BoundedSet, EraseLeavesStaleLogEntriesHarmless) {
  BoundedSet<int> s(3);
  s.insert(1);
  s.insert(2);
  s.insert(3);
  EXPECT_TRUE(s.erase(2));
  EXPECT_FALSE(s.erase(2));
  s.insert(4);  // room from the erase; nothing evicted
  EXPECT_EQ(s.evictions(), 0u);
  s.insert(5);  // full again: evicts 1 (oldest resident), skipping stale 2
  EXPECT_FALSE(s.contains(1));
  EXPECT_TRUE(s.contains(3));
  EXPECT_EQ(s.evictions(), 1u);
}

TEST(BoundedSet, HeavyInsertEraseChurnStaysBounded) {
  BoundedSet<int> s(8);
  for (int i = 0; i < 10000; ++i) {
    s.insert(i);
    if (i % 2 == 0) s.erase(i);
  }
  EXPECT_LE(s.size(), 8u);
  // The compaction keeps the log O(capacity); indirectly observable via the
  // eviction count staying below total inserts.
  EXPECT_LT(s.evictions(), 10000u);
}

TEST(BoundedSet, ZeroCapacityRejected) {
  EXPECT_THROW(BoundedSet<int>(0), EnsureError);
}

TEST(BoundedMap, AtOrInsertDefaultConstructs) {
  BoundedMap<std::string, int> m(2);
  EXPECT_EQ(m.at_or_insert("a"), 0);
  ++m.at_or_insert("a");
  ++m.at_or_insert("a");
  EXPECT_EQ(*m.find("a"), 2);
  EXPECT_EQ(m.find("b"), nullptr);
}

TEST(BoundedMap, PutAndEvictOldest) {
  BoundedMap<std::string, int> m(2);
  m.put("a", 1);
  m.put("b", 2);
  m.put("a", 10);  // update, not a new insertion: no eviction
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.evictions(), 0u);
  m.put("c", 3);  // evicts "a" (oldest insertion)
  EXPECT_FALSE(m.contains("a"));
  EXPECT_EQ(*m.find("b"), 2);
  EXPECT_EQ(*m.find("c"), 3);
  EXPECT_EQ(m.evictions(), 1u);
}

TEST(BoundedMap, EraseFreesASlot) {
  BoundedMap<int, int> m(2);
  m.put(1, 1);
  m.put(2, 2);
  EXPECT_TRUE(m.erase(1));
  m.put(3, 3);
  EXPECT_EQ(m.evictions(), 0u);
  EXPECT_TRUE(m.contains(2));
  EXPECT_TRUE(m.contains(3));
}

// An erased key leaves a stale log entry behind. Inserting that key again
// into a full map must drop the stale entry, not evict the key it just
// inserted, and then evict the oldest resident key.
TEST(BoundedMap, ReinsertedKeySkipsItsOwnStaleLogEntry) {
  BoundedMap<int, int> m(2);
  m.put(1, 1);
  m.put(2, 2);
  EXPECT_TRUE(m.erase(1));
  m.put(3, 3);   // log: 1 (stale), 2, 3
  m.put(1, 10);  // drops the stale 1, evicts 2
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), 10);
  EXPECT_FALSE(m.contains(2));
  EXPECT_TRUE(m.contains(3));
  EXPECT_EQ(m.evictions(), 1u);
}

// Byte-array keys hashed by their first 8 bytes, against a test-local copy of
// the two-probe FIFO map (find, then evict, then insert): same residents, same
// values, same eviction count after every step of a seeded insert/erase stream.
TEST(BoundedMap, BytePrefixHashKeysMatchTwoProbeReference) {
  using Key = std::array<std::uint8_t, 32>;
  struct Reference {
    std::size_t capacity;
    std::map<Key, int> map;
    std::deque<Key> order;
    std::uint64_t evictions = 0;
    int& at_or_insert(const Key& k) {
      if (const auto it = map.find(k); it != map.end()) return it->second;
      while (map.size() >= capacity) {
        const Key victim = order.front();
        order.pop_front();
        if (map.erase(victim) > 0) ++evictions;
      }
      order.push_back(k);
      return map[k];
    }
  };
  Rng rng(77);
  BoundedMap<Key, int, BytePrefixHash> m(8);
  Reference ref{8, {}, {}, 0};
  std::vector<Key> keys(20);
  for (auto& k : keys) {
    for (auto& b : k) b = static_cast<std::uint8_t>(rng.next_u64());
  }
  keys[1] = keys[0];
  keys[1][31] ^= 1;  // same first 8 bytes: one hash bucket, different keys
  for (int step = 0; step < 2000; ++step) {
    const Key& k = keys[rng.uniform(keys.size())];
    if (rng.chance(0.2)) {
      const bool removed = ref.map.erase(k) > 0;
      EXPECT_EQ(m.erase(k), removed);
    } else {
      m.at_or_insert(k) += step;
      ref.at_or_insert(k) += step;
    }
    ASSERT_EQ(m.size(), ref.map.size()) << "step " << step;
    ASSERT_EQ(m.evictions(), ref.evictions) << "step " << step;
    for (const auto& key : keys) {
      const auto it = ref.map.find(key);
      const int* got = m.find(key);
      ASSERT_EQ(got != nullptr, it != ref.map.end()) << "step " << step;
      if (got != nullptr) {
        EXPECT_EQ(*got, it->second);
      }
    }
  }
}

// Several keys may share one value (a node's seen-entry map points every
// entry of an exchange at that exchange's one retained copy). Eviction frees the
// value with its last key.
TEST(BoundedMap, EvictionReleasesSharedValue) {
  BoundedMap<int, std::shared_ptr<const std::string>> m(3);
  auto shared = std::make_shared<const std::string>("exchange");
  const std::weak_ptr<const std::string> watch = shared;
  m.put(1, shared);
  m.put(2, shared);
  m.put(3, shared);
  shared.reset();
  m.put(4, std::make_shared<const std::string>("other"));  // evicts 1
  m.put(5, std::make_shared<const std::string>("other"));  // evicts 2
  EXPECT_EQ(m.evictions(), 2u);
  EXPECT_FALSE(watch.expired());  // key 3 still holds it
  m.put(6, std::make_shared<const std::string>("other"));  // evicts 3
  EXPECT_EQ(m.evictions(), 3u);
  EXPECT_TRUE(watch.expired());
}

TEST(BoundedMap, ZeroCapacityRejected) {
  using M = BoundedMap<int, int>;
  EXPECT_THROW(M(0), EnsureError);
}

}  // namespace
}  // namespace accountnet
