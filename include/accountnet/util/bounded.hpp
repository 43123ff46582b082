// Size-capped hash containers with insertion-order (FIFO) eviction.
//
// Node-local bookkeeping keyed by peer address or query id (duplicate-query
// suppression, per-partner failure counts, recorded leavers) would otherwise
// grow without bound over a long-lived network: every address ever seen stays
// resident forever. These wrappers cap the live size; once full, inserting a
// new key evicts the oldest surviving key. Eviction can re-admit a forgotten
// key later (e.g. a re-served neighborhood query), which the protocol already
// tolerates — the caps trade a rare duplicate for bounded memory.
//
// The insertion-order log tolerates erase() by lazily skipping stale keys and
// compacting once the log exceeds twice the capacity, so the log itself stays
// O(capacity) even under heavy insert/erase churn.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "accountnet/util/ensure.hpp"

namespace accountnet {

/// Set with FIFO eviction once `capacity` distinct keys are resident.
template <typename K>
class BoundedSet {
 public:
  explicit BoundedSet(std::size_t capacity) : capacity_(capacity) {
    AN_ENSURE_MSG(capacity > 0, "BoundedSet capacity must be positive");
  }

  /// Returns true if the key was newly inserted (matching std::set semantics).
  bool insert(const K& key) {
    if (set_.contains(key)) return false;
    evict_if_full();
    set_.insert(key);
    order_.push_back(key);
    return true;
  }

  bool contains(const K& key) const { return set_.contains(key); }

  bool erase(const K& key) {
    const bool removed = set_.erase(key) > 0;
    if (removed) maybe_compact();
    return removed;
  }

  std::size_t size() const { return set_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Total keys dropped to make room (monotonic; for leak diagnostics).
  std::uint64_t evictions() const { return evictions_; }

 private:
  void evict_if_full() {
    while (set_.size() >= capacity_) {
      // Pop log entries until one still resident: erased keys leave stale
      // log entries behind.
      AN_ENSURE(!order_.empty());
      const K victim = order_.front();
      order_.pop_front();
      if (set_.erase(victim) > 0) ++evictions_;
    }
  }

  void maybe_compact() {
    if (order_.size() <= 2 * capacity_) return;
    std::deque<K> kept;
    for (const auto& k : order_) {
      if (set_.contains(k)) kept.push_back(k);
    }
    order_ = std::move(kept);
  }

  std::size_t capacity_;
  std::unordered_set<K> set_;
  std::deque<K> order_;  ///< insertion log; may hold stale (erased) keys
  std::uint64_t evictions_ = 0;
};

/// Hash of a 32-byte key whose bytes are already uniform (a SHA-256 digest,
/// a public key): its first 8 bytes.
struct BytePrefixHash {
  std::size_t operator()(const std::array<std::uint8_t, 32>& bytes) const {
    std::uint64_t h;
    std::memcpy(&h, bytes.data(), sizeof h);
    return static_cast<std::size_t>(h);
  }
};

/// Map with FIFO eviction once `capacity` distinct keys are resident.
template <typename K, typename V, typename Hash = std::hash<K>>
class BoundedMap {
 public:
  explicit BoundedMap(std::size_t capacity) : capacity_(capacity) {
    AN_ENSURE_MSG(capacity > 0, "BoundedMap capacity must be positive");
  }

  /// operator[]-style access: default-constructs (and possibly evicts) when
  /// the key is absent. One probe: the key goes in, then the oldest keys
  /// make room for it.
  V& at_or_insert(const K& key) {
    const auto [it, inserted] = map_.try_emplace(key);
    if (inserted) {
      evict_over_capacity(key);
      order_.push_back(key);
    }
    return it->second;
  }

  void put(const K& key, V value) { at_or_insert(key) = std::move(value); }

  /// nullptr when absent.
  const V* find(const K& key) const {
    const auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }

  bool contains(const K& key) const { return map_.contains(key); }

  bool erase(const K& key) {
    const bool removed = map_.erase(key) > 0;
    if (removed) maybe_compact();
    return removed;
  }

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  /// `fresh` was just inserted. A log entry for it left over from an earlier
  /// erase() is stale, and is dropped like any other stale entry.
  void evict_over_capacity(const K& fresh) {
    while (map_.size() > capacity_) {
      AN_ENSURE(!order_.empty());
      const K victim = std::move(order_.front());
      order_.pop_front();
      if (!(victim == fresh) && map_.erase(victim) > 0) ++evictions_;
    }
  }

  void maybe_compact() {
    if (order_.size() <= 2 * capacity_) return;
    std::deque<K> kept;
    for (const auto& k : order_) {
      if (map_.contains(k)) kept.push_back(k);
    }
    order_ = std::move(kept);
  }

  std::size_t capacity_;
  std::unordered_map<K, V, Hash> map_;
  std::deque<K> order_;
  std::uint64_t evictions_ = 0;
};

}  // namespace accountnet
