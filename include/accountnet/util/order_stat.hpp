// Order-statistic set over the integers [0, n): a Fenwick (binary indexed)
// tree of 0/1 counts. insert, erase and kth (the k-th smallest member) each
// take O(log n), where a sorted scan of the members takes O(n).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "accountnet/util/ensure.hpp"

namespace accountnet {

class OrderStatIndex {
 public:
  explicit OrderStatIndex(std::size_t n = 0) : tree_(n + 1, 0), present_(n, 0) {
    top_ = 1;
    while (top_ * 2 <= n) top_ *= 2;
  }

  /// Returns true if `i` was newly inserted (matching std::set semantics).
  bool insert(std::size_t i) { return update(i, true); }

  /// Returns true if `i` was a member.
  bool erase(std::size_t i) { return update(i, false); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The k-th smallest member, counting from 0; k must be below size().
  std::size_t kth(std::size_t k) const {
    AN_ENSURE_MSG(k < size_, "OrderStatIndex::kth past the last member");
    // Descend the implicit tree: keep the longest prefix [1, pos] holding at
    // most k members; the member sought is then the next position.
    std::size_t pos = 0;
    for (std::size_t step = top_; step > 0; step /= 2) {
      if (pos + step < tree_.size() && tree_[pos + step] <= k) {
        pos += step;
        k -= tree_[pos];
      }
    }
    return pos;  // 1-based position pos + 1 is element pos
  }

 private:
  bool update(std::size_t i, bool member) {
    AN_ENSURE_MSG(i < present_.size(), "OrderStatIndex element out of range");
    if ((present_[i] != 0) == member) return false;
    present_[i] = member ? 1 : 0;
    size_ = member ? size_ + 1 : size_ - 1;
    for (std::size_t j = i + 1; j < tree_.size(); j += j & (0 - j)) {
      tree_[j] = member ? tree_[j] + 1 : tree_[j] - 1;
    }
    return true;
  }

  std::vector<std::size_t> tree_;      ///< 1-based Fenwick counts
  std::vector<std::uint8_t> present_;  ///< membership per element
  std::size_t top_ = 1;                ///< highest power of two <= n
  std::size_t size_ = 0;
};

}  // namespace accountnet
