#pragma once

// Disjoint-set union with union-by-size and path compression: the
// O(alpha(n)) substrate behind cluster fusion in the Union-Find and SurfNet
// decoders (paper Theorem 2).

#include <cstddef>
#include <numeric>
#include <vector>

#include "util/contracts.h"

namespace surfnet::decoder {

class Dsu {
 public:
  explicit Dsu(std::size_t n = 0) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  /// Reinitialize to n singleton sets, reusing the existing storage.
  void reset(std::size_t n) {
    parent_.resize(n);
    size_.assign(n, 1);
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  /// Resize to n elements; added elements are singletons. Dropped
  /// elements must be singletons nothing else points at.
  void resize(std::size_t n) {
    const std::size_t old = parent_.size();
    parent_.resize(n);
    size_.resize(n, 1);
    for (std::size_t i = old; i < n; ++i) parent_[i] = static_cast<int>(i);
  }

  /// Make x a singleton again. Valid only when every element of x's set is
  /// being restored the same way (a workspace undoing one decode's unions).
  void make_singleton(int x) {
    SURFNET_EXPECTS(x >= 0 && static_cast<std::size_t>(x) < parent_.size());
    parent_[static_cast<std::size_t>(x)] = x;
    size_[static_cast<std::size_t>(x)] = 1;
  }

  std::size_t num_elements() const { return parent_.size(); }

  int find(int x) {
    SURFNET_EXPECTS(x >= 0 && static_cast<std::size_t>(x) < parent_.size(),
                    "element %d of %zu", x, parent_.size());
    int root = x;
    while (parent_[static_cast<std::size_t>(root)] != root)
      root = parent_[static_cast<std::size_t>(root)];
    while (parent_[static_cast<std::size_t>(x)] != root) {
      const int next = parent_[static_cast<std::size_t>(x)];
      parent_[static_cast<std::size_t>(x)] = root;
      x = next;
    }
    return root;
  }

  /// Union the sets of a and b; returns the surviving root, or -1 when the
  /// two were already in the same set.
  int unite(int a, int b) {
    SURFNET_EXPECTS(a >= 0 && static_cast<std::size_t>(a) < parent_.size());
    SURFNET_EXPECTS(b >= 0 && static_cast<std::size_t>(b) < parent_.size());
    a = find(a);
    b = find(b);
    if (a == b) return -1;
    if (size_[static_cast<std::size_t>(a)] <
        size_[static_cast<std::size_t>(b)])
      std::swap(a, b);
    parent_[static_cast<std::size_t>(b)] = a;
    size_[static_cast<std::size_t>(a)] +=
        size_[static_cast<std::size_t>(b)];
    return a;
  }

  bool same(int a, int b) { return find(a) == find(b); }

  std::size_t size_of(int x) {
    SURFNET_EXPECTS(x >= 0 && static_cast<std::size_t>(x) < parent_.size());
    return size_[static_cast<std::size_t>(find(x))];
  }

 private:
  std::vector<int> parent_;
  std::vector<std::size_t> size_;
};

}  // namespace surfnet::decoder
