// A fixed-capacity vector stored in place.
//
// Hot paths build short transient lists — the register accesses of one
// instruction, the register events the dependency graph derives from them —
// thousands of times per explanation. A std::vector costs a heap allocation
// for each; this keeps up to N elements inline and refuses the (N+1)-th with
// a typed util::ContractViolation instead of growing.
#pragma once

#include <array>
#include <cstddef>

#include "util/contract.h"

namespace comet::util {

template <typename T, std::size_t N>
class InlineVec {
 public:
  static constexpr std::size_t kCapacity = N;

  /// Append `v`. Throws util::ContractViolation when already full.
  void push_back(const T& v) {
    COMET_CHECK_MSG(size_ < N, "InlineVec capacity " << N << " exceeded");
    items_[size_++] = v;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T* begin() { return items_.data(); }
  T* end() { return items_.data() + size_; }
  const T* begin() const { return items_.data(); }
  const T* end() const { return items_.data() + size_; }

  const T& operator[](std::size_t i) const { return items_[i]; }

 private:
  std::array<T, N> items_{};
  std::size_t size_ = 0;
};

}  // namespace comet::util
