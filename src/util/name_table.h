// Case-insensitive lookup of short ASCII names in a fixed table, by view
// and without the heap: the x86 parser's mnemonic, register and size
// keyword tables.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "util/contract.h"
#include "util/str.h"

namespace comet::util {

/// Each name is lowercased and packed with its length into a 16-byte key,
/// which is looked up in an open-addressing table at most a quarter full,
/// so most lookups compare one key. The length byte keeps an embedded NUL
/// from aliasing a shorter name ("r\0ax" is not "rax"); an empty name or
/// one longer than kMaxName matches nothing.
template <typename Value>
class NameTable {
 public:
  static constexpr std::size_t kMaxName = 15;

  /// Names must be non-empty, at most kMaxName bytes and unique ignoring
  /// case.
  explicit NameTable(
      const std::vector<std::pair<std::string_view, Value>>& names) {
    const std::size_t capacity = std::bit_ceil(4 * names.size() + 4);
    shift_ = 64 - std::countr_zero(capacity);
    keys_.resize(capacity);
    values_.resize(capacity);
    for (const auto& [name, value] : names) {
      COMET_CHECK(!name.empty() && name.size() <= kMaxName);
      const Key key = pack(name);
      std::size_t slot = home(key);
      while (keys_[slot] != Key{}) {
        COMET_CHECK(keys_[slot] != key);
        slot = (slot + 1) & (capacity - 1);
      }
      keys_[slot] = key;
      values_[slot] = value;
    }
  }

  std::optional<Value> find(std::string_view name) const {
    if (name.empty() || name.size() > kMaxName) return std::nullopt;
    const Key key = pack(name);
    for (std::size_t slot = home(key);; slot = (slot + 1) & (keys_.size() - 1)) {
      if (keys_[slot] == key) return values_[slot];
      if (keys_[slot] == Key{}) return std::nullopt;
    }
  }

 private:
  struct Key {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    bool operator==(const Key&) const = default;
  };

  /// Lowercased bytes 0..14 and the length in byte 15 (size <= kMaxName),
  /// assembled in registers.
  static Key pack(std::string_view name) {
    Key key;
    key.hi = std::uint64_t{name.size()} << 56;
    for (std::size_t i = 0; i < name.size(); ++i) {
      const std::uint64_t byte = static_cast<unsigned char>(ascii_lower(name[i]));
      if (i < 8) {
        key.lo |= byte << (8 * i);
      } else {
        key.hi |= byte << (8 * (i - 8));
      }
    }
    return key;
  }

  std::size_t home(const Key& key) const {
    const std::uint64_t h =
        (key.lo + key.hi * 0x9e3779b97f4a7c15ULL) * 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::size_t>(h >> shift_);
  }

  int shift_ = 0;             // 64 - log2(capacity)
  std::vector<Key> keys_;     // Key{} marks an empty slot
  std::vector<Value> values_;
};

}  // namespace comet::util
