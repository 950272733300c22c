// Deterministic pseudo-random number generation for COMET.
//
// Every stochastic component in the library (perturbation algorithm, dataset
// generator, neural-net initialization, baselines) takes an explicit Rng so
// that experiments are reproducible run-to-run and seed-to-seed. The engine
// is xoshiro256** seeded via splitmix64, which is fast, has a 256-bit state,
// and passes BigCrush — more than adequate for Monte-Carlo estimation.
//
// Thread-safety: an Rng instance is plain mutable state — never share one
// across threads. The rule the serving layer relies on (and tests assert):
// every concurrently served explanation request owns its own Rng, seeded
// deterministically from the request's options + block, so concurrent
// execution is bit-identical to sequential execution.
#pragma once

#include <cstdint>
#include <vector>

namespace comet::util {

/// splitmix64 step; used to expand a single 64-bit seed into engine state.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** PRNG with convenience sampling helpers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Pick a uniformly random element of a non-empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[index(v.size())];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.size() < 2) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      std::swap(v[i], v[index(i + 1)]);
    }
  }

 private:
  std::uint64_t s_[4];
};

/// Stable 64-bit hash of a byte string (FNV-1a); used to derive per-block
/// deterministic noise seeds from block text.
std::uint64_t fnv1a64(const void* data, std::size_t len);
std::uint64_t fnv1a64(const char* cstr);

}  // namespace comet::util
