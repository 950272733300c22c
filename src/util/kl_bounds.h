// Bernoulli KL-divergence confidence bounds used by the KL-LUCB best-arm
// identification procedure (Kaufmann & Kalyanakrishnan, 2013), which COMET
// (following Anchors, Ribeiro et al. 2018) uses to estimate the precision of
// candidate explanation feature sets with as few cost-model queries as
// possible.
//
// For an arm with empirical mean p_hat after n pulls and exploration level
// `level` (typically log(1/delta) plus a union-bound term), the upper/lower
// confidence bounds are
//
//   ub = max { q in [p_hat, 1] : n * kl(p_hat, q) <= level }
//   lb = min { q in [0, p_hat] : n * kl(p_hat, q) <= level }
//
// computed here by bisection on the monotone function kl(p_hat, .).
#pragma once

#include <cstddef>
#include <vector>

namespace comet::util {

/// Empirical mean of a Bernoulli arm: hits / pulls, 0 before any pull. The
/// one formula for it, so a bound computed from (hits, pulls) sees the same
/// bits as one computed from an arm's mean.
inline double hit_rate(std::size_t hits, std::size_t pulls) {
  return pulls ? static_cast<double>(hits) / static_cast<double>(pulls) : 0.0;
}

/// KL divergence between Bernoulli(p) and Bernoulli(q), in nats.
/// Handles the p in {0,1} boundary cases; q is clamped away from {0,1}.
double bernoulli_kl(double p, double q);

/// Upper confidence bound: largest q >= p_hat with n*kl(p_hat,q) <= level.
double kl_upper_bound(double p_hat, std::size_t n, double level);

/// Lower confidence bound: smallest q <= p_hat with n*kl(p_hat,q) <= level.
double kl_lower_bound(double p_hat, std::size_t n, double level);

/// The bounds of one KL-LUCB round. Within a round the exploration level is
/// fixed, so a bound is a pure function of an arm's (hits, pulls) and arms
/// that share those get bit-equal bounds: each bound is computed once per
/// distinct (hits, pulls) and looked up afterwards. Most of a level's arms
/// sit at their initial pull, so over half the lookups hit. reset() starts
/// the next round and keeps the storage.
class KlRoundBounds {
 public:
  /// Forget every bound and take `level` for the new round.
  void reset(double level);

  /// kl_upper_bound(hit_rate(hits, pulls), pulls, level), memoised.
  double upper(std::size_t hits, std::size_t pulls);

  /// kl_lower_bound(hit_rate(hits, pulls), pulls, level), memoised.
  double lower(std::size_t hits, std::size_t pulls);

 private:
  static constexpr double kUnset = -1.0;  // bounds lie in [0, 1]
  struct Entry {
    std::size_t hits;
    std::size_t pulls;
    double upper = kUnset;
    double lower = kUnset;
  };
  Entry& entry(std::size_t hits, std::size_t pulls);

  double level_ = 0.0;
  std::vector<Entry> entries_;  // distinct (hits, pulls) seen this round
};

/// Exploration level used by KL-LUCB: log(k1 * n_arms * t^alpha / delta),
/// the union-bound schedule recommended in the paper (alpha=1.1, k1=405.5).
double kl_lucb_level(std::size_t t, std::size_t n_arms, double delta);

}  // namespace comet::util
