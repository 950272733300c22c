#include "util/kl_bounds.h"

#include <algorithm>
#include <cmath>

namespace comet::util {

namespace {
constexpr double kEps = 1e-15;
constexpr int kBisectIters = 60;  // ~1e-18 interval resolution

// Both bisections stop early once the midpoint rounds onto an end of the
// interval, and return exactly what the full kBisectIters steps would (for
// any p_hat and level that are not NaN). The end that is not returned stays
// on the "kl > budget" side: the upper bound's hi starts at 1.0, where the
// early-return test found kl above budget, and only ever moves to such
// midpoints (the lower bound's lo likewise, from 0.0). So a midpoint equal
// to that end moves it onto itself, and a midpoint equal to the returned
// end either leaves it or collapses the other end onto it; after that
// every midpoint is the returned end again and nothing changes.
// bernoulli_kl is a pure function, so the same midpoint always takes the
// same branch.
}  // namespace

double bernoulli_kl(double p, double q) {
  p = std::clamp(p, 0.0, 1.0);
  q = std::clamp(q, kEps, 1.0 - kEps);
  double kl = 0.0;
  if (p > 0.0) kl += p * std::log(p / q);
  if (p < 1.0) kl += (1.0 - p) * std::log((1.0 - p) / (1.0 - q));
  return kl;
}

double kl_upper_bound(double p_hat, std::size_t n, double level) {
  if (n == 0) return 1.0;
  const double budget = level / static_cast<double>(n);
  double lo = std::clamp(p_hat, 0.0, 1.0);
  double hi = 1.0;
  if (bernoulli_kl(p_hat, hi - kEps) <= budget) return 1.0;
  for (int i = 0; i < kBisectIters; ++i) {
    const double mid = 0.5 * (lo + hi);
    // No double lies strictly between lo and hi: every later step would
    // be a no-op (see the note on kBisectIters).
    if (mid == lo || mid == hi) break;
    if (bernoulli_kl(p_hat, mid) > budget) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return lo;
}

double kl_lower_bound(double p_hat, std::size_t n, double level) {
  if (n == 0) return 0.0;
  const double budget = level / static_cast<double>(n);
  double lo = 0.0;
  double hi = std::clamp(p_hat, 0.0, 1.0);
  if (bernoulli_kl(p_hat, lo + kEps) <= budget) return 0.0;
  for (int i = 0; i < kBisectIters; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) break;  // as in kl_upper_bound
    if (bernoulli_kl(p_hat, mid) > budget) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

void KlRoundBounds::reset(double level) {
  level_ = level;
  entries_.clear();
}

KlRoundBounds::Entry& KlRoundBounds::entry(std::size_t hits,
                                           std::size_t pulls) {
  for (Entry& e : entries_) {
    if (e.hits == hits && e.pulls == pulls) return e;
  }
  return entries_.emplace_back(Entry{hits, pulls});
}

double KlRoundBounds::upper(std::size_t hits, std::size_t pulls) {
  Entry& e = entry(hits, pulls);
  if (e.upper == kUnset) {
    e.upper = kl_upper_bound(hit_rate(hits, pulls), pulls, level_);
  }
  return e.upper;
}

double KlRoundBounds::lower(std::size_t hits, std::size_t pulls) {
  Entry& e = entry(hits, pulls);
  if (e.lower == kUnset) {
    e.lower = kl_lower_bound(hit_rate(hits, pulls), pulls, level_);
  }
  return e.lower;
}

double kl_lucb_level(std::size_t t, std::size_t n_arms, double delta) {
  // Kaufmann & Kalyanakrishnan (2013), Section 3: beta(t, delta) =
  // log(k1 * K * t^alpha / delta) with alpha = 1.1, k1 = 405.5.
  constexpr double kAlpha = 1.1;
  constexpr double kK1 = 405.5;
  const double tt = std::max<double>(1.0, static_cast<double>(t));
  const double k = std::max<double>(1.0, static_cast<double>(n_arms));
  delta = std::clamp(delta, 1e-12, 1.0 - 1e-12);
  return std::log(kK1 * k * std::pow(tt, kAlpha) / delta);
}

}  // namespace comet::util
