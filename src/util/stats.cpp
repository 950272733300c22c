#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace comet::util {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double mape(std::span<const double> predictions,
            std::span<const double> actuals, double eps) {
  if (predictions.size() != actuals.size()) {
    throw std::invalid_argument("mape: size mismatch");
  }
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (std::abs(actuals[i]) < eps) continue;
    acc += std::abs(predictions[i] - actuals[i]) / std::abs(actuals[i]);
    ++n;
  }
  return n ? 100.0 * acc / static_cast<double>(n) : 0.0;
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  q = std::clamp(q, 0.0, 100.0);
  std::sort(xs.begin(), xs.end());
  const double pos = q / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

}  // namespace comet::util
