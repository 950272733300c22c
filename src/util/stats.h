// Small statistics helpers used across the evaluation harness.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace comet::util {

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs);

/// Sample standard deviation (n-1 denominator); 0 if fewer than 2 samples.
double stddev(std::span<const double> xs);

/// Mean absolute percentage error: mean(|pred - actual| / |actual|) * 100.
/// Entries with |actual| < eps are skipped to avoid division blow-ups.
double mape(std::span<const double> predictions,
            std::span<const double> actuals, double eps = 1e-9);

/// Linear-interpolated percentile, q in [0, 100].
double percentile(std::vector<double> xs, double q);

/// Streaming mean/stddev accumulator (Welford).
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< sample variance, n-1 denominator
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace comet::util
