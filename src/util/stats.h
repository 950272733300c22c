// Small statistics helpers used across the evaluation harness.
#pragma once

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

}  // namespace comet::util
