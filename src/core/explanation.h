// The output type of COMET: an explanation of one cost-model prediction,
// over either ISA's feature set (core::Explanation for x86 in core/comet.h,
// riscv::RvExplanation in riscv/explain.h).
#pragma once

#include <cstddef>
#include <string>

#include "cost/query_stats.h"
#include "obs/phase_timers.h"
#include "util/str.h"

namespace comet::core {

/// A COMET explanation for M(β): the maximum-coverage feature set whose
/// precision clears the (1-δ) threshold, plus the estimates that justified
/// its selection.
template <typename FeatureSet>
struct ExplanationOf {
  FeatureSet features;
  double precision = 0.0;   ///< estimated Prec(F) (eq. 4)
  double coverage = 0.0;    ///< estimated Cov(F) (eq. 6)
  bool met_threshold = false;  ///< precision lower bound cleared 1-δ
  std::size_t model_queries = 0;  ///< cost-model evaluations consumed
  /// Broker-side traffic accounting for the queries above (batches issued,
  /// memoization hits, predictions actually evaluated).
  cost::QueryStats query_stats;
  /// Per-level engine phase timings; populated only when the caller set
  /// AnchorSearchOptions::phase_clock (timings.enabled). Pure observation:
  /// every other field is bit-identical with timing on or off.
  obs::PhaseTimings timings;

  std::string to_string() const {
    return features.to_string() +
           " (prec=" + util::format_fixed(precision, 3) +
           ", cov=" + util::format_fixed(coverage, 3) + ")";
  }
};

}  // namespace comet::core
