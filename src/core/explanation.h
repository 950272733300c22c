// The output type of COMET: an explanation of one cost-model prediction,
// over either ISA's feature set (core::Explanation for x86 in core/comet.h,
// riscv::RvExplanation in riscv/explain.h). It holds only the search's
// result and its query ledger, so the explanation of a block depends on the
// options and the model alone.
#pragma once

#include <cstddef>
#include <string>

#include "cost/query_stats.h"
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
  /// Γ draws for arm pulls plus one for M(β): empty samples and memo hits
  /// count, the coverage pool does not. The model evaluations are
  /// query_stats.evaluated.
  std::size_t model_queries = 0;
  /// Broker-side traffic accounting (blocks requested, batches issued,
  /// memoization hits, predictions actually evaluated).
  cost::QueryStats query_stats;

  std::string to_string() const {
    return features.to_string() +
           " (prec=" + util::format_fixed(precision, 3) +
           ", cov=" + util::format_fixed(coverage, 3) + ")";
  }
};

}  // namespace comet::core
