// Global cost-model explanations (paper Section 4).
//
// Before specializing to block-specific explanations, the paper formalizes
// the global notion: an explanation for the behavior of model M over a
// prediction set T is "the common features of basic blocks having cost
// prediction in T, that are not present in other basic blocks". Its running
// example is the crude model M1 that predicts 2 cycles iff a block has 8
// instructions — for T = {2} the correct global explanation is "number of
// instructions equal to 8".
//
// The paper argues such explanations may not exist for complex models and
// pivots to block-specific ones; this module implements the global notion
// anyway, as an extension, for the regime where it is meaningful. Because a
// global explanation must transfer across blocks, its vocabulary is
// non-positional: presence of an opcode, of an opcode class, of a hazard
// kind, or an exact instruction count. Given a corpus, the explainer splits
// it into blocks whose prediction lands in T and the rest, then beam-searches
// conjunctions maximizing recall subject to precision ≥ 1 − δ — the global
// analogue of the optimization problem (7).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "cost/cost_model.h"
#include "graph/depgraph.h"

namespace comet::core {

/// One non-positional, corpus-transferable feature.
class GlobalFeature {
 public:
  struct HasOpcode {
    x86::Opcode op;
    auto operator<=>(const HasOpcode&) const = default;
  };
  struct HasOpClass {
    x86::OpClass cls;
    auto operator<=>(const HasOpClass&) const = default;
  };
  struct HasDepKind {
    graph::DepKind kind;
    auto operator<=>(const HasDepKind&) const = default;
  };
  struct NumInstsEquals {
    std::size_t count;
    auto operator<=>(const NumInstsEquals&) const = default;
  };

  explicit GlobalFeature(HasOpcode f) : v_(f) {}
  explicit GlobalFeature(HasOpClass f) : v_(f) {}
  explicit GlobalFeature(HasDepKind f) : v_(f) {}
  explicit GlobalFeature(NumInstsEquals f) : v_(f) {}

  /// Does the feature hold for `block`?
  bool present_in(const x86::BasicBlock& block,
                  const graph::DepGraphOptions& options = {}) const;

  /// e.g. "has(div)", "has-class(IntDiv)", "has-dep(RAW)", "eta=8".
  std::string to_string() const;

  auto operator<=>(const GlobalFeature&) const = default;

  using Value =
      std::variant<HasOpcode, HasOpClass, HasDepKind, NumInstsEquals>;
  const Value& value() const { return v_; }

 private:
  Value v_;
};

/// A conjunction of global features with its corpus statistics.
struct GlobalExplanation {
  std::vector<GlobalFeature> features;
  /// P[ M(β) ∈ T | all features hold ] over the corpus.
  double precision = 0.0;
  /// P[ all features hold | M(β) ∈ T ] over the corpus (generalizability).
  double recall = 0.0;
  /// Number of corpus blocks where all features hold.
  std::size_t support = 0;
  bool met_threshold = false;

  std::string to_string() const;
};

struct GlobalExplainerOptions {
  double delta = 0.3;           ///< precision threshold is 1 − δ
  std::size_t max_size = 2;     ///< conjunction size cap (simplicity)
  std::size_t beam_width = 8;
  std::size_t min_support = 3;  ///< ignore features rarer than this in-set
  graph::DepGraphOptions graph_options;
};

/// Explains a model's behavior over prediction ranges, against a fixed
/// corpus of blocks. Construction queries the model once per block.
class GlobalExplainer {
 public:
  GlobalExplainer(const cost::CostModel& model,
                  std::vector<x86::BasicBlock> corpus,
                  GlobalExplainerOptions options = {});

  /// Explain T = [lo, hi]: the feature conjunction with recall maximized
  /// subject to Prec ≥ 1 − δ. Falls back to the highest-precision candidate
  /// (met_threshold = false) when no conjunction clears the threshold.
  GlobalExplanation explain_range(double lo, double hi) const;

  /// Model predictions for the corpus (index-aligned).
  const std::vector<double>& predictions() const { return predictions_; }

 private:
  /// Per-block descriptor: which global features hold.
  struct BlockProfile {
    std::vector<bool> opcode_present;  // indexed by Opcode
    std::uint32_t classes = 0;         // bit per OpClass
    std::uint8_t dep_kinds = 0;        // bit per DepKind
    std::size_t num_insts = 0;
  };

  bool holds(const BlockProfile& p, const GlobalFeature& f) const;

  const cost::CostModel& model_;
  std::vector<x86::BasicBlock> corpus_;
  GlobalExplainerOptions options_;
  std::vector<BlockProfile> profiles_;
  std::vector<double> predictions_;
};

}  // namespace comet::core
