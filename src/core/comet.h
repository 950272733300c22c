// COMET: the cost-model explanation engine, x86 instantiation (paper
// Section 5.2).
//
// Given query access to a cost model M and a target basic block β, COMET
// solves the relaxed optimization problem (eq. 7):
//
//   F* = argmax_{F ⊆ P̂} Cov(F)   s.t.   Prec(F) ≥ 1 − δ
//
// where Prec(F) = Pr_{α ~ D_F}[ |M(α) − M(β)| < ε ]  and
//       Cov(F)  = Pr_{α ~ D}[ F ⊆ P̂(α) ].
//
// (The paper writes ≤ ε; the engine's ε-ball is open, so a sample exactly
// ε away from M(β) counts as a miss. The explanation goldens pin this.)
//
// The search itself — Anchors-style bottom-up beam search with KL-LUCB
// best-arm identification, batched through a query broker — lives in the
// ISA-generic core/anchor_engine.h; CometExplainer is its x86
// instantiation via X86AnchorTraits (the RISC-V port in riscv/explain.h is
// the second one, exactly as the paper's Section 7 portability claim asks).
#pragma once

#include <cstdint>

#include "core/anchor_engine.h"
#include "core/explanation.h"
#include "cost/cost_model.h"
#include "perturb/perturber.h"

namespace comet::core {

/// Anchor-search options plus the x86-specific feature-extraction and
/// perturbation configuration. The scalar search knobs (ε, δ, KL-LUCB
/// budget, coverage samples, seed, ...) are inherited from the shared
/// AnchorSearchOptions.
struct CometOptions : AnchorSearchOptions {
  graph::DepGraphOptions graph_options;
  perturb::PerturbConfig perturb_config;
};

/// ISA-traits binding of the generic anchor engine to x86.
struct X86AnchorTraits {
  using Block = x86::BasicBlock;
  using Feature = graph::Feature;
  using FeatureSet = graph::FeatureSet;
  using Perturber = perturb::Perturber;
  using PerturbedBlock = perturb::PerturbedBlock;
  using Model = cost::CostModel;
  using Options = CometOptions;
  using Explanation = core::Explanation;

  static FeatureSet extract_features(const Block& block,
                                     const Options& options) {
    return graph::extract_features(block, options.graph_options);
  }
  static Perturber make_perturber(const Block& block, const Options& options) {
    return Perturber(block, options.graph_options, options.perturb_config);
  }
};

class CometExplainer {
 public:
  /// The engine traits this explainer instantiates — the hook the serving
  /// layer uses: serve::ExplanationServer<CometExplainer::Traits> schedules
  /// concurrent x86 explanation sessions over the same engine.
  using Traits = X86AnchorTraits;

  /// `model` must outlive the explainer.
  CometExplainer(const cost::CostModel& model, CometOptions options = {});

  /// Explain M(β) for the given block.
  Explanation explain(const x86::BasicBlock& block) const;

  /// Standalone Monte-Carlo estimate of Prec(F) for a given feature set
  /// (used by the Table 3 evaluation). Consumes `samples` model queries.
  double estimate_precision(const x86::BasicBlock& block,
                            const graph::FeatureSet& features,
                            std::size_t samples, util::Rng& rng) const;

  /// Standalone estimate of Cov(F) over `samples` unconstrained
  /// perturbations.
  double estimate_coverage(const x86::BasicBlock& block,
                           const graph::FeatureSet& features,
                           std::size_t samples, util::Rng& rng) const;

  const CometOptions& options() const { return options_; }
  const cost::CostModel& model() const { return model_; }

 private:
  AnchorEngine<X86AnchorTraits> engine() const { return {model_, options_}; }

  const cost::CostModel& model_;
  CometOptions options_;
};

}  // namespace comet::core
