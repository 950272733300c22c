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
// ISA-generic core/anchor_engine.h; CometExplainer is that engine bound to
// x86 through X86AnchorTraits (the RISC-V port in riscv/explain.h is the
// second binding, exactly as the paper's Section 7 portability claim asks).
#pragma once

#include "core/anchor_engine.h"
#include "core/explanation.h"
#include "cost/cost_model.h"
#include "graph/features.h"
#include "perturb/perturber.h"

namespace comet::core {

/// An explanation of an x86 cost-model prediction.
using Explanation = ExplanationOf<graph::FeatureSet>;

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

/// The x86 explainer: `CometExplainer(model, options).explain(block)`, plus
/// the Table 3 estimators estimate_precision / estimate_coverage.
using CometExplainer = AnchorEngine<X86AnchorTraits>;
// Compiled once, in core/comet.cpp; every other file links that copy.
extern template class AnchorEngine<X86AnchorTraits>;

}  // namespace comet::core
