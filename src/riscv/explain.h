// COMET's explanation engine mapped onto RISC-V (paper Section 7).
//
// The high-level formalism carries over unchanged, exactly as the paper
// claims: RvExplainer is the one generic core/anchor_engine.h search (beam
// search over feature sets, KL-LUCB best-arm identification, batched model
// queries through a broker) bound to RISC-V through RvAnchorTraits, and
// RvExplanation is the shared explanation struct over the RISC-V feature
// set. RISC-V supplies only its ISA: the opcodes and registers
// (riscv/isa.h), the dependency graph (riscv/graph.h), the perturbation
// algorithm Γ (riscv/perturb.h) and the analytical cost model
// (riscv/cost.h); the feature vocabulary is graph/vocabulary.h.
#pragma once

#include "core/anchor_engine.h"
#include "core/explanation.h"
#include "riscv/cost.h"
#include "riscv/perturb.h"

namespace comet::riscv {

/// The shared anchor-search options (core::AnchorSearchOptions) with
/// RISC-V defaults — ε = 0.25, the quarter-cycle step of the analytical
/// model, and a lighter coverage pool. The RISC-V graph and Γ take no
/// settings.
struct RvExplainOptions : core::AnchorSearchOptions {
  RvExplainOptions() {
    epsilon = 0.25;
    coverage_samples = 800;
    // The analytical RV model is exact and deterministic, so the extra
    // firm-up pass before accepting an anchor adds queries without
    // information. A zero budget disables the engine's KL-lower-bound
    // acceptance gate entirely: anchors are accepted on their raw mean
    // against the threshold (the historical RV rule). Any positive budget
    // would instead require kl_lower_bound(mean, pulls, beta) >= threshold
    // before an anchor is accepted — see the acceptance step in
    // core/anchor_engine.h.
    final_precision_samples = 0;
  }
};

using RvExplanation = core::ExplanationOf<RvFeatureSet>;

/// ISA-traits binding of the generic anchor engine to RISC-V.
struct RvAnchorTraits {
  using Block = BasicBlock;
  using Feature = RvFeature;
  using FeatureSet = RvFeatureSet;
  using Perturber = RvPerturber;
  using PerturbedBlock = RvPerturbedBlock;
  using Model = RvCostModel;
  using Options = RvExplainOptions;
  using Explanation = RvExplanation;

  static FeatureSet extract_features(const Block& block, const Options&) {
    return riscv::extract_features(block);
  }
  static Perturber make_perturber(const Block& block, const Options&) {
    return Perturber(block);
  }
};

/// The RISC-V explainer: `RvExplainer(model, options).explain(block)`,
/// plus the estimators estimate_precision / estimate_coverage.
using RvExplainer = core::AnchorEngine<RvAnchorTraits>;

}  // namespace comet::riscv
