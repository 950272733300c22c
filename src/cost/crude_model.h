// The paper's crude, interpretable, analytical cost model C (Section 6,
// eq. 8; Appendix G) and its exact ground-truth explanations GT(β) (eq. 9).
//
//   C(β) = max{ cost_η(n),  max_i cost_inst(inst_i),  max_{δij} cost_dep(δij) }
//
// with
//   cost_inst(inst) = reciprocal throughput of inst (uops.info-style table),
//   cost_dep(δ)     = 0 for WAR/WAW (false dependencies, removable by
//                     register renaming), and
//                     cost_inst(inst_i) + cost_inst(inst_j) for RAW
//                     (true dependency: the two instructions serialize),
//   cost_η(n)       = n / 4 (issue-width bound, after Abel & Reineke 2022).
//
// Because C is analytical, GT(β) — the set of features attaining the max —
// is computable exactly, which is what makes the Table 2 accuracy
// evaluation of COMET possible.
#pragma once

#include <memory>

#include "cost/cost_model.h"
#include "graph/features.h"

namespace comet::cost {

class CrudeModel final : public CostModel {
 public:
  explicit CrudeModel(MicroArch uarch,
                      graph::DepGraphOptions graph_options = {});

  double predict(const x86::BasicBlock& block) const override;
  // predict_batch: the base element-wise loop — the analytical pass is
  // pure per block (table lookups + a local dep graph).
  std::string name() const override;

  /// cost_η(n) = n / 4.
  double cost_num_insts(std::size_t n) const;
  /// cost_inst of one instruction (table lookup).
  double cost_inst(const x86::Instruction& inst) const;
  /// cost_dep of one dependency edge within `block`.
  double cost_dep(const x86::BasicBlock& block,
                  const graph::DepEdge& edge) const;

  /// Exact ground-truth explanation GT(β): all features whose cost equals
  /// C(β), up to a small tie tolerance.
  graph::FeatureSet ground_truth(const x86::BasicBlock& block) const;

 private:
  MicroArch uarch_;
  graph::DepGraphOptions graph_options_;
};

}  // namespace comet::cost
