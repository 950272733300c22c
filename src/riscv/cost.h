// Analytical RISC-V cost model with exact ground-truth explanations — the
// RV64 analogue of the paper's crude interpretable model C (Section 6,
// eq. 8-9), enabling the same objective accuracy evaluation of the ported
// framework.
//
//   C_rv(β) = max{ cost_η(n), max_i cost_inst(inst_i),
//                  max_{δij} cost_dep(δij) }
//
// Costs model a dual-issue in-order RV64 core (a Rocket/SiFive-U74-class
// machine): cost_η = n/2 (issue bound), per-class instruction costs
// (divides dominate, loads carry L1 latency), RAW dependencies serialize
// their endpoints, WAR/WAW are free after renaming. The model takes no
// settings: it reads the one nearest-only dependency graph of riscv/graph.h.
#pragma once

#include <span>
#include <string>

#include "riscv/graph.h"

namespace comet::riscv {

class RvCostModel {
 public:
  double predict(const BasicBlock& block) const;
  /// Batched prediction (element-wise equal to predict); the batch entry
  /// point the query broker drives. out.size() must equal blocks.size().
  void predict_batch(std::span<const BasicBlock> blocks,
                     std::span<double> out) const;
  std::string name() const { return "crude-rv64"; }

  double cost_num_insts(std::size_t n) const;
  double cost_inst(const Instruction& inst) const;
  double cost_dep(const BasicBlock& block, const DepEdge& edge) const;

  /// GT(β): every feature whose cost attains C_rv(β) (eq. 9 analogue).
  RvFeatureSet ground_truth(const BasicBlock& block) const;
};

}  // namespace comet::riscv
