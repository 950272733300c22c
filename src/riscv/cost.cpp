#include "riscv/cost.h"

#include <algorithm>
#include <cmath>

namespace comet::riscv {

namespace {

double class_cost(RvClass cls) {
  switch (cls) {
    case RvClass::IntAlu: return 0.5;   // two ALU pipes
    case RvClass::IntMul: return 3.0;   // pipelined multiplier latency
    case RvClass::IntDiv: return 20.0;  // iterative divider
    case RvClass::Load: return 2.0;     // L1 hit
    case RvClass::Store: return 1.0;    // one store port
  }
  return 1.0;
}

}  // namespace

double RvCostModel::cost_num_insts(std::size_t n) const {
  return double(n) / 2.0;
}

double RvCostModel::cost_inst(const Instruction& inst) const {
  return class_cost(info(inst.opcode).cls);
}

double RvCostModel::cost_dep(const BasicBlock& block,
                             const DepEdge& edge) const {
  if (edge.kind != DepKind::RAW) return 0.0;  // false deps rename away
  return cost_inst(block.instructions[edge.from]) +
         cost_inst(block.instructions[edge.to]);
}

double RvCostModel::predict(const BasicBlock& block) const {
  if (block.empty()) return 0.0;
  double best = cost_num_insts(block.size());
  for (const auto& inst : block.instructions) {
    best = std::max(best, cost_inst(inst));
  }
  const DepGraph g = DepGraph::build(block);
  for (const auto& e : g.edges()) {
    best = std::max(best, cost_dep(block, e));
  }
  return best;
}

void RvCostModel::predict_batch(std::span<const BasicBlock> blocks,
                                std::span<double> out) const {
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    out[i] = predict(blocks[i]);
  }
}

RvFeatureSet RvCostModel::ground_truth(const BasicBlock& block) const {
  constexpr double kTieTol = 1e-9;
  const double total = predict(block);
  RvFeatureSet gt;
  if (std::abs(cost_num_insts(block.size()) - total) < kTieTol) {
    gt.insert(RvFeature(RvNumInstsFeature{block.size()}));
  }
  for (std::size_t i = 0; i < block.size(); ++i) {
    if (std::abs(cost_inst(block.instructions[i]) - total) < kTieTol) {
      gt.insert(RvFeature(RvInstFeature{i, block.instructions[i].opcode}));
    }
  }
  const DepGraph g = DepGraph::build(block);
  for (const auto& e : g.edges()) {
    if (std::abs(cost_dep(block, e) - total) < kTieTol) {
      gt.insert(RvFeature(RvDepFeature{e.from, e.to, e.kind}));
    }
  }
  return gt;
}

}  // namespace comet::riscv
