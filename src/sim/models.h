// Simulation-based cost models and the hardware-measurement stand-in.
//
//  * HardwareOracle — the detailed simulator configuration that plays the
//    role of real Haswell/Skylake silicon in this reproduction: it defines
//    the "actual" throughput of a block. measured_throughput() adds small
//    deterministic per-block measurement noise on top, mimicking the BHive
//    measurement pipeline that labels the dataset.
//  * UiCASimModel — the uiCA stand-in: the same simulator family with
//    deliberately coarsened parameters (rounded latencies, slightly
//    pessimistic divider occupancy). It tracks the oracle closely but not
//    exactly, reproducing uiCA's role as the lowest-error comparator.
//  * McaLikeModel — an LLVM-MCA-style static bound: no loop-carried
//    dependency tracking, so latency-bound blocks are underestimated.
//    Used in discussion/extension benches only.
#pragma once

#include "cost/cost_model.h"
#include "sim/pipeline.h"

namespace comet::sim {

class HardwareOracle final : public cost::CostModel {
 public:
  explicit HardwareOracle(cost::MicroArch uarch);
  double predict(const x86::BasicBlock& block) const override;
  std::string name() const override;
  cost::MicroArch uarch() const { return uarch_; }

 private:
  cost::MicroArch uarch_;
  SimOptions options_;
};

class UiCASimModel final : public cost::CostModel {
 public:
  explicit UiCASimModel(cost::MicroArch uarch);
  double predict(const x86::BasicBlock& block) const override;
  std::string name() const override;
  cost::MicroArch uarch() const { return uarch_; }

 private:
  cost::MicroArch uarch_;
  SimOptions options_;
};

class McaLikeModel final : public cost::CostModel {
 public:
  explicit McaLikeModel(cost::MicroArch uarch);
  double predict(const x86::BasicBlock& block) const override;
  std::string name() const override;

 private:
  cost::MicroArch uarch_;
  SimOptions options_;
};

/// The "measured on actual hardware" throughput of a block: oracle
/// prediction with +-2% deterministic, block-hash-seeded measurement noise.
/// This is what the synthetic BHive dataset is labeled with and what MAPE
/// is computed against.
double measured_throughput(const x86::BasicBlock& block,
                           cost::MicroArch uarch);

}  // namespace comet::sim
