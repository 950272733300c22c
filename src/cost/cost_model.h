// The cost-model abstraction COMET explains.
//
// A cost model M maps valid basic blocks of an ISA to real-valued costs
// (here: steady-state loop throughput in cycles per iteration, the quantity
// Ithemal and uiCA predict). COMET assumes nothing beyond query access to
// predict(): every model in this repository — the crude analytical model C,
// the pipeline simulators, and the trained LSTM — sits behind this one
// interface, mirroring the paper's model-agnostic design.
//
// The interface is batch-first: the explanation engine issues whole sample
// batches through predict_batch(). The default is an element-wise loop over
// predict(), which the analytical models use as is; the Ithemal LSTM
// overrides it to share work across the blocks of a batch. predict() stays
// the single-query entry point and the semantic ground truth: predict_batch
// must agree with element-wise predict() exactly. A const model is safe to
// call from several threads at once; serving uses cores by running one
// explanation per worker, never by splitting a batch.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "x86/instruction.h"

namespace comet::cost {

/// Target microarchitectures studied in the paper.
enum class MicroArch : std::uint8_t { Haswell, Skylake };

std::string uarch_name(MicroArch uarch);

/// Query-access cost model interface.
class CostModel {
 public:
  virtual ~CostModel() = default;

  /// Predicted cost (throughput, cycles per steady-state loop iteration)
  /// of executing `block` on this model's microarchitecture.
  virtual double predict(const x86::BasicBlock& block) const = 0;

  /// Predict every block of `blocks` into the parallel `out` span
  /// (out.size() must equal blocks.size()). The default is a sequential
  /// element-wise loop; a model overrides it only when it can share work
  /// across the blocks of a batch.
  virtual void predict_batch(std::span<const x86::BasicBlock> blocks,
                             std::span<double> out) const;

  /// Human-readable model name ("ithemal", "uica", "crude", ...).
  virtual std::string name() const = 0;
};

}  // namespace comet::cost
