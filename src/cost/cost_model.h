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
//
// A caller that sends a stream of related batches (the query broker, one
// per explanation) opens a ModelSession and sends them through it. A
// session may keep work that outlives one batch: the Ithemal session keeps
// each distinct instruction's token-LSTM state and each short block
// prefix's block-LSTM state for the whole explanation. Its results are
// still bit-identical to predict(). The session belongs to
// its caller and to one thread; the model stays const and shared. The
// default session forwards every batch to the model's own predict_batch,
// so a model without an override (the simulators, crude, Granite, remote
// shard clients, decorators) needs no session code. Ithemal has one
// inference path: without a caller session, predict_batch runs the same
// code over a call-local table.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "x86/instruction.h"

namespace comet::cost {

/// Target microarchitectures studied in the paper.
enum class MicroArch : std::uint8_t { Haswell, Skylake };

std::string uarch_name(MicroArch uarch);

/// A caller-owned stream of predict_batch calls against one model (see the
/// header comment). Not thread-safe: confine a session to one thread.
class ModelSession {
 public:
  virtual ~ModelSession() = default;

  /// Same contract as CostModel::predict_batch.
  virtual void predict_batch(std::span<const x86::BasicBlock> blocks,
                             std::span<double> out) = 0;
};

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

  /// Open a session for a stream of batches; the model must outlive it,
  /// and its weights must not change while it is open. The default
  /// forwards every batch to predict_batch().
  virtual std::unique_ptr<ModelSession> open_session() const;

  /// Human-readable model name ("ithemal", "uica", "crude", ...).
  virtual std::string name() const = 0;
};

}  // namespace comet::cost
