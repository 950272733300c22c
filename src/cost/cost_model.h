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
// batches through predict_batch(), and models override it to amortize
// per-query setup (the neural models run an allocation-free inference path,
// the analytical models skip per-element virtual dispatch). predict() stays
// the single-query entry point and the semantic ground truth: predict_batch
// must agree with element-wise predict() exactly.
#pragma once

#include <cstdint>
#include <functional>
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
  /// element-wise fallback; models override it with a vectorized path.
  virtual void predict_batch(std::span<const x86::BasicBlock> blocks,
                             std::span<double> out) const;

  /// Human-readable model name ("ithemal", "uica", "crude", ...).
  virtual std::string name() const = 0;

  /// Intra-batch parallelism knob: when n >= 2, predict_batch
  /// implementations split each batch into up to n contiguous chunks and
  /// evaluate them concurrently on the process-wide shared
  /// util::ThreadPool. The default (1) keeps every batch fully sequential
  /// on the calling thread — no pool is created, and results, goldens, and
  /// query accounting are untouched. Per-block predictions are independent
  /// and deterministic, so a threaded batch is element-wise identical to a
  /// sequential one; only wall-clock changes.
  ///
  /// Not thread-safe against concurrent predict_batch calls on the same
  /// instance: set it during setup, before the model starts serving.
  void set_batch_threads(std::size_t n) { batch_threads_ = n == 0 ? 1 : n; }
  std::size_t batch_threads() const { return batch_threads_; }

 protected:
  /// Helper for predict_batch implementations: invoke fn(begin, end) over
  /// contiguous chunks covering [0, total). With batch_threads() <= 1 (or a
  /// batch too small to split) this is one inline fn(0, total) call;
  /// otherwise the chunks run on the shared util::ThreadPool and the call
  /// blocks until all of them finish. fn must write only its own out-span
  /// range and touch the model through const methods only.
  void for_batch_chunks(
      std::size_t total,
      const std::function<void(std::size_t, std::size_t)>& fn) const;

 private:
  std::size_t batch_threads_ = 1;
};

}  // namespace comet::cost
