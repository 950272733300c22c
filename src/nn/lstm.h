// LSTM cell and sequence runner with full backpropagation through time.
//
// Gate layout in the stacked 4H dimension: [input | forget | cell | output].
// run() keeps all per-step activations so backward() can run BPTT without
// recomputation. This is the recurrent building block of the hierarchical
// Ithemal surrogate (token LSTM feeding a block LSTM).
#pragma once

#include <span>
#include <vector>

#include "nn/mat.h"

namespace comet::nn {

/// Gate weights transposed into the layout the gate pre-activation kernel
/// reads: wx^T (D x 4H) and wh^T (H x 4H). Built by
/// LstmCell::transpose_weights; valid until the weights next change.
struct LstmWeightsT {
  std::vector<float> wxt;
  std::vector<float> wht;
};

/// Reusable scratch buffers of LstmCell::run_final_batch. One instance per
/// calling thread; buffers grow to the largest dimensions seen and are then
/// reused allocation-free across batches.
struct LstmBatchScratch {
  std::vector<float> pre;     // 4H pre-activations, then gates, of one step
  std::vector<float> c;       // 2 x H: the lane's previous and next cell state
  std::vector<float> tanh_c;  // H: tanh(c) of the current step
};

/// Activations of one sequence run, kept for BPTT. Each step's rows are
/// contiguous, and h and c carry a leading zero row (the initial state), so
/// step t reads its previous state in place as row t. Buffers only grow:
/// a reused LstmSequence makes repeated runs allocation-free.
struct LstmSequence {
  std::vector<const float*> x;  // step inputs, borrowed from the caller
  std::vector<float> gates;     // T x 4H post-nonlinearity [i f g o]
  std::vector<float> c;         // (T + 1) x H cell states
  std::vector<float> tanh_c;    // T x H, tanh(c) of each step
  std::vector<float> h;         // (T + 1) x H hidden states

  std::size_t steps() const { return x.size(); }
};

/// Working buffers of LstmCell::backward, reused across steps and calls.
struct LstmBpttScratch {
  std::vector<float> dh;    // H: dL/dh of the current step
  std::vector<float> dc;    // H: dL/dc of the current step
  std::vector<float> dpre;  // 4H: dL/d(gate pre-activations)
};

class LstmCell {
 public:
  LstmCell() = default;
  LstmCell(std::size_t input_dim, std::size_t hidden_dim, util::Rng& rng);

  std::size_t input_dim() const { return input_dim_; }
  std::size_t hidden_dim() const { return hidden_dim_; }

  /// Transpose the current gate weights into `out` (for run() and
  /// run_final_batch()).
  void transpose_weights(LstmWeightsT& out) const;

  /// Run the sequence `xs` (pointers to input_dim()-sized inputs, which
  /// must outlive `seq`) from zero state into `seq`. `wt` holds this cell's
  /// transposed weights. Each step is the pre-activation kernel and step
  /// function run_final_batch also runs, so both paths are bit-identical.
  void run(std::span<const float* const> xs, const LstmWeightsT& wt,
           LstmSequence& seq) const;

  /// The final hidden state of `seq` (zeros for an empty sequence).
  const float* final_hidden(const LstmSequence& seq) const {
    return seq.h.data() + seq.steps() * hidden_dim_;
  }

  /// Batched inference over B independent lanes. Lane b's inputs are
  /// xs[ends[b - 1]] .. xs[ends[b] - 1] (from xs[0] for b = 0): pointers to
  /// input_dim()-sized vectors (rows of an embedding table, or rows of a
  /// previous layer's output; the inputs are never copied). On return,
  /// `h_out` is a B x hidden_dim() row-major matrix whose row b holds lane
  /// b's final hidden state.
  ///
  /// A state is 2 x hidden_dim() floats, h then c. Lane b starts from zero
  /// state, or from starts[b] when `starts` is non-empty and starts[b] is
  /// non-null; an empty lane returns its start's h, or zeros without one.
  /// After its step j < save_steps, lane b writes its state to
  /// saves[b * save_steps + j] when that slot is non-null; `saves` holds
  /// B x save_steps slots, or none when save_steps is 0. Lanes run in
  /// order, so a state one lane saves may start a later lane of the same
  /// call.
  ///
  /// Each lane runs on its own over `wt`, this cell's transposed gate
  /// weights (a caller builds them once for many calls), so one step is two
  /// matrix-vector products whose inner loops run over the 4H gate rows in
  /// register-held chunks, at full SIMD width whatever the batch size. The
  /// step, from pre-activations to the new hidden state, is run()'s own
  /// code, so row b is bit-identical to the final hidden state of run()
  /// over the inputs that led to the lane's start followed by the lane's
  /// own.
  void run_final_batch(std::span<const float* const> xs,
                       std::span<const std::size_t> ends,
                       const LstmWeightsT& wt, std::vector<float>& h_out,
                       LstmBatchScratch& scratch,
                       std::span<const float* const> starts = {},
                       std::span<float* const> saves = {},
                       std::size_t save_steps = 0) const;

  /// BPTT over `seq` given dL/dh of its final hidden state: accumulate the
  /// parameter gradients and overwrite `dxs` with the T x input_dim()
  /// row-major input gradients (row t is dL/dx of step t).
  void backward(const LstmSequence& seq, const float* dh_final,
                LstmBpttScratch& scratch, std::vector<float>& dxs);

  std::vector<Mat*> params();

 private:
  std::size_t input_dim_ = 0;
  std::size_t hidden_dim_ = 0;
  Mat wx_;  // 4H x D
  Mat wh_;  // 4H x H
  Mat b_;   // 4H x 1
};

}  // namespace comet::nn
