// LSTM cell and sequence runner with full backpropagation through time.
//
// Gate layout in the stacked 4H dimension: [input | forget | cell | output].
// Forward caches all per-step activations so backward() can run BPTT without
// recomputation. This is the recurrent building block of the hierarchical
// Ithemal surrogate (token LSTM feeding a block LSTM).
#pragma once

#include <vector>

#include "nn/mat.h"

namespace comet::nn {

/// Reusable scratch buffers of LstmCell::run_final_batch. One instance per
/// calling thread; buffers grow to the largest dimensions seen and are then
/// reused allocation-free across batches.
struct LstmBatchScratch {
  std::vector<float> wxt;  // D x 4H: wx transposed, rebuilt on every call
  std::vector<float> wht;  // H x 4H: wh transposed, rebuilt on every call
  std::vector<float> pre;  // 4H gate pre-activations of the current step
  std::vector<float> c;    // H cell state of the current lane
};

/// Cached activations of one LSTM step (needed for BPTT).
struct LstmStepCache {
  std::vector<float> x;       // input
  std::vector<float> h_prev;  // previous hidden
  std::vector<float> c_prev;  // previous cell
  std::vector<float> gates;   // post-nonlinearity [i f g o]
  std::vector<float> c;       // new cell
  std::vector<float> tanh_c;  // tanh(c)
  std::vector<float> h;       // new hidden
};

class LstmCell {
 public:
  LstmCell() = default;
  LstmCell(std::size_t input_dim, std::size_t hidden_dim, util::Rng& rng);

  std::size_t input_dim() const { return input_dim_; }
  std::size_t hidden_dim() const { return hidden_dim_; }

  /// One forward step; returns the cache required for backward.
  LstmStepCache forward(const std::vector<float>& x,
                        const std::vector<float>& h_prev,
                        const std::vector<float>& c_prev) const;

  /// One BPTT step: given dL/dh and dL/dc at this step, accumulate parameter
  /// gradients and produce dL/dx, dL/dh_prev, dL/dc_prev.
  void backward(const LstmStepCache& cache, const std::vector<float>& dh,
                const std::vector<float>& dc, std::vector<float>& dx,
                std::vector<float>& dh_prev, std::vector<float>& dc_prev);

  /// Run a whole sequence from zero state; returns all step caches.
  /// The final hidden state is caches.back().h (or zeros for empty input).
  std::vector<LstmStepCache> run(
      const std::vector<std::vector<float>>& xs) const;

  /// Batched inference: run B independent sequences from zero state.
  /// `seqs[b]` is lane b's input sequence as pointers to `input_dim()`-sized
  /// vectors (rows of an embedding table, or rows of a previous layer's
  /// output; the inputs are never copied). On return, `h_out` is a
  /// B x hidden_dim() row-major matrix whose row b holds lane b's final
  /// hidden state (zeros for an empty lane).
  ///
  /// Each lane runs on its own over transposed copies of the gate weights
  /// (built into `scratch` per call), so one step is two matrix-vector
  /// products whose inner loops run over the 4H gate rows in register-held
  /// chunks, at full SIMD width whatever the batch size. Every gate
  /// pre-activation is the same k-ascending chain forward() computes, so
  /// row b is bit-identical to run(seqs[b]).back().h.
  void run_final_batch(const std::vector<std::vector<const float*>>& seqs,
                       std::vector<float>& h_out,
                       LstmBatchScratch& scratch) const;

  /// BPTT over a full sequence given the gradient of the final hidden state.
  /// Returns dL/dx for every step.
  std::vector<std::vector<float>> backward_sequence(
      const std::vector<LstmStepCache>& caches,
      const std::vector<float>& dh_final);

  std::vector<Mat*> params();
  std::vector<const Mat*> params() const;

 private:
  std::size_t input_dim_ = 0;
  std::size_t hidden_dim_ = 0;
  Mat wx_;  // 4H x D
  Mat wh_;  // 4H x H
  Mat b_;   // 4H x 1
};

}  // namespace comet::nn
