#include "nn/lstm.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/contract.h"

namespace comet::nn {

namespace {

// Gate nonlinearities. Both LSTM paths — the training-time run() and the
// batched inference run_final_batch() — go through these exact functions,
// in lstm_step: libm's scalar expf/tanhf calls were ~70% of inference
// wall-clock and cannot vectorize, so the gates use a branch-free odd
// rational approximation of tanh (the classic 13/6-degree pair used by
// Eigen/XLA, ~1 ulp over the clamped range) that the vectorizer handles 4-8
// lanes wide. Using one implementation everywhere keeps batched inference
// bit-identical to scalar inference and to the activations the model was
// trained with.
inline float tanh_approx(float x) {
  constexpr float kSat = 7.90531110763549805f;  // |tanh| == 1 in float beyond
  x = std::min(kSat, std::max(-kSat, x));
  const float x2 = x * x;
  float p = -2.76076847742355e-16f;
  p = p * x2 + 2.00018790482477e-13f;
  p = p * x2 + -8.60467152213735e-11f;
  p = p * x2 + 5.12229709037114e-08f;
  p = p * x2 + 1.48572235717979e-05f;
  p = p * x2 + 6.37261928875436e-04f;
  p = p * x2 + 4.89352455891786e-03f;
  p = p * x;
  float q = 1.19825839466702e-06f;
  q = q * x2 + 1.18534705686654e-04f;
  q = q * x2 + 2.26843463243900e-03f;
  q = q * x2 + 4.89352518554385e-03f;
  return p / q;
}

inline float sigmoidf(float x) {
  return 0.5f * tanh_approx(0.5f * x) + 0.5f;
}

// Gate rows per register-held accumulator chunk of gate_preacts.
constexpr std::size_t kGateChunk = 32;

// pre[r] = (0 + (b[r] + sum_k wxt[k][r] * x[k])) + (0 + sum_k wht[k][r] * h[k])
// over the G = 4H gate rows, k ascending: the one gate pre-activation
// kernel of training (run) and inference (run_final_batch). wxt (D x G) and
// wht (H x G) are the transposed gate weights, so each k step is a
// contiguous row of G weights scaled by one input; the rows are walked in
// fixed chunks whose accumulators the compiler keeps in vector registers,
// then a scalar tail. No products are fused (-ffp-contract=off).
void gate_preacts(const float* b, const float* wxt, const float* x,
                  std::size_t D, const float* wht, const float* h,
                  std::size_t H, std::size_t G, float* pre) {
  std::size_t r0 = 0;
  for (; r0 + kGateChunk <= G; r0 += kGateChunk) {
    float in[kGateChunk];
    float rec[kGateChunk];
    for (std::size_t j = 0; j < kGateChunk; ++j) {
      in[j] = b[r0 + j];
      rec[j] = 0.f;
    }
    for (std::size_t k = 0; k < D; ++k) {
      const float xk = x[k];
      const float* w = wxt + k * G + r0;
      for (std::size_t j = 0; j < kGateChunk; ++j) in[j] += w[j] * xk;
    }
    for (std::size_t k = 0; k < H; ++k) {
      const float hk = h[k];
      const float* w = wht + k * G + r0;
      for (std::size_t j = 0; j < kGateChunk; ++j) rec[j] += w[j] * hk;
    }
    for (std::size_t j = 0; j < kGateChunk; ++j) {
      pre[r0 + j] = (0.f + in[j]) + rec[j];
    }
  }
  for (; r0 < G; ++r0) {
    float in = b[r0];
    for (std::size_t k = 0; k < D; ++k) in += wxt[k * G + r0] * x[k];
    float rec = 0.f;
    for (std::size_t k = 0; k < H; ++k) rec += wht[k * G + r0] * h[k];
    pre[r0] = (0.f + in) + rec;
  }
}

// The LSTM step of run() and run_final_batch(): g holds the 4H gate
// pre-activations on entry and the gates [i f g o] on return; then
// c = f * c_prev + i * g, tanh_c = tanh(c), h = o * tanh_c. One output per
// loop, so each loop passes the vectorizer's run-time alias checks.
void lstm_step(float* g, const float* c_prev, float* c, float* tanh_c,
               float* h, std::size_t H) {
  for (std::size_t i = 0; i < 2 * H; ++i) g[i] = sigmoidf(g[i]);  // i, f
  for (std::size_t i = 2 * H; i < 3 * H; ++i) g[i] = tanh_approx(g[i]);
  for (std::size_t i = 3 * H; i < 4 * H; ++i) g[i] = sigmoidf(g[i]);  // o
  const float* ig = g;
  const float* fg = g + H;
  const float* gg = g + 2 * H;
  const float* og = g + 3 * H;
  for (std::size_t i = 0; i < H; ++i) {
    c[i] = fg[i] * c_prev[i] + ig[i] * gg[i];
  }
  for (std::size_t i = 0; i < H; ++i) tanh_c[i] = tanh_approx(c[i]);
  for (std::size_t i = 0; i < H; ++i) h[i] = og[i] * tanh_c[i];
}

// dst (cols x rows) = transpose of the row-major rows x cols matrix W.
void transpose_into(const Mat& W, std::vector<float>& dst) {
  const std::size_t rows = W.rows();
  const std::size_t cols = W.cols();
  dst.resize(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) dst[c * rows + r] = W.at(r, c);
  }
}

// Backward of the gate product W in (W: G x n, G = 4H): accumulate the
// weight gradient d (x) in and din += W^T d, rows in ascending order. Each
// row is a contiguous run of n weights, so the loop vectorizes over it.
// Four rows go per pass (G is a multiple of 4), so din is loaded and
// stored once per four of its additions, which keep their order. The
// buffers never overlap, and __restrict says so, which spares the short
// inner loop a run-time alias check per pass.
void gate_weights_backward(const float* __restrict w, float* __restrict gw,
                           std::size_t G, std::size_t n,
                           const float* __restrict d,
                           const float* __restrict in,
                           float* __restrict din) {
  for (std::size_t r = 0; r < G; r += 4) {
    const float d0 = d[r];
    const float d1 = d[r + 1];
    const float d2 = d[r + 2];
    const float d3 = d[r + 3];
    const float* w0 = w + r * n;
    const float* w1 = w0 + n;
    const float* w2 = w1 + n;
    const float* w3 = w2 + n;
    float* g0 = gw + r * n;
    float* g1 = g0 + n;
    float* g2 = g1 + n;
    float* g3 = g2 + n;
    for (std::size_t k = 0; k < n; ++k) {
      g0[k] += d0 * in[k];
      g1[k] += d1 * in[k];
      g2[k] += d2 * in[k];
      g3[k] += d3 * in[k];
      din[k] = din[k] + d0 * w0[k] + d1 * w1[k] + d2 * w2[k] + d3 * w3[k];
    }
  }
}

}  // namespace

LstmCell::LstmCell(std::size_t input_dim, std::size_t hidden_dim,
                   util::Rng& rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      wx_(4 * hidden_dim, input_dim),
      wh_(4 * hidden_dim, hidden_dim),
      b_(4 * hidden_dim, 1) {
  wx_.init_xavier(rng);
  wh_.init_xavier(rng);
  // Forget-gate bias init to 1: standard trick for stable early training.
  for (std::size_t i = hidden_dim_; i < 2 * hidden_dim_; ++i) {
    b_.data()[i] = 1.f;
  }
}

void LstmCell::transpose_weights(LstmWeightsT& out) const {
  transpose_into(wx_, out.wxt);
  transpose_into(wh_, out.wht);
}

void LstmCell::run(std::span<const float* const> xs, const LstmWeightsT& wt,
                   LstmSequence& seq) const {
  const std::size_t H = hidden_dim_;
  const std::size_t G = 4 * H;
  const std::size_t T = xs.size();
  seq.x.assign(xs.begin(), xs.end());
  seq.gates.resize(T * G);
  seq.c.resize((T + 1) * H);
  seq.tanh_c.resize(T * H);
  seq.h.resize((T + 1) * H);
  std::fill_n(seq.c.begin(), H, 0.f);
  std::fill_n(seq.h.begin(), H, 0.f);
  for (std::size_t t = 0; t < T; ++t) {
    float* g = seq.gates.data() + t * G;
    const float* c_prev = seq.c.data() + t * H;
    const float* h_prev = seq.h.data() + t * H;
    float* c = seq.c.data() + (t + 1) * H;
    float* tanh_c = seq.tanh_c.data() + t * H;
    float* h = seq.h.data() + (t + 1) * H;
    gate_preacts(b_.data(), wt.wxt.data(), xs[t], input_dim_, wt.wht.data(),
                 h_prev, H, G, g);
    lstm_step(g, c_prev, c, tanh_c, h, H);
  }
}

void LstmCell::run_final_batch(std::span<const float* const> xs,
                               std::span<const std::size_t> ends,
                               const LstmWeightsT& wt,
                               std::vector<float>& h_out, LstmBatchScratch& s,
                               std::span<const float* const> starts,
                               std::span<float* const> saves,
                               std::size_t save_steps) const {
  const std::size_t H = hidden_dim_;
  const std::size_t G = 4 * H;
  COMET_CHECK(starts.empty() || starts.size() == ends.size());
  COMET_CHECK(saves.size() == ends.size() * save_steps);
  h_out.assign(ends.size() * H, 0.f);
  s.pre.resize(G);
  s.c.resize(2 * H);
  s.tanh_c.resize(H);
  std::size_t begin = 0;
  for (std::size_t lane = 0; lane < ends.size(); ++lane) {
    // The lane's hidden state lives in its output row from the start, so a
    // finished lane needs no copy-out.
    float* h = h_out.data() + lane * H;
    float* c_prev = s.c.data();
    float* c = c_prev + H;
    const float* start = starts.empty() ? nullptr : starts[lane];
    if (start) {
      std::copy_n(start, H, h);
      std::copy_n(start + H, H, c_prev);
    } else {
      std::fill_n(c_prev, H, 0.f);
    }
    float* const* slot = saves.data() + lane * save_steps;
    for (std::size_t t = begin; t < ends[lane]; ++t) {
      gate_preacts(b_.data(), wt.wxt.data(), xs[t], input_dim_,
                   wt.wht.data(), h, H, G, s.pre.data());
      lstm_step(s.pre.data(), c_prev, c, s.tanh_c.data(), h, H);
      std::swap(c_prev, c);
      if (t - begin < save_steps && slot[t - begin]) {
        std::copy_n(h, H, slot[t - begin]);
        std::copy_n(c_prev, H, slot[t - begin] + H);
      }
    }
    begin = ends[lane];
  }
}

void LstmCell::backward(const LstmSequence& seq, const float* dh_final,
                        LstmBpttScratch& scratch, std::vector<float>& dxs) {
  const std::size_t D = input_dim_;
  const std::size_t H = hidden_dim_;
  const std::size_t G = 4 * H;
  const std::size_t T = seq.steps();
  dxs.assign(T * D, 0.f);
  scratch.dh.assign(dh_final, dh_final + H);
  scratch.dc.assign(H, 0.f);
  scratch.dpre.resize(G);
  float* dh = scratch.dh.data();
  float* dc = scratch.dc.data();
  float* dpre = scratch.dpre.data();
  float* gb = b_.grad();
  for (std::size_t t = T; t-- > 0;) {
    const float* ig = seq.gates.data() + t * G;
    const float* fg = ig + H;
    const float* gg = ig + 2 * H;
    const float* og = ig + 3 * H;
    const float* tanh_c = seq.tanh_c.data() + t * H;
    const float* c_prev = seq.c.data() + t * H;
    // dc becomes this step's total cell gradient, the gate gradients
    // follow from it, and then it is carried back through the forget gate.
    for (std::size_t i = 0; i < H; ++i) {
      dc[i] += dh[i] * og[i] * (1.f - tanh_c[i] * tanh_c[i]);
    }
    for (std::size_t i = 0; i < H; ++i) {  // input gate
      dpre[i] = dc[i] * gg[i] * ig[i] * (1.f - ig[i]);
    }
    for (std::size_t i = 0; i < H; ++i) {  // forget gate
      dpre[H + i] = dc[i] * c_prev[i] * fg[i] * (1.f - fg[i]);
    }
    for (std::size_t i = 0; i < H; ++i) {  // candidate
      dpre[2 * H + i] = dc[i] * ig[i] * (1.f - gg[i] * gg[i]);
    }
    for (std::size_t i = 0; i < H; ++i) {  // output gate
      dpre[3 * H + i] = dh[i] * tanh_c[i] * og[i] * (1.f - og[i]);
    }
    for (std::size_t i = 0; i < H; ++i) dc[i] *= fg[i];

    for (std::size_t r = 0; r < G; ++r) gb[r] += dpre[r];
    gate_weights_backward(wx_.data(), wx_.grad(), G, D, dpre, seq.x[t],
                          dxs.data() + t * D);
    // dh is spent: it now accumulates dL/dh_prev.
    std::fill_n(dh, H, 0.f);
    gate_weights_backward(wh_.data(), wh_.grad(), G, H, dpre,
                          seq.h.data() + t * H, dh);
  }
}

std::vector<Mat*> LstmCell::params() { return {&wx_, &wh_, &b_}; }

}  // namespace comet::nn
