#include "nn/lstm.h"

#include <algorithm>
#include <cmath>

namespace comet::nn {

namespace {

// Gate nonlinearities. Both LSTM paths — the training-time forward() and
// the batched inference run_final_batch() — must go through these exact
// functions: libm's scalar expf/tanhf calls were ~70% of inference
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
// over the G = 4H gate rows, k ascending: the chains forward() builds with
// affine() into a zeroed buffer plus its recurrent loop. wxt (D x G) and
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

// dst (cols x rows) = transpose of the row-major rows x cols matrix W.
void transpose_into(const Mat& W, std::vector<float>& dst) {
  const std::size_t rows = W.rows();
  const std::size_t cols = W.cols();
  dst.resize(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) dst[c * rows + r] = W.at(r, c);
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

LstmStepCache LstmCell::forward(const std::vector<float>& x,
                                const std::vector<float>& h_prev,
                                const std::vector<float>& c_prev) const {
  const std::size_t H = hidden_dim_;
  LstmStepCache cache;
  cache.x = x;
  cache.h_prev = h_prev;
  cache.c_prev = c_prev;

  std::vector<float> pre(4 * H, 0.f);
  affine(wx_, b_, x.data(), pre.data());
  // wh * h_prev (bias already added once).
  for (std::size_t r = 0; r < 4 * H; ++r) {
    float acc = 0.f;
    const float* row = wh_.data() + r * H;
    for (std::size_t c = 0; c < H; ++c) acc += row[c] * h_prev[c];
    pre[r] += acc;
  }

  cache.gates.resize(4 * H);
  for (std::size_t i = 0; i < H; ++i) {
    cache.gates[i] = sigmoidf(pre[i]);                    // input gate
    cache.gates[H + i] = sigmoidf(pre[H + i]);            // forget gate
    cache.gates[2 * H + i] = tanh_approx(pre[2 * H + i]);  // candidate
    cache.gates[3 * H + i] = sigmoidf(pre[3 * H + i]);    // output gate
  }
  cache.c.resize(H);
  cache.tanh_c.resize(H);
  cache.h.resize(H);
  for (std::size_t i = 0; i < H; ++i) {
    cache.c[i] = cache.gates[H + i] * c_prev[i] +
                 cache.gates[i] * cache.gates[2 * H + i];
    cache.tanh_c[i] = tanh_approx(cache.c[i]);
    cache.h[i] = cache.gates[3 * H + i] * cache.tanh_c[i];
  }
  return cache;
}

void LstmCell::backward(const LstmStepCache& cache,
                        const std::vector<float>& dh,
                        const std::vector<float>& dc_in,
                        std::vector<float>& dx, std::vector<float>& dh_prev,
                        std::vector<float>& dc_prev) {
  const std::size_t H = hidden_dim_;
  dx.assign(input_dim_, 0.f);
  dh_prev.assign(H, 0.f);
  dc_prev.assign(H, 0.f);

  std::vector<float> dpre(4 * H, 0.f);
  for (std::size_t i = 0; i < H; ++i) {
    const float ig = cache.gates[i];
    const float fg = cache.gates[H + i];
    const float gg = cache.gates[2 * H + i];
    const float og = cache.gates[3 * H + i];
    const float dtanh = 1.f - cache.tanh_c[i] * cache.tanh_c[i];
    const float dc = dc_in[i] + dh[i] * og * dtanh;

    dpre[i] = dc * gg * ig * (1.f - ig);                   // d input gate
    dpre[H + i] = dc * cache.c_prev[i] * fg * (1.f - fg);  // d forget gate
    dpre[2 * H + i] = dc * ig * (1.f - gg * gg);           // d candidate
    dpre[3 * H + i] =
        dh[i] * cache.tanh_c[i] * og * (1.f - og);         // d output gate
    dc_prev[i] = dc * fg;
  }

  affine_backward(wx_, b_, cache.x.data(), dpre.data(), dx.data());
  // wh backward (no second bias accumulation: subtract what affine_backward
  // just double-counted would be wrong — instead do it manually).
  for (std::size_t r = 0; r < 4 * H; ++r) {
    const float d = dpre[r];
    float* grow = wh_.grad() + r * H;
    const float* row = wh_.data() + r * H;
    for (std::size_t c = 0; c < H; ++c) {
      grow[c] += d * cache.h_prev[c];
      dh_prev[c] += d * row[c];
    }
  }
  // Note: b_ gradient was accumulated once in affine_backward; correct.
}

std::vector<LstmStepCache> LstmCell::run(
    const std::vector<std::vector<float>>& xs) const {
  std::vector<LstmStepCache> caches;
  caches.reserve(xs.size());
  std::vector<float> h(hidden_dim_, 0.f), c(hidden_dim_, 0.f);
  for (const auto& x : xs) {
    caches.push_back(forward(x, h, c));
    h = caches.back().h;
    c = caches.back().c;
  }
  return caches;
}

void LstmCell::run_final_batch(
    const std::vector<std::vector<const float*>>& seqs,
    std::vector<float>& h_out, LstmBatchScratch& s) const {
  const std::size_t H = hidden_dim_;
  const std::size_t G = 4 * H;
  h_out.assign(seqs.size() * H, 0.f);
  transpose_into(wx_, s.wxt);
  transpose_into(wh_, s.wht);
  s.pre.resize(G);
  s.c.resize(H);
  for (std::size_t lane = 0; lane < seqs.size(); ++lane) {
    // The lane's hidden state lives in its output row from the start, so an
    // empty lane leaves zeros and a finished one needs no copy-out.
    float* h = h_out.data() + lane * H;
    std::fill(s.c.begin(), s.c.end(), 0.f);
    for (const float* x : seqs[lane]) {
      gate_preacts(b_.data(), s.wxt.data(), x, input_dim_, s.wht.data(), h,
                   H, G, s.pre.data());
      // Same gate code and operation order as forward().
      const float* pre = s.pre.data();
      float* c = s.c.data();
      for (std::size_t i = 0; i < H; ++i) {
        const float ig = sigmoidf(pre[i]);
        const float fg = sigmoidf(pre[H + i]);
        const float gg = tanh_approx(pre[2 * H + i]);
        const float og = sigmoidf(pre[3 * H + i]);
        c[i] = fg * c[i] + ig * gg;
        h[i] = og * tanh_approx(c[i]);
      }
    }
  }
}

std::vector<std::vector<float>> LstmCell::backward_sequence(
    const std::vector<LstmStepCache>& caches,
    const std::vector<float>& dh_final) {
  std::vector<std::vector<float>> dxs(caches.size());
  std::vector<float> dh = dh_final;
  std::vector<float> dc(hidden_dim_, 0.f);
  for (std::size_t t = caches.size(); t-- > 0;) {
    std::vector<float> dh_prev, dc_prev;
    backward(caches[t], dh, dc, dxs[t], dh_prev, dc_prev);
    dh = std::move(dh_prev);
    dc = std::move(dc_prev);
  }
  return dxs;
}

std::vector<Mat*> LstmCell::params() { return {&wx_, &wh_, &b_}; }

std::vector<const Mat*> LstmCell::params() const {
  return {&wx_, &wh_, &b_};
}

}  // namespace comet::nn
