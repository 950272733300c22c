#include "nn/mat.h"

#include <algorithm>
#include <cmath>

namespace comet::nn {

Mat::Mat(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), w_(rows * cols, 0.f), g_(rows * cols, 0.f) {}

void Mat::zero_grad() { std::fill(g_.begin(), g_.end(), 0.f); }

void Mat::init_xavier(util::Rng& rng) {
  const double bound = std::sqrt(6.0 / static_cast<double>(rows_ + cols_));
  for (auto& x : w_) x = static_cast<float>(rng.uniform(-bound, bound));
}

void affine(const Mat& W, const Mat& b, const float* x, float* y) {
  const std::size_t out = W.rows();
  const std::size_t in = W.cols();
  const float* w = W.data();
  for (std::size_t r = 0; r < out; ++r) {
    float acc = b.data()[r];
    const float* row = w + r * in;
    for (std::size_t c = 0; c < in; ++c) acc += row[c] * x[c];
    y[r] += acc;
  }
}

void affine_backward(Mat& W, Mat& b, const float* x, const float* dy,
                     float* dx) {
  const std::size_t out = W.rows();
  const std::size_t in = W.cols();
  float* gw = W.grad();
  float* gb = b.grad();
  const float* w = W.data();
  for (std::size_t r = 0; r < out; ++r) {
    const float d = dy[r];
    gb[r] += d;
    float* grow = gw + r * in;
    const float* row = w + r * in;
    for (std::size_t c = 0; c < in; ++c) {
      grow[c] += d * x[c];
      if (dx != nullptr) dx[c] += d * row[c];
    }
  }
}

namespace {

// One Adam update over n entries: both moments in place, then
// w -= lr * m̂ / (sqrt(v̂) + eps), element-wise in double. The loop
// vectorizes: this file is built with -fno-math-errno, which lets sqrt
// compile to the (correctly rounded) vector instruction instead of a libm
// call kept for its errno. kUnitBc1 says bc1 == 1.0, so m̂ = m.
template <bool kUnitBc1>
void adam_update(const Adam::Config& config, double bc1, double bc2,
                 float* m, float* v, float* w, const float* g,
                 std::size_t n) {
  const double beta1 = config.beta1;
  const double beta2 = config.beta2;
  const double lr = config.lr;
  const double eps = config.eps;
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = static_cast<float>(beta1 * m[i] + (1.0 - beta1) * g[i]);
    v[i] = static_cast<float>(beta2 * v[i] +
                              (1.0 - beta2) * double(g[i]) * g[i]);
    const double mhat = kUnitBc1 ? double(m[i]) : m[i] / bc1;
    const double vhat = v[i] / bc2;
    w[i] -= static_cast<float>(lr * mhat / (std::sqrt(vhat) + eps));
  }
}

}  // namespace

Adam::Adam(std::vector<Mat*> params) : Adam(std::move(params), Config()) {}

Adam::Adam(std::vector<Mat*> params, Config config)
    : params_(std::move(params)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Mat* p : params_) {
    m_.emplace_back(p->size(), 0.f);
    v_.emplace_back(p->size(), 0.f);
  }
}

void Adam::step() {
  ++t_;
  // Global gradient-norm clipping. The norm sums in double, in parameter
  // order; exact-zero entries are skipped (norm2 + 0.0 == norm2, so the sum
  // keeps every bit), which passes over most of the embedding table: one
  // block touches a few dozen of its rows.
  if (config_.clip > 0) {
    double norm2 = 0.0;
    for (const Mat* p : params_) {
      const float* g = p->grad();
      for (std::size_t i = 0; i < p->size(); ++i) {
        if (g[i] != 0.f) norm2 += double(g[i]) * g[i];
      }
    }
    const double norm = std::sqrt(norm2);
    if (norm > config_.clip) {
      const float scale = static_cast<float>(config_.clip / norm);
      for (Mat* p : params_) {
        float* g = p->grad();
        for (std::size_t i = 0; i < p->size(); ++i) g[i] *= scale;
      }
    }
  }

  // Training-only path: Adam's bias correction is not part of the
  // batched==scalar inference parity contract, so libm is fine here.
  const double bc1 = 1.0 - std::pow(config_.beta1, t_);  // comet-lint: allow(libm-in-nn)
  const double bc2 = 1.0 - std::pow(config_.beta2, t_);  // comet-lint: allow(libm-in-nn)
  // Once beta1^t <= 2^-54 (from step ~356 for beta1 = 0.9), bc1 rounds to
  // exactly 1.0 and m / bc1 == m for every m, so the update drops that
  // division without moving a bit (BM_AdamStep: ~14% less time per step
  // than the general loop).
  const auto update = bc1 == 1.0 ? adam_update<true> : adam_update<false>;
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Mat* p = params_[k];
    update(config_, bc1, bc2, m_[k].data(), v_[k].data(), p->data(),
           p->grad(), p->size());
    p->zero_grad();
  }
}

}  // namespace comet::nn
