#include "nn/mat.h"

#include <cmath>

namespace comet::nn {

Mat::Mat(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), w_(rows * cols, 0.f), g_(rows * cols, 0.f) {}

void Mat::zero_grad() { std::fill(g_.begin(), g_.end(), 0.f); }

void Mat::fill(float v) { std::fill(w_.begin(), w_.end(), v); }

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
  // Global gradient-norm clipping.
  if (config_.clip > 0) {
    double norm2 = 0.0;
    for (const Mat* p : params_) {
      for (std::size_t i = 0; i < p->size(); ++i) {
        norm2 += double(p->grad()[i]) * p->grad()[i];
      }
    }
    const double norm = std::sqrt(norm2);
    if (norm > config_.clip) {
      const float scale = static_cast<float>(config_.clip / norm);
      for (Mat* p : params_) {
        for (std::size_t i = 0; i < p->size(); ++i) p->grad()[i] *= scale;
      }
    }
  }

  // Training-only path: Adam's bias correction is not part of the
  // batched==scalar inference parity contract, so libm is fine here.
  const double bc1 = 1.0 - std::pow(config_.beta1, t_);  // comet-lint: allow(libm-in-nn)
  const double bc2 = 1.0 - std::pow(config_.beta2, t_);  // comet-lint: allow(libm-in-nn)
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Mat* p = params_[k];
    auto& m = m_[k];
    auto& v = v_[k];
    float* w = p->data();
    float* g = p->grad();
    for (std::size_t i = 0; i < p->size(); ++i) {
      m[i] = static_cast<float>(config_.beta1 * m[i] +
                                (1.0 - config_.beta1) * g[i]);
      v[i] = static_cast<float>(config_.beta2 * v[i] +
                                (1.0 - config_.beta2) * double(g[i]) * g[i]);
      const double mhat = m[i] / bc1;
      const double vhat = v[i] / bc2;
      w[i] -= static_cast<float>(config_.lr * mhat /
                                 (std::sqrt(vhat) + config_.eps));
    }
    p->zero_grad();
  }
}

}  // namespace comet::nn
