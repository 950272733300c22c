// Minimal dense linear-algebra + parameter containers for the from-scratch
// neural-network stack (the Ithemal-surrogate substrate).
//
// Design: float32, row-major, no allocation inside hot loops. Every learnable
// parameter is a Mat carrying its own gradient buffer, so optimizers operate
// on a flat list of Mat*.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.h"

namespace comet::nn {

/// Dense row-major matrix with a paired gradient buffer.
class Mat {
 public:
  Mat() = default;
  Mat(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return w_.size(); }

  float& at(std::size_t r, std::size_t c) { return w_[r * cols_ + c]; }
  float at(std::size_t r, std::size_t c) const { return w_[r * cols_ + c]; }
  float& grad_at(std::size_t r, std::size_t c) { return g_[r * cols_ + c]; }

  float* data() { return w_.data(); }
  const float* data() const { return w_.data(); }
  float* grad() { return g_.data(); }
  const float* grad() const { return g_.data(); }

  void zero_grad();

  /// Xavier/Glorot uniform initialization.
  void init_xavier(util::Rng& rng);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> w_;
  std::vector<float> g_;
};

/// y = W x + b  (W: out x in, x: in, y: out). Accumulates into y.
void affine(const Mat& W, const Mat& b, const float* x, float* y);

/// Backward of affine: given dy, accumulate dW, db, and dx.
/// dx may be nullptr to skip input-gradient computation.
void affine_backward(Mat& W, Mat& b, const float* x, const float* dy,
                     float* dx);

/// Adam optimizer over a set of parameter matrices.
class Adam {
 public:
  struct Config {
    double lr = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    double clip = 5.0;  ///< global gradient-norm clip; <=0 disables
  };

  explicit Adam(std::vector<Mat*> params);  ///< default Config
  Adam(std::vector<Mat*> params, Config config);

  /// Apply one update using the gradients currently stored in the params,
  /// then zero the gradients.
  void step();

  const Config& config() const { return config_; }
  void set_lr(double lr) { config_.lr = lr; }

 private:
  std::vector<Mat*> params_;
  Config config_;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
  long t_ = 0;
};

}  // namespace comet::nn
