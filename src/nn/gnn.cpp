#include "nn/gnn.h"

#include <stdexcept>

namespace comet::nn {

RelGraphLayer::RelGraphLayer(std::size_t in_dim, std::size_t out_dim,
                             std::size_t num_relations, util::Rng& rng)
    : in_dim_(in_dim), out_dim_(out_dim), num_relations_(num_relations) {
  w_self_ = Mat(out_dim, in_dim);
  w_self_.init_xavier(rng);
  b_ = Mat(out_dim, 1);
  w_rel_.reserve(num_relations);
  for (std::size_t r = 0; r < num_relations; ++r) {
    w_rel_.emplace_back(out_dim, in_dim);
    w_rel_.back().init_xavier(rng);
  }
}

std::vector<std::vector<float>> RelGraphLayer::forward(
    const std::vector<std::vector<float>>& x, const std::vector<RelEdge>& edges,
    GraphLayerCache& cache) const {
  const std::size_t n = x.size();
  cache.x = x;
  cache.pre.assign(n, std::vector<float>(out_dim_, 0.f));
  cache.in_degree.assign(n, std::vector<std::size_t>(num_relations_, 0));

  for (const RelEdge& e : edges) {
    if (e.src >= n || e.dst >= n || e.rel >= num_relations_) {
      throw std::invalid_argument("RelGraphLayer: edge out of range");
    }
    ++cache.in_degree[e.dst][e.rel];
  }

  // Self transform + bias.
  for (std::size_t v = 0; v < n; ++v) {
    affine(w_self_, b_, x[v].data(), cache.pre[v].data());
  }
  // Relation messages, normalized per (dst, rel) by in-degree.
  std::vector<float> msg(out_dim_);
  for (const RelEdge& e : edges) {
    const float inv =
        1.0f / static_cast<float>(cache.in_degree[e.dst][e.rel]);
    msg.assign(out_dim_, 0.f);
    const Mat& w = w_rel_[e.rel];
    for (std::size_t i = 0; i < out_dim_; ++i) {
      float acc = 0.f;
      const float* row = w.data() + i * in_dim_;
      for (std::size_t j = 0; j < in_dim_; ++j) acc += row[j] * x[e.src][j];
      cache.pre[e.dst][i] += inv * acc;
    }
  }

  std::vector<std::vector<float>> h(n, std::vector<float>(out_dim_));
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < out_dim_; ++i) {
      h[v][i] = cache.pre[v][i] > 0.f ? cache.pre[v][i] : 0.f;
    }
  }
  return h;
}

std::vector<std::vector<float>> RelGraphLayer::backward(
    const GraphLayerCache& cache, const std::vector<RelEdge>& edges,
    std::vector<std::vector<float>> dh) {
  const std::size_t n = cache.x.size();
  // ReLU backward in place: dpre = dh ⊙ [pre > 0].
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < out_dim_; ++i) {
      if (cache.pre[v][i] <= 0.f) dh[v][i] = 0.f;
    }
  }

  std::vector<std::vector<float>> dx(n, std::vector<float>(in_dim_, 0.f));
  // Self transform backward.
  for (std::size_t v = 0; v < n; ++v) {
    affine_backward(w_self_, b_, cache.x[v].data(), dh[v].data(),
                    dx[v].data());
  }
  // Message backward: dL/dW_r += inv * dpre_dst ⊗ x_src;
  //                   dL/dx_src += inv * W_rᵀ dpre_dst.
  for (const RelEdge& e : edges) {
    const float inv =
        1.0f / static_cast<float>(cache.in_degree[e.dst][e.rel]);
    Mat& w = w_rel_[e.rel];
    for (std::size_t i = 0; i < out_dim_; ++i) {
      const float d = inv * dh[e.dst][i];
      if (d == 0.f) continue;
      float* grow = w.grad() + i * in_dim_;
      const float* wrow = w.data() + i * in_dim_;
      for (std::size_t j = 0; j < in_dim_; ++j) {
        grow[j] += d * cache.x[e.src][j];
        dx[e.src][j] += d * wrow[j];
      }
    }
  }
  return dx;
}

std::vector<Mat*> RelGraphLayer::params() {
  std::vector<Mat*> out{&w_self_, &b_};
  for (Mat& m : w_rel_) out.push_back(&m);
  return out;
}

}  // namespace comet::nn
