// Relational message-passing layers with full manual backpropagation.
//
// This is the graph-neural-network substrate behind the Granite-style cost
// model (Sykora et al. 2022, cited by the paper as a second neural cost
// model family). A RelGraphLayer updates every node state from its own
// state plus relation-typed messages from its neighbors:
//
//   h'_v = ReLU( W_self h_v + b + Σ_r W_r · mean_{(u,v) ∈ E_r} h_u )
//
// where E_r is the edge set of relation r (dependency kind × direction,
// plus sequence edges — see cost/granite_model.h for the relation
// vocabulary). The per-relation mean keeps the message scale independent
// of degree, which matters on dependency multigraphs whose in-degree varies
// from 0 to η−1.
//
// Forward caches node inputs and ReLU masks so backward() can accumulate
// exact gradients for all parameter matrices and the input node states.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/mat.h"

namespace comet::nn {

/// One directed, relation-typed edge of the graph a layer runs over.
struct RelEdge {
  std::size_t src = 0;
  std::size_t dst = 0;
  std::size_t rel = 0;  ///< relation index in [0, num_relations)
};

/// Cached activations of one layer application (needed for backward).
struct GraphLayerCache {
  std::vector<std::vector<float>> x;    ///< node inputs
  std::vector<std::vector<float>> pre;  ///< pre-ReLU activations
  /// Per (node, relation): number of incoming edges, for mean backward.
  std::vector<std::vector<std::size_t>> in_degree;
};

class RelGraphLayer {
 public:
  RelGraphLayer() = default;
  RelGraphLayer(std::size_t in_dim, std::size_t out_dim,
                std::size_t num_relations, util::Rng& rng);

  std::size_t in_dim() const { return in_dim_; }
  std::size_t out_dim() const { return out_dim_; }
  std::size_t num_relations() const { return num_relations_; }

  /// Forward over all nodes; `x[v]` is node v's input state. Returns the
  /// new node states; fills `cache` for backward.
  std::vector<std::vector<float>> forward(
      const std::vector<std::vector<float>>& x,
      const std::vector<RelEdge>& edges, GraphLayerCache& cache) const;

  /// Backward: given dL/dh' for every node, accumulate parameter gradients
  /// and return dL/dx for every node.
  std::vector<std::vector<float>> backward(const GraphLayerCache& cache,
                                           const std::vector<RelEdge>& edges,
                                           std::vector<std::vector<float>> dh);

  std::vector<Mat*> params();

 private:
  std::size_t in_dim_ = 0;
  std::size_t out_dim_ = 0;
  std::size_t num_relations_ = 0;
  Mat w_self_;              // out x in
  Mat b_;                   // out x 1
  std::vector<Mat> w_rel_;  // num_relations of out x in
};

}  // namespace comet::nn
