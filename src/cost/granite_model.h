// A Granite-style graph-neural-network throughput predictor, trained from
// scratch in this repository.
//
// Granite (Sykora et al. 2022) is the second neural cost-model family the
// paper cites: instead of Ithemal's sequence view, it predicts throughput
// from a graph of the basic block. This stand-in mirrors that design on our
// substrate: nodes are instructions, edges are the dependency-multigraph
// hazards (RAW/WAR/WAW, each in both directions) plus program-order
// sequence edges; node states are seeded from an opcode embedding and a
// small vector of semantic features, refined by relational message-passing
// layers, and sum-pooled into a block state read out by a softplus head.
// It trains on Ithemal's schedule and caches its weights the same way
// (cost/trainable_model.h).
//
// COMET never looks inside this model — it only calls predict(). Having a
// second, architecturally different neural model exercises the framework's
// model-agnostic claim and powers the extension benches that compare the
// explanation granularity of sequence- vs graph-structured predictors.
#pragma once

#include <vector>

#include "cost/trainable_model.h"
#include "graph/depgraph.h"
#include "nn/gnn.h"
#include "nn/mat.h"

namespace comet::cost {

struct GraniteConfig {
  std::size_t embed_dim = 12;
  std::size_t hidden_dim = 24;
  std::size_t num_layers = 2;
  std::size_t epochs = 5;
  double lr = 2e-3;
  std::uint64_t seed = 0x6A17E;
};

class GraniteModel final : public TrainableModel {
 public:
  explicit GraniteModel(MicroArch uarch, GraniteConfig config = {});

  double predict(const x86::BasicBlock& block) const override;
  // predict_batch: the base element-wise loop. Each block carries its own
  // dependency graph, so there is no work to share across a batch;
  // cross-query reuse comes from the query broker's memoization.
  std::string name() const override;

  /// Relation vocabulary: RAW/WAR/WAW × {forward, backward} + sequence
  /// edges × {forward, backward}.
  static constexpr std::size_t kNumRelations = 8;

 private:
  struct Forward;
  Forward forward(const x86::BasicBlock& block) const;

  /// One relative-error backward pass through the softplus readout.
  double accumulate_gradients(const x86::BasicBlock& block,
                              double target) override;

  /// Per-instruction numeric semantic features (operand counts, memory
  /// access bits, flag effects, widths).
  static constexpr std::size_t kNumNodeFeats = 8;
  static std::vector<float> node_features(const x86::Instruction& inst);

  /// Dependency + sequence edges of `block` in the relation vocabulary.
  static std::vector<nn::RelEdge> build_edges(const x86::BasicBlock& block);

  MicroArch uarch_;
  GraniteConfig config_;
  nn::Mat embedding_;  // kNumOpcodes x embed_dim
  nn::Mat feat_w_;     // embed_dim x kNumNodeFeats (numeric feats -> embed)
  std::vector<nn::RelGraphLayer> layers_;
  nn::Mat head_w_;  // 1 x hidden_dim
  nn::Mat head_b_;  // 1 x 1
};

}  // namespace comet::cost
