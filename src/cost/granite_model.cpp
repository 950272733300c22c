#include "cost/granite_model.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace comet::cost {

namespace {
constexpr std::uint32_t kMagic = 0xC03E7002;

std::size_t relation_of(graph::DepKind kind, bool forward) {
  const std::size_t base = static_cast<std::size_t>(kind) * 2;
  return forward ? base : base + 1;
}
constexpr std::size_t kSeqFwd = 6;
constexpr std::size_t kSeqBwd = 7;

double softplus(double x) {
  if (x > 30.0) return x;
  if (x < -30.0) return 0.0;
  return std::log1p(std::exp(x));
}
double sigmoid(double x) {
  if (x > 30.0) return 1.0;
  if (x < -30.0) return 0.0;
  return 1.0 / (1.0 + std::exp(-x));
}
}  // namespace

GraniteModel::GraniteModel(MicroArch uarch, GraniteConfig config)
    : TrainableModel({.kind = "GraniteModel", .magic = kMagic,
                      .epochs = config.epochs, .lr = config.lr,
                      .seed = config.seed}),
      uarch_(uarch),
      config_(config) {
  util::Rng rng(config_.seed + (uarch == MicroArch::Skylake ? 1 : 0));
  embedding_ = nn::Mat(x86::kNumOpcodes, config_.embed_dim);
  embedding_.init_xavier(rng);
  feat_w_ = nn::Mat(config_.embed_dim, kNumNodeFeats);
  feat_w_.init_xavier(rng);

  layers_.reserve(config_.num_layers);
  for (std::size_t l = 0; l < config_.num_layers; ++l) {
    const std::size_t in = l == 0 ? config_.embed_dim : config_.hidden_dim;
    layers_.emplace_back(in, config_.hidden_dim, kNumRelations, rng);
  }

  head_w_ = nn::Mat(1, config_.hidden_dim);
  head_w_.init_xavier(rng);
  head_b_ = nn::Mat(1, 1);
  head_b_.data()[0] = 0.0f;

  std::vector<nn::Mat*> params{&embedding_, &feat_w_, &head_w_, &head_b_};
  std::vector<nn::Mat*> checkpoint{&embedding_, &feat_w_};
  for (auto& layer : layers_) {
    for (auto* p : layer.params()) {
      params.push_back(p);
      checkpoint.push_back(p);
    }
  }
  checkpoint.push_back(&head_w_);
  checkpoint.push_back(&head_b_);
  init_training(std::move(params), std::move(checkpoint));
}

std::vector<float> GraniteModel::node_features(const x86::Instruction& inst) {
  const x86::InstSemantics sem = x86::semantics(inst);
  float reg_reads = 0.f, reg_writes = 0.f, max_width = 0.f;
  for (const auto& ra : sem.regs) {
    if (ra.read) reg_reads += 1.f;
    if (ra.write) reg_writes += 1.f;
    max_width = std::max(max_width, static_cast<float>(ra.reg.width_bits));
  }
  const bool mem_read =
      (sem.mem && sem.mem->read) || sem.stack_mem_read;
  const bool mem_write =
      (sem.mem && sem.mem->write) || sem.stack_mem_write;
  return {
      static_cast<float>(inst.operands.size()) / 4.f,
      mem_read ? 1.f : 0.f,
      mem_write ? 1.f : 0.f,
      sem.reads_flags ? 1.f : 0.f,
      sem.writes_flags ? 1.f : 0.f,
      reg_reads / 4.f,
      reg_writes / 2.f,
      max_width > 0.f ? std::log2(max_width) / 9.f : 0.f,
  };
}

std::vector<nn::RelEdge> GraniteModel::build_edges(
    const x86::BasicBlock& block) {
  std::vector<nn::RelEdge> edges;
  const graph::DepGraph g = graph::DepGraph::build(block);
  // Collapse multi-edges that differ only in carrying resource: the layer's
  // per-relation mean already normalizes counts, and the relation vocabulary
  // names the hazard kind, not the resource.
  std::set<std::tuple<std::size_t, std::size_t, graph::DepKind>> seen;
  for (const auto& e : g.edges()) {
    if (!seen.insert({e.from, e.to, e.kind}).second) continue;
    edges.push_back({e.from, e.to, relation_of(e.kind, /*forward=*/true)});
    edges.push_back({e.to, e.from, relation_of(e.kind, /*forward=*/false)});
  }
  for (std::size_t i = 0; i + 1 < block.size(); ++i) {
    edges.push_back({i, i + 1, kSeqFwd});
    edges.push_back({i + 1, i, kSeqBwd});
  }
  return edges;
}

struct GraniteModel::Forward {
  std::vector<nn::RelEdge> edges;
  std::vector<std::vector<float>> x0;  ///< initial node states
  std::vector<nn::GraphLayerCache> caches;
  std::vector<std::vector<float>> h_final;
  double raw = 0.0;
  double prediction = 0.0;
};

GraniteModel::Forward GraniteModel::forward(
    const x86::BasicBlock& block) const {
  Forward f;
  f.edges = build_edges(block);
  const std::size_t n = block.size();
  f.x0.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const auto& inst = block.instructions[v];
    std::vector<float> x(config_.embed_dim, 0.f);
    const float* row =
        embedding_.data() + static_cast<int>(inst.opcode) * config_.embed_dim;
    for (std::size_t d = 0; d < config_.embed_dim; ++d) x[d] = row[d];
    const std::vector<float> feats = node_features(inst);
    for (std::size_t i = 0; i < config_.embed_dim; ++i) {
      const float* frow = feat_w_.data() + i * kNumNodeFeats;
      float acc = 0.f;
      for (std::size_t j = 0; j < kNumNodeFeats; ++j) acc += frow[j] * feats[j];
      x[i] += acc;
    }
    f.x0[v] = std::move(x);
  }

  f.caches.resize(layers_.size());
  std::vector<std::vector<float>> h = f.x0;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    h = layers_[l].forward(h, f.edges, f.caches[l]);
  }
  f.h_final = std::move(h);

  double y = head_b_.data()[0];
  for (const auto& hv : f.h_final) {
    for (std::size_t i = 0; i < config_.hidden_dim; ++i) {
      y += head_w_.data()[i] * hv[i];
    }
  }
  // Sum-pooled readout through softplus: summation makes the block state
  // scale with instruction count (throughput is roughly additive in work),
  // softplus keeps predictions positive while staying asymptotically linear.
  f.raw = std::clamp(y, -30.0, 1e4);
  f.prediction = softplus(f.raw);
  return f;
}

double GraniteModel::predict(const x86::BasicBlock& block) const {
  if (block.empty()) return 0.0;
  return forward(block).prediction;
}

std::string GraniteModel::name() const {
  return "granite-" + uarch_name(uarch_);
}

double GraniteModel::accumulate_gradients(const x86::BasicBlock& block,
                                          double target) {
  Forward f = forward(block);
  const double rel = (f.prediction - target) / target;
  const double dy = 2.0 * rel / target * sigmoid(f.raw);

  const std::size_t n = f.h_final.size();
  std::vector<std::vector<float>> dh(n,
                                     std::vector<float>(config_.hidden_dim));
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < config_.hidden_dim; ++i) {
      head_w_.grad()[i] += static_cast<float>(dy) * f.h_final[v][i];
      dh[v][i] = static_cast<float>(dy) * head_w_.data()[i];
    }
  }
  head_b_.grad()[0] += static_cast<float>(dy);

  for (std::size_t l = layers_.size(); l-- > 0;) {
    dh = layers_[l].backward(f.caches[l], f.edges, std::move(dh));
  }

  // Input backward: embedding rows and the numeric-feature projection.
  for (std::size_t v = 0; v < n; ++v) {
    const auto& inst = block.instructions[v];
    float* grow =
        embedding_.grad() + static_cast<int>(inst.opcode) * config_.embed_dim;
    const std::vector<float> feats = node_features(inst);
    for (std::size_t i = 0; i < config_.embed_dim; ++i) {
      grow[i] += dh[v][i];
      float* fgrow = feat_w_.grad() + i * kNumNodeFeats;
      for (std::size_t j = 0; j < kNumNodeFeats; ++j) {
        fgrow[j] += dh[v][i] * feats[j];
      }
    }
  }
  return rel * rel;
}

}  // namespace comet::cost
