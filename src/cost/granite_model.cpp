#include "cost/granite_model.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "cost/checkpoint.h"
#include "util/contract.h"
#include "util/stats.h"

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
    : uarch_(uarch), config_(config) {
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
  for (auto& layer : layers_) {
    for (auto* p : layer.params()) params.push_back(p);
  }
  nn::Adam::Config ac;
  ac.lr = config_.lr;
  adam_ = std::make_unique<nn::Adam>(std::move(params), ac);
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

void GraniteModel::set_learning_rate(double lr) { adam_->set_lr(lr); }

double GraniteModel::train_step(const x86::BasicBlock& block, double target) {
  COMET_CHECK_MSG(std::isfinite(target),
                  "GraniteModel::train_step: non-finite target " << target);
  if (block.empty() || target <= 0.0) return 0.0;
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
  adam_->step();
  return rel * rel;
}

double GraniteModel::train(const std::vector<x86::BasicBlock>& blocks,
                           const std::vector<double>& targets) {
  if (blocks.size() != targets.size()) {
    throw std::invalid_argument("GraniteModel::train: size mismatch");
  }
  util::Rng rng(config_.seed ^ 0x5eedULL);
  std::vector<std::size_t> order(blocks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    adam_->set_lr(config_.lr *
                  (1.0 - 0.6 * static_cast<double>(epoch) /
                             std::max<std::size_t>(1, config_.epochs)));
    for (const std::size_t i : order) train_step(blocks[i], targets[i]);
  }

  std::vector<double> preds, acts;
  preds.reserve(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    preds.push_back(predict(blocks[i]));
    acts.push_back(targets[i]);
  }
  return util::mape(preds, acts);
}

std::vector<nn::Mat*> GraniteModel::checkpoint_mats() {
  std::vector<nn::Mat*> mats{&embedding_, &feat_w_};
  for (auto& layer : layers_) {
    for (auto* p : layer.params()) mats.push_back(p);
  }
  mats.push_back(&head_w_);
  mats.push_back(&head_b_);
  return mats;
}

std::vector<const nn::Mat*> GraniteModel::checkpoint_mats() const {
  std::vector<const nn::Mat*> mats{&embedding_, &feat_w_};
  for (const auto& layer : layers_) {
    for (const auto* p : layer.params()) mats.push_back(p);
  }
  mats.push_back(&head_w_);
  mats.push_back(&head_b_);
  return mats;
}

void GraniteModel::save(const std::filesystem::path& path) const {
  save_checkpoint(path, kMagic, "GraniteModel::save", checkpoint_mats());
}

bool GraniteModel::load(const std::filesystem::path& path) {
  // load_checkpoint (cost/checkpoint.h) stages, size-gates, and validates:
  // missing file or stale magic is a cache miss (false); a truncated,
  // oversized, dimension-forged, or bit-flipped checkpoint throws
  // util::ContractViolation before any live weight changes. This also
  // closes an older gap: GraniteModel used to stream weights straight into
  // the live matrices, so a truncated file left the model half-overwritten.
  return load_checkpoint(path, kMagic, "GraniteModel::load",
                         checkpoint_mats());
}

double GraniteModel::train_or_load(
    const std::filesystem::path& path,
    const std::vector<x86::BasicBlock>& blocks,
    const std::vector<double>& targets) {
  if (load(path)) return 0.0;
  const double final_mape = train(blocks, targets);
  save(path);
  return final_mape;
}

}  // namespace comet::cost
