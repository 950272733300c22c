#include "bhive/dataset.h"

#include <algorithm>

#include "sim/models.h"

namespace comet::bhive {

Dataset::Dataset(std::vector<LabeledBlock> blocks)
    : blocks_(std::move(blocks)) {}

Dataset Dataset::by_source(BlockSource source) const {
  std::vector<LabeledBlock> out;
  for (const auto& b : blocks_) {
    if (b.source == source) out.push_back(b);
  }
  return Dataset(std::move(out));
}

Dataset Dataset::by_category(BlockCategory category) const {
  std::vector<LabeledBlock> out;
  for (const auto& b : blocks_) {
    if (b.category == category) out.push_back(b);
  }
  return Dataset(std::move(out));
}

Dataset Dataset::sample(std::size_t n, util::Rng& rng) const {
  std::vector<std::size_t> idx(blocks_.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng.shuffle(idx);
  std::vector<LabeledBlock> out;
  for (std::size_t i = 0; i < std::min(n, idx.size()); ++i) {
    out.push_back(blocks_[idx[i]]);
  }
  return Dataset(std::move(out));
}

Dataset Dataset::head(std::size_t n) const {
  std::vector<LabeledBlock> out(blocks_.begin(),
                                blocks_.begin() + std::min(n, blocks_.size()));
  return Dataset(std::move(out));
}

std::vector<x86::BasicBlock> Dataset::block_views() const {
  std::vector<x86::BasicBlock> out;
  out.reserve(blocks_.size());
  for (const auto& b : blocks_) out.push_back(b.block);
  return out;
}

std::vector<double> Dataset::label_views(cost::MicroArch uarch) const {
  std::vector<double> out;
  out.reserve(blocks_.size());
  for (const auto& b : blocks_) out.push_back(b.measured(uarch));
  return out;
}

Dataset generate_dataset(const DatasetOptions& options) {
  util::Rng rng(options.seed);
  std::vector<LabeledBlock> blocks;
  blocks.reserve(options.size);
  const std::size_t n_clang = options.size / 2;
  for (std::size_t i = 0; i < options.size; ++i) {
    GeneratorOptions gopt;
    gopt.source = i < n_clang ? BlockSource::Clang : BlockSource::OpenBLAS;
    const BlockGenerator gen(gopt);
    LabeledBlock lb;
    lb.block = gen.generate(rng);
    lb.source = gopt.source;
    lb.category = classify(lb.block);
    lb.measured_hsw =
        sim::measured_throughput(lb.block, cost::MicroArch::Haswell);
    lb.measured_skl =
        sim::measured_throughput(lb.block, cost::MicroArch::Skylake);
    blocks.push_back(std::move(lb));
  }
  return Dataset(std::move(blocks));
}

Dataset explanation_test_set(const Dataset& dataset, std::size_t n,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  return dataset.sample(n, rng);
}

}  // namespace comet::bhive
