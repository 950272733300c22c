// Labeled synthetic BHive-like dataset: generated blocks annotated with
// "hardware-measured" throughput (oracle simulator + deterministic
// measurement noise) per microarchitecture, plus source and category tags
// for the paper's partitioned analyses (Figures 3-4).
#pragma once

#include <cstdint>
#include <vector>

#include "bhive/generator.h"
#include "cost/cost_model.h"
#include "x86/instruction.h"

namespace comet::bhive {

struct LabeledBlock {
  x86::BasicBlock block;
  double measured_hsw = 0.0;
  double measured_skl = 0.0;
  BlockSource source = BlockSource::Clang;
  BlockCategory category = BlockCategory::Scalar;

  double measured(cost::MicroArch uarch) const {
    return uarch == cost::MicroArch::Haswell ? measured_hsw : measured_skl;
  }
};

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::vector<LabeledBlock> blocks);

  std::size_t size() const { return blocks_.size(); }
  bool empty() const { return blocks_.empty(); }
  const LabeledBlock& operator[](std::size_t i) const { return blocks_[i]; }
  const std::vector<LabeledBlock>& blocks() const { return blocks_; }

  /// Sub-dataset filters.
  Dataset by_source(BlockSource source) const;
  Dataset by_category(BlockCategory category) const;

  /// Random sample without replacement; at most `n` items.
  Dataset sample(std::size_t n, util::Rng& rng) const;

  /// First `n` items (deterministic head).
  Dataset head(std::size_t n) const;

  /// Plain block and label views (for model training).
  std::vector<x86::BasicBlock> block_views() const;
  std::vector<double> label_views(cost::MicroArch uarch) const;

 private:
  std::vector<LabeledBlock> blocks_;
};

struct DatasetOptions {
  std::size_t size = 3000;
  std::uint64_t seed = 2024;
};

/// Generate a labeled dataset (deterministic for a given options struct):
/// the first half of the blocks are Clang-profile, the rest
/// OpenBLAS-profile, each with the generator's default shape.
Dataset generate_dataset(const DatasetOptions& options = {});

/// The 200-block explanation test set used throughout Section 6:
/// a random sample of blocks with 4-10 instructions.
Dataset explanation_test_set(const Dataset& dataset, std::size_t n,
                             std::uint64_t seed);

}  // namespace comet::bhive
