// Perturbation-consistency fine-tuning: COMET's feedback loop into model
// training (paper Section 7, future work).
//
// The paper proposes that "COMET's feedback can be leveraged to update the
// model parameters during training to have the predictions rely on
// finer-grained features". This module implements that loop on our
// substrate. The lever is COMET's own perturbation distribution Γ({η}):
// sampling it yields blocks that differ from a training block in exactly
// the fine-grained dimensions COMET's explanations are built from (opcode
// identity, dependency structure) while keeping the coarse one, the
// instruction count. Labeling those perturbations
// with the ground-truth oracle and fine-tuning on them penalizes a model
// that predicts from η alone — two perturbations with equal length but a
// broken RAW chain now carry different targets.
//
// The extension bench (bench_ext_finetune) closes the paper's loop: it
// measures MAPE *and* the explanation feature-type composition before and
// after fine-tuning, checking that error drops as explanations shift
// toward fine-grained features — the inverse correlation of Figures 2-4,
// induced rather than observed.
#pragma once

#include <cstdint>
#include <vector>

#include "cost/trainable_model.h"
#include "perturb/perturber.h"
#include "util/rng.h"
#include "util/stats.h"

namespace comet::cost {

struct FinetuneOptions {
  /// Fine-tuning passes over the block set.
  std::size_t rounds = 1;
  /// Γ({η}) samples drawn (and oracle-labeled) per block per round.
  std::size_t perturbations_per_block = 6;
};

struct FinetuneResult {
  /// Training-set MAPE (%) against `targets` before / after fine-tuning.
  double mape_before = 0.0;
  double mape_after = 0.0;
  /// Oracle-labeled perturbation pairs consumed.
  std::size_t augmented_samples = 0;
};

/// Fine-tune `model` (the Ithemal or Granite surrogate) on Γ-perturbations
/// of `blocks` labeled by `oracle`. `targets` are the measured costs of the
/// originals.
inline FinetuneResult finetune_with_perturbations(
    TrainableModel& model, const std::vector<x86::BasicBlock>& blocks,
    const std::vector<double>& targets, const CostModel& oracle,
    const FinetuneOptions& options = {}) {
  // Each original (block, target) pair is replayed this many times per
  // round, so fine-tuning does not drift off the measured distribution;
  // matching the default perturbations_per_block keeps the two sources
  // balanced.
  constexpr std::size_t kOriginalReplays = 6;
  // Gentler than from-scratch training: the model is warm and the
  // perturbation distribution is intentionally off the measured one.
  constexpr double kLearningRate = 5e-4;
  constexpr std::uint64_t kSeed = 0xF17E;
  FinetuneResult result;

  const auto mape_now = [&] {
    std::vector<double> preds(blocks.size());
    model.predict_batch(std::span<const x86::BasicBlock>(blocks),
                        std::span<double>(preds));
    return util::mape(preds, targets);
  };
  result.mape_before = mape_now();

  model.set_learning_rate(kLearningRate);
  util::Rng rng(kSeed);
  std::vector<std::size_t> order(blocks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (std::size_t round = 0; round < options.rounds; ++round) {
    rng.shuffle(order);
    for (const std::size_t i : order) {
      // Γ({η}): every perturbation keeps the instruction count, so each
      // augmented pair differs from the original only in fine-grained
      // features — the signal the paper's feedback loop wants the model to
      // pick up — and the length distribution of the training stream is
      // unchanged.
      const perturb::Perturber perturber(blocks[i]);
      graph::FeatureSet preserve;
      preserve.insert(graph::Feature(graph::NumInstsFeature{blocks[i].size()}));
      for (std::size_t k = 0; k < options.perturbations_per_block; ++k) {
        const auto pb = perturber.sample(preserve, rng);
        if (pb.block.empty()) continue;
        const double label = oracle.predict(pb.block);
        if (label <= 0.0) continue;
        model.train_step(pb.block, label);
        ++result.augmented_samples;
      }
      for (std::size_t k = 0; k < kOriginalReplays; ++k) {
        model.train_step(blocks[i], targets[i]);
      }
    }
  }

  result.mape_after = mape_now();
  return result;
}

}  // namespace comet::cost
