#include "cost/trainable_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cost/checkpoint.h"
#include "util/contract.h"
#include "util/rng.h"
#include "util/stats.h"

namespace comet::cost {

void TrainableModel::init_training(std::vector<nn::Mat*> optimizer_order,
                                   std::vector<nn::Mat*> checkpoint_order) {
  checkpoint_mats_ = std::move(checkpoint_order);
  nn::Adam::Config ac;
  ac.lr = training_.lr;
  adam_ = std::make_unique<nn::Adam>(std::move(optimizer_order), ac);
}

double TrainableModel::train_step(const x86::BasicBlock& block,
                                  double target) {
  COMET_CHECK_MSG(std::isfinite(target),
                  training_.kind << "::train_step: non-finite target "
                                 << target);
  if (block.empty() || target <= 0.0) return 0.0;
  const double loss = accumulate_gradients(block, target);
  adam_->step();
  return loss;
}

void TrainableModel::set_learning_rate(double lr) { adam_->set_lr(lr); }

double TrainableModel::train(const std::vector<x86::BasicBlock>& blocks,
                             const std::vector<double>& targets) {
  if (blocks.size() != targets.size()) {
    throw std::invalid_argument(std::string(training_.kind) +
                                "::train: size mismatch");
  }
  util::Rng rng(training_.seed ^ 0x5eedULL);
  std::vector<std::size_t> order(blocks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (std::size_t epoch = 0; epoch < training_.epochs; ++epoch) {
    rng.shuffle(order);
    // Simple linear learning-rate decay over epochs.
    adam_->set_lr(training_.lr *
                  (1.0 - 0.6 * static_cast<double>(epoch) /
                             std::max<std::size_t>(1, training_.epochs)));
    for (const std::size_t i : order) train_step(blocks[i], targets[i]);
  }
  release_training_buffers();

  // The closing MAPE goes through predict_batch (bit-equal to predict),
  // which holds one chunk of the training set's work at a time.
  std::vector<double> preds(blocks.size());
  predict_batch(blocks, preds);
  return util::mape(preds, targets);
}

void TrainableModel::save(const std::filesystem::path& path) const {
  save_checkpoint(path, training_.magic,
                  (std::string(training_.kind) + "::save").c_str(),
                  {checkpoint_mats_.begin(), checkpoint_mats_.end()});
}

bool TrainableModel::load(const std::filesystem::path& path) {
  // A missing file or stale magic is a cache miss (false); a truncated,
  // oversized, dimension-forged or bit-flipped checkpoint throws
  // util::ContractViolation before the live weights are touched.
  return load_checkpoint(path, training_.magic,
                         (std::string(training_.kind) + "::load").c_str(),
                         checkpoint_mats_);
}

double TrainableModel::train_or_load(
    const std::filesystem::path& path,
    const std::vector<x86::BasicBlock>& blocks,
    const std::vector<double>& targets) {
  if (load(path)) return 0.0;
  const double final_mape = train(blocks, targets);
  save(path);
  return final_mape;
}

}  // namespace comet::cost
