// The training schedule and weight caching of the neural cost models
// (IthemalModel, GraniteModel). A model supplies its matrices and its
// forward/backward pass; this base owns the optimizer step, the epochs,
// save/load (cost/checkpoint.h) and the cache.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "cost/cost_model.h"
#include "nn/mat.h"

namespace comet::cost {

class TrainableModel : public CostModel {
 public:
  // The optimizer and the checkpoint list point into the model's own
  // matrices, so a model is neither copied nor moved.
  TrainableModel(const TrainableModel&) = delete;
  TrainableModel& operator=(const TrainableModel&) = delete;

  /// One optimizer step on a single (block, target) pair; returns the
  /// squared relative error before the step. An empty block or a
  /// non-positive target is skipped (returns 0); a non-finite target throws
  /// util::ContractViolation, since its NaN gradient would poison every
  /// weight.
  double train_step(const x86::BasicBlock& block, double target);

  /// Override the optimizer learning rate (fine-tuning runs gentler than
  /// from-scratch training).
  void set_learning_rate(double lr);

  /// Full training run over (blocks, targets): `epochs` passes of
  /// train_step in a freshly shuffled order each, with the learning rate
  /// decaying linearly over the epochs. Returns the MAPE on the training
  /// data afterwards.
  double train(const std::vector<x86::BasicBlock>& blocks,
               const std::vector<double>& targets);

  /// Binary weight (de)serialization; see cost/checkpoint.h for what load
  /// rejects.
  void save(const std::filesystem::path& path) const;
  bool load(const std::filesystem::path& path);

  /// Load cached weights if present; otherwise train and save.
  /// Returns training MAPE (0 when loaded from cache).
  double train_or_load(const std::filesystem::path& path,
                       const std::vector<x86::BasicBlock>& blocks,
                       const std::vector<double>& targets);

 protected:
  /// The fixed facts of a model's training: `kind` names the model class in
  /// error messages, `magic` stamps its checkpoint format.
  struct Training {
    const char* kind;
    std::uint32_t magic;
    std::size_t epochs;
    double lr;
    std::uint64_t seed;
  };

  explicit TrainableModel(Training training) : training_(training) {}

  /// Train and checkpoint the model's matrices: the optimizer takes them in
  /// `optimizer_order` (its gradient-norm clip sums in that order), the
  /// checkpoint format in `checkpoint_order`. Each constructor calls this
  /// once.
  void init_training(std::vector<nn::Mat*> optimizer_order,
                     std::vector<nn::Mat*> checkpoint_order);

  /// Forward and backward pass over a non-empty block with a positive
  /// target: add the loss gradient to every parameter's gradient and return
  /// the squared relative error of the prediction.
  virtual double accumulate_gradients(const x86::BasicBlock& block,
                                      double target) = 0;

  /// Called after the last epoch, before the closing MAPE: free buffers
  /// that only training uses.
  virtual void release_training_buffers() {}

 private:
  Training training_;
  std::vector<nn::Mat*> checkpoint_mats_;
  std::unique_ptr<nn::Adam> adam_;
};

}  // namespace comet::cost
