// The Ithemal stand-in: a hierarchical LSTM throughput predictor, trained
// from scratch in this repository (paper Appendix H.2).
//
// Architecture mirrors Ithemal (Mendis et al. 2019): the basic block is
// tokenized (opcode and operand tokens per instruction); a token-level LSTM
// folds each instruction's token embeddings into an instruction embedding;
// a block-level LSTM folds instruction embeddings into a block embedding;
// a linear regressor maps that to a scalar throughput.
//
// The model is genuinely trained (Adam, relative-error loss) on the
// synthetic BHive-like dataset labeled with hardware-oracle measurements —
// one instance per microarchitecture, as in the paper. Capacity and data are
// deliberately laptop-scale; the resulting model is accurate but coarser
// than the simulation-based comparator, which is precisely the regime the
// paper's analysis (Figures 2-4, case studies) examines.
//
// Trained weights are cached on disk (train_or_load) so the expensive step
// runs once per microarchitecture across all benches and examples.
#pragma once

#include <filesystem>
#include <memory>
#include <vector>

#include "cost/cost_model.h"
#include "nn/lstm.h"
#include "nn/mat.h"

namespace comet::cost {

/// Tokenization of basic blocks into per-instruction token-id sequences.
/// Vocabulary: one token per opcode, one per (register family, width),
/// plus IMM / MEM_OPEN / MEM_CLOSE markers.
class BlockTokenizer {
 public:
  BlockTokenizer();
  std::size_t vocab_size() const { return vocab_size_; }
  std::vector<std::vector<int>> tokenize(const x86::BasicBlock& block) const;

 private:
  std::size_t vocab_size_ = 0;
  int imm_token_ = 0;
  int mem_open_token_ = 0;
  int mem_close_token_ = 0;
};

struct IthemalConfig {
  std::size_t embed_dim = 12;
  std::size_t hidden_dim = 24;
  std::size_t epochs = 5;
  double lr = 2e-3;
  std::uint64_t seed = 0xC0;
};

class IthemalModel final : public CostModel {
 public:
  explicit IthemalModel(MicroArch uarch, IthemalConfig config = {});

  double predict(const x86::BasicBlock& block) const override;
  /// Cross-block batched inference: tokenizes the whole batch, runs the
  /// token LSTM once per distinct instruction (token sequence) in the batch
  /// and the block LSTM once per block, whose lanes share the rows of
  /// repeated instructions (nn::LstmCell::run_final_batch). Bit-for-bit
  /// equal to element-wise predict().
  void predict_batch(std::span<const x86::BasicBlock> blocks,
                     std::span<double> out) const override;
  std::string name() const override;

  /// One Adam step on a single (block, target) pair; returns squared
  /// relative error before the step.
  double train_step(const x86::BasicBlock& block, double target);

  /// Override the optimizer learning rate (fine-tuning runs gentler than
  /// from-scratch training).
  void set_learning_rate(double lr);

  /// Full training run over (blocks, targets); returns final-epoch MAPE on
  /// the training data.
  double train(const std::vector<x86::BasicBlock>& blocks,
               const std::vector<double>& targets);

  /// Binary weight (de)serialization.
  void save(const std::filesystem::path& path) const;
  bool load(const std::filesystem::path& path);

  /// Load cached weights if present; otherwise train and save.
  /// Returns training MAPE (0 when loaded from cache).
  double train_or_load(const std::filesystem::path& path,
                       const std::vector<x86::BasicBlock>& blocks,
                       const std::vector<double>& targets);

 private:
  struct Forward;
  Forward forward(const x86::BasicBlock& block) const;

  /// The matrices of the checkpoint format, in serialization order.
  std::vector<nn::Mat*> checkpoint_mats();
  std::vector<const nn::Mat*> checkpoint_mats() const;

  MicroArch uarch_;
  IthemalConfig config_;
  BlockTokenizer tokenizer_;
  nn::Mat embedding_;       // vocab x D
  nn::LstmCell token_lstm_;  // D -> H
  nn::LstmCell block_lstm_;  // H -> H
  nn::Mat head_w_;          // 1 x H
  nn::Mat head_b_;          // 1 x 1
  std::unique_ptr<nn::Adam> adam_;
};

}  // namespace comet::cost
