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
// Training, checkpointing and the on-disk weight cache (train_or_load) are
// TrainableModel's (cost/trainable_model.h), shared with Granite, so the
// expensive step runs once per microarchitecture across all benches and
// examples.
#pragma once

#include <memory>
#include <vector>

#include "cost/trainable_model.h"
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
  /// Append `block`'s token ids to `toks`, and for each instruction the
  /// offset in `toks` just past its last token to `ends`: an instruction's
  /// tokens start where the previous end (or the caller's first offset)
  /// left off. Reused buffers make this allocation-free.
  void tokenize(const x86::BasicBlock& block, std::vector<int>& toks,
                std::vector<std::size_t>& ends) const;

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

class IthemalModel final : public TrainableModel {
 public:
  explicit IthemalModel(MicroArch uarch, IthemalConfig config = {});

  double predict(const x86::BasicBlock& block) const override;
  /// Cross-block batched inference in chunks of kChunk blocks: tokenizes a
  /// chunk into one flat buffer, runs the token LSTM once per distinct
  /// instruction (token sequence) not yet in its table, and the block LSTM
  /// once per block, whose lanes read the table's rows of their
  /// instructions (nn::LstmCell::run_final_batch). The table also holds a
  /// prefix trie of block-LSTM states over the first kTrieDepth
  /// instructions, so a block's lane starts after the longest prefix the
  /// table has already run. The table is call-local and cleared every
  /// kLocalTableBlocks blocks, so a whole-corpus call holds a bounded amount
  /// of work at a time. Bit-for-bit equal to element-wise predict().
  void predict_batch(std::span<const x86::BasicBlock> blocks,
                     std::span<double> out) const override;
  /// A session runs predict_batch's code over one table that spans all of
  /// its batches: an instruction's token LSTM runs once per session, and a
  /// block prefix of up to kTrieDepth instructions runs through the block
  /// LSTM once per session. The session also owns the batch buffers, so a
  /// batch that adds nothing new to the table allocates nothing.
  std::unique_ptr<ModelSession> open_session() const override;
  std::string name() const override;

 private:
  class Session;
  struct InstTable;
  struct BatchScratch;

  /// predict_batch's chunk size. Over train()'s 3,000-block closing MAPE,
  /// one batch raised explain-ithemal's peak RSS by 4.6 MB, and chunks of
  /// 64 by 0.2-0.3 MB more than chunks of 16.
  static constexpr std::size_t kChunk = 16;
  /// How many blocks a call-local table (no caller session) serves before
  /// it is cleared. The engine fuses at most 64 blocks into a broker batch,
  /// so such a batch keeps all of its reuse; a table cleared every chunk
  /// made 64-block batches 1.24x slower, and one table for a 3,000-block
  /// call raised peak RSS by 2.8 MB.
  static constexpr std::size_t kLocalTableBlocks = 64;
  static_assert(kLocalTableBlocks % kChunk == 0);

  /// How many leading instructions of a block the prefix trie covers.
  /// Over the perfbench sweep, caching prefixes up to depth 3 skips 30.4%
  /// of the block-LSTM steps (34.5% at depth 4) and takes at most 2,716
  /// nodes of 2H floats (0.52 MB) per explanation.
  static constexpr std::size_t kTrieDepth = 3;

  /// predict_batch over `session`'s table, or over a call-local table that
  /// is cleared every kLocalTableBlocks blocks when `session` is null.
  void run_batch(std::span<const x86::BasicBlock> blocks,
                 std::span<double> out, InstTable* session,
                 BatchScratch& scratch) const;
  /// One chunk of run_batch.
  void run_chunk(std::span<const x86::BasicBlock> blocks,
                 std::span<double> out, InstTable& table,
                 BatchScratch& scratch) const;

  /// The buffers of one forward pass (the activations BPTT reads) and of
  /// one backward pass. They only grow, so with a reused Workspace a train
  /// step allocates only for a block larger than any before it.
  struct Workspace {
    std::vector<int> tokens;        // the block's, flat (BlockTokenizer)
    std::vector<std::size_t> ends;  // each instruction's end in `tokens`
    nn::LstmWeightsT token_wt;
    nn::LstmWeightsT block_wt;
    std::vector<nn::LstmSequence> token_seqs;  // first ends.size() live
    nn::LstmSequence block_seq;
    std::vector<const float*> xs;  // one sequence's input rows
    nn::LstmBpttScratch bptt;
    std::vector<float> dh_final;  // H
    std::vector<float> dinst;     // instructions x H
    std::vector<float> dtok;      // tokens of one instruction x D
  };

  /// Forward pass of a non-empty block into `ws`; returns the prediction.
  double forward(const x86::BasicBlock& block, Workspace& ws) const;
  /// Append the embedding rows of `tokens`, in order, to `rows` (they are
  /// read in place).
  void embedding_rows(std::span<const int> tokens,
                      std::vector<const float*>& rows) const;
  /// The regression head over a final block-LSTM state `h`: forward()'s
  /// and predict_batch's one readout.
  double head(const float* h) const;

  /// One relative-error backward pass through train_ws_.
  double accumulate_gradients(const x86::BasicBlock& block,
                              double target) override;
  void release_training_buffers() override;  // frees train_ws_

  MicroArch uarch_;
  IthemalConfig config_;
  BlockTokenizer tokenizer_;
  nn::Mat embedding_;       // vocab x D
  nn::LstmCell token_lstm_;  // D -> H
  nn::LstmCell block_lstm_;  // H -> H
  nn::Mat head_w_;          // 1 x H
  nn::Mat head_b_;          // 1 x 1
  Workspace train_ws_;  // train_step's, reused across steps
};

}  // namespace comet::cost
