// Batched-vs-scalar parity suite: for every cost model, predict_batch over
// a mixed batch (empty blocks, duplicates, varied sizes) must match
// per-block predict() bit-for-bit — from one thread AND from several
// threads calling the same const model at once (as serving workers do).
// This is the contract the query broker, the serving layer, and the
// engine's golden parity all stand on. The same holds for a stream of
// batches through one model session (CostModel::open_session), whose
// Ithemal table spans the batches.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "bhive/generator.h"
#include "cost/crude_model.h"
#include "cost/granite_model.h"
#include "cost/ithemal_model.h"
#include "perturb/perturber.h"
#include "riscv/cost.h"
#include "riscv/generator.h"
#include "sim/models.h"
#include "util/rng.h"
#include "x86/parser.h"

namespace cc = comet::cost;
namespace cb = comet::bhive;
namespace cp = comet::perturb;
namespace cs = comet::sim;
namespace cx = comet::x86;

namespace {

// Mixed batch: varied generated blocks, interleaved empty blocks, and exact
// duplicates (the shape broker traffic takes after memoization misses).
std::vector<cx::BasicBlock> mixed_batch(std::size_t n, std::uint64_t seed) {
  const cb::BlockGenerator generator;
  comet::util::Rng rng(seed);
  std::vector<cx::BasicBlock> blocks;
  blocks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 9 == 4) {
      blocks.emplace_back();  // empty block
    } else if (i > 6 && i % 5 == 0) {
      blocks.push_back(blocks[i / 2]);  // duplicate
    } else {
      blocks.push_back(generator.generate(rng));
    }
  }
  return blocks;
}

// Bit-for-bit check of predict_batch against element-wise predict(), first
// from this thread, then from 4 threads calling the same const model at
// once.
void expect_batch_parity(const cc::CostModel& model,
                         const std::vector<cx::BasicBlock>& blocks) {
  std::vector<double> scalar(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    scalar[i] = model.predict(blocks[i]);
  }

  std::vector<double> batched(blocks.size(), -1.0);
  model.predict_batch(std::span<const cx::BasicBlock>(blocks),
                      std::span<double>(batched));
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(batched[i], scalar[i])
        << model.name() << " sequential batch diverges at " << i;
  }

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<double>> concurrent(
      kThreads, std::vector<double>(blocks.size(), -1.0));
  std::vector<std::thread> threads;
  for (auto& out : concurrent) {
    threads.emplace_back([&model, &blocks, &out] {
      model.predict_batch(std::span<const cx::BasicBlock>(blocks),
                          std::span<double>(out));
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      EXPECT_EQ(concurrent[t][i], scalar[i])
          << model.name() << " concurrent batch " << t << " diverges at "
          << i;
    }
  }
}

void expect_batch_parity(const cc::CostModel& model, std::size_t batch_size) {
  expect_batch_parity(model, mixed_batch(batch_size, /*seed=*/17));
}

// The broker's real shape: unconstrained Γ samples of one generated block,
// so instructions repeat within and across the samples.
std::vector<cx::BasicBlock> gamma_batch(std::size_t n, std::uint64_t seed) {
  comet::util::Rng rng(seed);
  const cp::Perturber perturber(cb::BlockGenerator().generate(rng));
  std::vector<cx::BasicBlock> blocks;
  for (std::size_t i = 0; i < n; ++i) {
    blocks.push_back(perturber.sample(comet::graph::FeatureSet{}, rng).block);
  }
  return blocks;
}

// Blocks that repeat whole, blocks made of one instruction repeated, and
// empty blocks, interleaved.
std::vector<cx::BasicBlock> repeated_batch() {
  const auto a = cx::parse_block("add rcx, rax\nmov rdx, qword ptr [rdi + 8]");
  const auto b = cx::parse_block("imul rax, rcx\nimul rax, rcx\nimul rax, rcx");
  const auto c = cx::parse_block("add rcx, rax");
  return {a, {}, b, a, c, {}, {}, b, c, a, {}};
}

cc::IthemalConfig tiny_ithemal() {
  cc::IthemalConfig cfg;
  cfg.embed_dim = 8;
  cfg.hidden_dim = 12;
  cfg.epochs = 2;
  return cfg;
}

cc::GraniteConfig tiny_granite() {
  cc::GraniteConfig cfg;
  cfg.embed_dim = 8;
  cfg.hidden_dim = 12;
  cfg.epochs = 2;
  return cfg;
}

const cc::MicroArch HSW = cc::MicroArch::Haswell;

void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " diverges at " << i;
  }
}

// Send `batches` in order through one session of `model`; every output
// must equal per-block predict() bitwise.
void expect_session_parity(const cc::CostModel& model,
                           const std::vector<std::vector<cx::BasicBlock>>&
                               batches) {
  const auto session = model.open_session();
  for (const auto& batch : batches) {
    std::vector<double> scalar(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      scalar[i] = model.predict(batch[i]);
    }
    std::vector<double> out(batch.size(), -1.0);
    session->predict_batch(std::span<const cx::BasicBlock>(batch),
                           std::span<double>(out));
    expect_bitwise(out, scalar, "session batch");
  }
}

// One explanation's traffic: Γ batches of one target, the target first.
std::vector<std::vector<cx::BasicBlock>> gamma_stream(std::size_t batches,
                                                      std::size_t fill,
                                                      std::uint64_t seed) {
  comet::util::Rng rng(seed);
  const auto target = cb::BlockGenerator().generate(rng);
  const cp::Perturber perturber(target);
  std::vector<std::vector<cx::BasicBlock>> stream{{target}};
  for (std::size_t b = 0; b < batches; ++b) {
    auto& batch = stream.emplace_back();
    for (std::size_t i = 0; i < fill; ++i) {
      batch.push_back(
          perturber.sample(comet::graph::FeatureSet{}, rng).block);
    }
  }
  return stream;
}

// A block of the instructions pool[p] for p in `picks`, in order. The
// pool's blocks share prefixes of every length, so the Ithemal prefix trie
// finds, creates and resumes nodes at every depth.
cx::BasicBlock from_pool(std::initializer_list<std::size_t> picks) {
  static const char* const pool[] = {
      "add rcx, rax",      "mov rdx, qword ptr [rdi + 8]",
      "imul rax, rcx",     "sub rbx, 3",
      "xor r8d, r9d",      "mov qword ptr [rsi + 16], rdx"};
  cx::BasicBlock block;
  for (const std::size_t p : picks) {
    block.instructions.push_back(cx::parse_block(pool[p]).instructions[0]);
  }
  return block;
}

// One 16-block chunk: blocks that are prefixes of later and of earlier
// blocks, equal prefixes of different lengths, blocks of exactly the trie's
// depth (3) and longer, repeats of a 3-instruction block (a lane with a
// start state and no steps) and empty blocks. {0, 1, 2} creates its node
// and {0, 1, 2, 3, 4} resumes from it in the same chunk.
std::vector<cx::BasicBlock> prefix_family() {
  return {from_pool({}),           from_pool({0}),
          from_pool({0, 1, 2}),    from_pool({0, 1, 2, 3, 4}),
          from_pool({0, 1}),       from_pool({0, 1, 2, 3}),
          from_pool({}),           from_pool({0, 1, 2}),
          from_pool({0, 1, 3}),    from_pool({0, 1, 2, 5, 4, 3}),
          from_pool({2, 0, 1}),    from_pool({0, 1, 2, 3, 4}),
          from_pool({5}),          from_pool({0, 1, 3, 2}),
          from_pool({2, 0, 1, 4}), from_pool({0})};
}

// Each batch through one session and session-less, against per-block
// predict().
void expect_trie_parity(
    const cc::CostModel& model,
    const std::vector<std::vector<cx::BasicBlock>>& batches) {
  expect_session_parity(model, batches);
  for (const auto& batch : batches) expect_batch_parity(model, batch);
}

}  // namespace

TEST(BatchParity, Crude) {
  cc::CrudeModel model(HSW);
  expect_batch_parity(model, 64);
}

TEST(BatchParity, Oracle) {
  cs::HardwareOracle model(HSW);
  expect_batch_parity(model, 64);
}

TEST(BatchParity, UiCA) {
  cs::UiCASimModel model(HSW);
  expect_batch_parity(model, 64);
}

TEST(BatchParity, Mca) {
  cs::McaLikeModel model(HSW);
  expect_batch_parity(model, 64);
}

TEST(BatchParity, Granite) {
  cc::GraniteModel model(HSW, tiny_granite());
  expect_batch_parity(model, 64);
}

// The cross-block batched LSTM path: exercised at several batch sizes
// (single lane, lanes of different lengths, odd sizes) and with weights moved off the deterministic init by a few
// training steps.
TEST(BatchParity, IthemalUntrained) {
  cc::IthemalModel model(HSW, tiny_ithemal());
  expect_batch_parity(model, 1);
  expect_batch_parity(model, 2);
  expect_batch_parity(model, 7);
  expect_batch_parity(model, 64);
  expect_batch_parity(model, 130);
}

TEST(BatchParity, IthemalTrained) {
  cc::IthemalModel model(HSW, tiny_ithemal());
  const cb::BlockGenerator generator;
  comet::util::Rng rng(23);
  for (int i = 0; i < 30; ++i) {
    const auto block = generator.generate(rng);
    model.train_step(block, 1.0 + static_cast<double>(block.size()) / 4.0);
  }
  expect_batch_parity(model, 64);
}

// Repeated instructions share one token-LSTM lane; the batch must still
// match per-block predict() on every block, from one thread or several.
TEST(BatchParity, IthemalRepeatedInstructions) {
  cc::IthemalModel model(HSW, tiny_ithemal());
  expect_batch_parity(model, gamma_batch(16, 31));
  expect_batch_parity(model, gamma_batch(40, 32));
  expect_batch_parity(model, repeated_batch());
}

// The benchmark's dimensions (4H = 96, whole register chunks) and a 4H of
// 20, which runs entirely in the scalar tail.
TEST(BatchParity, IthemalGateRowChunksAndTail) {
  for (const std::size_t hidden : {std::size_t{24}, std::size_t{5}}) {
    cc::IthemalConfig cfg;
    cfg.hidden_dim = hidden;
    cc::IthemalModel model(HSW, cfg);
    expect_batch_parity(model, 64);
    expect_batch_parity(model, gamma_batch(16, 33));
    expect_batch_parity(model, repeated_batch());
  }
}

TEST(BatchParity, SkylakeModelsToo) {
  cc::CrudeModel crude(cc::MicroArch::Skylake);
  expect_batch_parity(crude, 48);
  cc::IthemalModel ithemal(cc::MicroArch::Skylake, tiny_ithemal());
  expect_batch_parity(ithemal, 48);
}

// The RISC-V analytical model: generated blocks plus an empty one.
TEST(BatchParity, RiscvAnalytical) {
  const comet::riscv::RvCostModel model;
  auto blocks = comet::riscv::generate_corpus(64, /*seed=*/19);
  blocks.insert(blocks.begin() + 5, comet::riscv::BasicBlock{});
  std::vector<double> scalar(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    scalar[i] = model.predict(blocks[i]);
  }
  std::vector<double> batched(blocks.size(), -1.0);
  model.predict_batch(blocks, batched);
  expect_bitwise(batched, scalar, "RISC-V batch");
}

// An all-empty batch must not touch the model core at all.
TEST(BatchParity, AllEmptyBatch) {
  cc::IthemalModel model(HSW, tiny_ithemal());
  std::vector<cx::BasicBlock> blocks(5);
  std::vector<double> out(blocks.size(), -1.0);
  model.predict_batch(std::span<const cx::BasicBlock>(blocks),
                      std::span<double>(out));
  for (const double v : out) EXPECT_EQ(v, 0.0);
}

// The default base-class loop, for a model without an override.
TEST(BatchParity, BaseClassFallback) {
  class PlainModel final : public cc::CostModel {
   public:
    double predict(const cx::BasicBlock& block) const override {
      return 1.0 + static_cast<double>(block.size());
    }
    std::string name() const override { return "plain"; }
  };
  PlainModel model;
  expect_batch_parity(model, 64);
}

// Whole-corpus calls (evaluation, global explanations, model diffing,
// fine-tuning) run through predict_batch's fixed chunks; the chunk
// boundaries must not show in any prediction.
TEST(BatchParity, IthemalWholeCorpusInChunks) {
  cc::IthemalModel model(HSW, tiny_ithemal());
  const auto blocks = mixed_batch(1100, /*seed=*/41);
  std::vector<double> scalar(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    scalar[i] = model.predict(blocks[i]);
  }
  std::vector<double> batched(blocks.size(), -1.0);
  model.predict_batch(std::span<const cx::BasicBlock>(blocks),
                      std::span<double>(batched));
  expect_bitwise(batched, scalar, "whole-corpus batch");
  std::vector<double> through_session(blocks.size(), -1.0);
  model.open_session()->predict_batch(std::span<const cx::BasicBlock>(blocks),
                                      std::span<double>(through_session));
  expect_bitwise(through_session, scalar, "whole-corpus session batch");
}

// An explanation's stream of Γ batches through one session: the token-LSTM
// rows of earlier batches serve the later ones. Batches wider than one
// chunk are included.
TEST(BatchParity, IthemalSessionGammaStream) {
  cc::IthemalModel model(HSW, tiny_ithemal());
  expect_session_parity(model, gamma_stream(24, 16, 51));
  expect_session_parity(model, gamma_stream(6, 40, 52));
  cc::IthemalConfig cfg;  // the benchmark's dimensions
  expect_session_parity(cc::IthemalModel(HSW, cfg), gamma_stream(12, 16, 53));
}

// A batch made only of instructions the session has already seen runs no
// token-LSTM lane at all: its blocks recombine earlier instructions in new
// orders and lengths.
TEST(BatchParity, IthemalSessionBatchOfKnownInstructions) {
  cc::IthemalModel model(HSW, tiny_ithemal());
  const auto first = gamma_stream(1, 16, 61).back();
  std::vector<cx::Instruction> seen;
  for (const auto& block : first) {
    for (const auto& inst : block.instructions) seen.push_back(inst);
  }
  ASSERT_GT(seen.size(), 3u);
  std::vector<cx::BasicBlock> known;
  for (std::size_t k = 0; k < 16; ++k) {
    cx::BasicBlock block;
    for (std::size_t j = 0; j <= k % 5; ++j) {
      block.instructions.push_back(seen[(7 * k + 3 * j) % seen.size()]);
    }
    known.push_back(std::move(block));
  }
  expect_session_parity(model, {first, known, known, first});
}

// Empty blocks mixed into session batches, and a batch of only empties.
TEST(BatchParity, IthemalSessionEmptyBlocks) {
  cc::IthemalModel model(HSW, tiny_ithemal());
  auto stream = gamma_stream(8, 16, 71);
  for (auto& batch : stream) {
    batch.insert(batch.begin(), cx::BasicBlock{});
    batch.push_back(cx::BasicBlock{});
  }
  stream.insert(stream.begin() + 3, std::vector<cx::BasicBlock>(4));
  stream.push_back(repeated_batch());
  expect_session_parity(model, stream);
}

// Served explanations: 4 threads, each with its own session, over one
// shared const model (run under ThreadSanitizer by check.sh --tsan).
TEST(BatchParity, IthemalSessionsOnConcurrentThreads) {
  const cc::IthemalModel model(HSW, tiny_ithemal());
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::vector<cx::BasicBlock>>> streams;
  std::vector<std::vector<std::vector<double>>> want(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    // Threads 0 and 1 share a target, so their sessions see the same
    // instructions at the same time.
    streams.push_back(gamma_stream(12, 16, 81 + t / 2 * 2));
    for (const auto& batch : streams[t]) {
      auto& scalar = want[t].emplace_back();
      for (const auto& block : batch) scalar.push_back(model.predict(block));
    }
  }
  std::vector<std::vector<std::vector<double>>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&model, &streams, &got, t] {
      const auto session = model.open_session();
      for (const auto& batch : streams[t]) {
        auto& out = got[t].emplace_back(batch.size(), -1.0);
        session->predict_batch(std::span<const cx::BasicBlock>(batch),
                               std::span<double>(out));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), want[t].size());
    for (std::size_t b = 0; b < got[t].size(); ++b) {
      expect_bitwise(got[t][b], want[t][b], "concurrent session batch");
    }
  }
}

// The block-LSTM prefix trie: nodes created and resumed within one chunk,
// and (in a session) resumed by later batches, in both orders of a block
// and its prefixes.
TEST(BatchParity, IthemalTriePrefixes) {
  const auto family = prefix_family();
  const std::vector<cx::BasicBlock> reversed(family.rbegin(), family.rend());
  std::vector<cx::BasicBlock> wide = family;  // two chunks in one batch
  wide.insert(wide.end(), reversed.begin(), reversed.end());
  const std::vector<std::vector<cx::BasicBlock>> batches{
      family, reversed, family, wide, {from_pool({0, 1, 2})}};
  expect_trie_parity(cc::IthemalModel(HSW, tiny_ithemal()), batches);
  cc::IthemalConfig cfg;  // the benchmark's dimensions
  expect_trie_parity(cc::IthemalModel(HSW, cfg), batches);
}

// A session-less call clears its table, and the trie with it, every 64
// blocks. Over 200 blocks whose prefixes repeat in every 64-block span (at
// shifting chunk offsets), nodes of a cleared trie must not be resumed.
TEST(BatchParity, IthemalTrieAcrossLocalTableClears) {
  const auto family = prefix_family();
  std::vector<cx::BasicBlock> blocks;
  for (std::size_t i = 0; blocks.size() < 200; ++i) {
    blocks.push_back(family[(5 * i + i / 16) % family.size()]);
  }
  expect_trie_parity(cc::IthemalModel(HSW, tiny_ithemal()), {blocks});
}
