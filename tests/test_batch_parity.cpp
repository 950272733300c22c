// Batched-vs-scalar parity suite: for every cost model, predict_batch over
// a mixed batch (empty blocks, duplicates, varied sizes) must match
// per-block predict() bit-for-bit — from one thread AND from several
// threads calling the same const model at once (as serving workers do).
// This is the contract the query broker, the serving layer, and the
// engine's golden parity all stand on.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "bhive/generator.h"
#include "cost/crude_model.h"
#include "cost/granite_model.h"
#include "cost/ithemal_model.h"
#include "perturb/perturber.h"
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
