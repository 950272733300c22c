// Golden digests of whole explanations. The anchor engine's bookkeeping
// (KL-LUCB bounds, arm ordering, fused pulls, the broker's memo) is
// optimized aggressively, but every optimization must leave explanations
// bit-identical. These tests hash, per explanation, the feature set, the
// bit patterns of precision and coverage, met_threshold, the engine's
// model_queries count and the broker's requested / evaluated / cache_hits
// counters into one FNV-1a digest per cost model, over ~50 seeded generated
// x86 blocks explained against the crude model, the hardware oracle and
// uiCA, over 16 of them explained against an Ithemal LSTM trained in the
// test, and over a RISC-V corpus explained against the analytical model
// (with and without the firm-up pass).
//
// The expected digests were recorded before the engine's bound bookkeeping
// was rewritten and must never be edited to make a change pass: a mismatch
// means the change altered a search decision, a sample or the query ledger.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "bhive/dataset.h"
#include "bhive/generator.h"
#include "core/comet.h"
#include "cost/crude_model.h"
#include "cost/ithemal_model.h"
#include "riscv/explain.h"
#include "riscv/generator.h"
#include "sim/models.h"

namespace cb = comet::bhive;
namespace cc = comet::core;
namespace ck = comet::cost;
namespace cs = comet::sim;
namespace cx = comet::x86;
namespace rv = comet::riscv;
using comet::util::Rng;

namespace {

constexpr std::size_t kBlocksPerSource = 25;
constexpr std::size_t kRiscvBlocks = 30;
constexpr std::size_t kIthemalBlocks = 16;

/// Incremental 64-bit FNV-1a.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void bytes(const std::string& s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
    byte(0);
  }
  void u64(std::uint64_t v) {  // little-endian, host independent
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// One explanation: what it says and what it cost.
  template <typename Explanation>
  void explanation(const Explanation& e) {
    bytes(e.features.to_string());
    f64(e.precision);
    f64(e.coverage);
    byte(e.met_threshold ? 1 : 0);
    u64(e.model_queries);
    u64(e.query_stats.requested);
    u64(e.query_stats.evaluated);
    u64(e.query_stats.cache_hits);
    byte(0xff);
  }
};

/// ~50 seeded generated blocks, half Clang-profile, half OpenBLAS-profile.
const std::vector<cx::BasicBlock>& golden_blocks() {
  static const std::vector<cx::BasicBlock> blocks = [] {
    std::vector<cx::BasicBlock> out;
    for (const auto source :
         {cb::BlockSource::Clang, cb::BlockSource::OpenBLAS}) {
      cb::GeneratorOptions opts;
      opts.source = source;
      const cb::BlockGenerator gen(opts);
      Rng rng(source == cb::BlockSource::Clang ? 0xE1C1 : 0xE1B1);
      for (std::size_t i = 0; i < kBlocksPerSource; ++i) {
        out.push_back(gen.generate(rng));
      }
    }
    return out;
  }();
  return blocks;
}

/// The benchmark sweep's search options, with a per-block seed.
cc::CometOptions x86_options(double epsilon, std::uint64_t seed) {
  cc::CometOptions opt;
  opt.epsilon = epsilon;
  opt.coverage_samples = 600;
  opt.batch_size = 8;
  opt.max_pulls_per_level = 80;
  opt.final_precision_samples = 120;
  opt.seed = seed;
  return opt;
}

std::uint64_t x86_digest(const ck::CostModel& model, double epsilon,
                         std::size_t num_blocks = golden_blocks().size()) {
  Fnv1a d;
  const auto& blocks = golden_blocks();
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const cc::CometExplainer explainer(model, x86_options(epsilon, 500 + b));
    d.explanation(explainer.explain(blocks[b]));
  }
  return d.h;
}

std::uint64_t riscv_digest(std::size_t final_precision_samples) {
  const rv::RvCostModel model;
  Fnv1a d;
  const auto corpus = rv::generate_corpus(kRiscvBlocks, 0x5EED);
  for (std::size_t b = 0; b < corpus.size(); ++b) {
    rv::RvExplainOptions opt;
    opt.final_precision_samples = final_precision_samples;
    opt.seed = 700 + b;
    d.explanation(rv::RvExplainer(model, opt).explain(corpus[b]));
  }
  return d.h;
}

}  // namespace

TEST(ExplainGolden, CrudeModel) {
  const ck::CrudeModel model(ck::MicroArch::Haswell);
  EXPECT_EQ(x86_digest(model, 0.25), 0x519416426385ab62ULL);
}

TEST(ExplainGolden, HardwareOracle) {
  const cs::HardwareOracle model(ck::MicroArch::Skylake);
  EXPECT_EQ(x86_digest(model, 0.5), 0x95357d82a56ab8c3ULL);
}

TEST(ExplainGolden, UiCA) {
  const cs::UiCASimModel model(ck::MicroArch::Haswell);
  EXPECT_EQ(x86_digest(model, 0.5), 0xbaf2a300869440a3ULL);
}

// The default embed/hidden dimensions (the benchmark's), trained on a
// small fixed dataset so the test stays fast. Training is deterministic,
// so the digest pins the batched inference path bit for bit.
TEST(ExplainGolden, Ithemal) {
  cb::DatasetOptions data;
  data.size = 300;
  data.seed = 2024;
  const cb::Dataset dataset = cb::generate_dataset(data);
  ck::IthemalConfig config;
  config.epochs = 2;
  ck::IthemalModel model(ck::MicroArch::Haswell, config);
  model.train(dataset.block_views(),
              dataset.label_views(ck::MicroArch::Haswell));
  EXPECT_EQ(x86_digest(model, 0.5, kIthemalBlocks), 0x2e88a2aecb1fe0e9ULL);
}

TEST(ExplainGolden, RiscvAnalytical) {
  EXPECT_EQ(riscv_digest(0), 0x755fa8b3ceb92980ULL);
}

TEST(ExplainGolden, RiscvAnalyticalWithFirmUp) {
  EXPECT_EQ(riscv_digest(120), 0x89359ebad6c4ac8cULL);
}
