// Heap-allocation budgets of the explanation hot path: Ithemal inference
// through a model session, and a whole explanation against the uiCA
// simulator.
//
// This executable replaces the global operator new with a counting one, so
// it lives apart from the other suites: the count covers every allocation
// the process makes between two reads of the counter.
//
// The Ithemal stream is bench_micro_perf's BM_IthemalPredictGammaSession shape (64
// batches of 16 unconstrained Γ samples of one generated block), for 16
// targets, each through its own session. A session owns its instruction
// table, its prefix trie and its batch buffers, so a batch allocates only
// for the table entries it adds, and a batch it has seen before allocates
// nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "bhive/generator.h"
#include "core/comet.h"
#include "cost/ithemal_model.h"
#include "perturb/perturber.h"
#include "sim/models.h"
#include "util/rng.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// The default operator new[] and the nothrow forms call this one. The
// replacements stay out of line: inlined, GCC pairs the free() below with
// the `new` expression at the call site and warns of a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace cb = comet::bhive;
namespace cc = comet::cost;
namespace ccore = comet::core;
namespace cp = comet::perturb;
namespace cx = comet::x86;

namespace {

constexpr std::size_t kBatches = 64;
constexpr std::size_t kFill = 16;

// One explanation's traffic: kBatches batches of kFill Γ samples of one
// generated target.
std::vector<std::vector<cx::BasicBlock>> gamma_stream(
    comet::util::Rng& gen_rng, comet::util::Rng& sample_rng) {
  const cp::Perturber perturber(cb::BlockGenerator().generate(gen_rng));
  std::vector<std::vector<cx::BasicBlock>> stream(kBatches);
  for (auto& batch : stream) {
    for (std::size_t s = 0; s < kFill; ++s) {
      batch.push_back(
          perturber.sample(comet::graph::FeatureSet{}, sample_rng).block);
    }
  }
  return stream;
}

}  // namespace

TEST(AllocBudget, IthemalSessionGammaStream) {
  constexpr std::size_t kTargets = 16;
  // 20.1 allocations per block before the flat tokenizer, the prefix trie
  // and the session-owned batch buffers; 1.6 after.
  constexpr double kBudgetPerBlock = 4.0;

  const cc::IthemalModel model(cc::MicroArch::Haswell);
  comet::util::Rng gen_rng(11);
  comet::util::Rng sample_rng(12);
  std::vector<std::vector<std::vector<cx::BasicBlock>>> streams;
  for (std::size_t t = 0; t < kTargets; ++t) {
    streams.push_back(gamma_stream(gen_rng, sample_rng));
  }
  std::vector<double> out(kFill);

  const std::size_t before = g_allocations.load();
  for (const auto& stream : streams) {
    const auto session = model.open_session();
    for (const auto& batch : stream) {
      session->predict_batch(std::span<const cx::BasicBlock>(batch),
                             std::span<double>(out));
    }
  }
  const std::size_t allocations = g_allocations.load() - before;

  const double per_block =
      static_cast<double>(allocations) / (kTargets * kBatches * kFill);
  RecordProperty("allocations_per_block", std::to_string(per_block));
  EXPECT_LE(per_block, kBudgetPerBlock)
      << allocations << " allocations over " << kTargets * kBatches * kFill
      << " blocks";
  // The counter must see the stream at all: opening a session allocates.
  EXPECT_GT(allocations, 0u);
}

// A batch whose instructions and prefixes the session already holds, in
// blocks no larger than it has seen, runs on reused buffers alone.
TEST(AllocBudget, IthemalSessionRepeatedBatchAllocatesNothing) {
  const cc::IthemalModel model(cc::MicroArch::Haswell);
  comet::util::Rng gen_rng(13);
  comet::util::Rng sample_rng(14);
  const auto stream = gamma_stream(gen_rng, sample_rng);
  std::vector<double> out(kFill);
  const auto session = model.open_session();
  for (const auto& batch : stream) {
    session->predict_batch(std::span<const cx::BasicBlock>(batch),
                           std::span<double>(out));
  }
  const std::size_t before = g_allocations.load();
  for (const auto& batch : stream) {
    session->predict_batch(std::span<const cx::BasicBlock>(batch),
                           std::span<double>(out));
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

// A whole explanation against the uiCA simulator, with the benchmark's
// engine options, on generated Clang- and OpenBLAS-profile blocks. Γ's
// per-sample working state, the broker's miss slots and the simulator's
// buffers are reused, so what is left per requested block is the sample's
// own instructions, the memo's keys and nodes, and the engine's own
// bookkeeping.
TEST(AllocBudget, UicaExplanation) {
  constexpr std::size_t kTargets = 8;
  // 58.2 allocations per requested block with a fresh Γ working state per
  // sample, a fresh miss copy per miss and fresh simulator buffers per
  // block; 18.3 with all three reused; 17.4 once the memo renders each
  // miss's key once and its in-batch table only views it.
  constexpr double kBudgetPerBlock = 24.0;

  cb::GeneratorOptions clang;
  clang.source = cb::BlockSource::Clang;
  cb::GeneratorOptions blas;
  blas.source = cb::BlockSource::OpenBLAS;
  const cb::BlockGenerator generators[2] = {cb::BlockGenerator(clang),
                                            cb::BlockGenerator(blas)};
  comet::util::Rng gen_rng(15);
  std::vector<cx::BasicBlock> blocks;
  for (std::size_t t = 0; t < kTargets; ++t) {
    blocks.push_back(generators[t % 2].generate(gen_rng));
  }
  const comet::sim::UiCASimModel model(cc::MicroArch::Haswell);

  std::size_t requested = 0;
  const std::size_t before = g_allocations.load();
  for (std::size_t t = 0; t < kTargets; ++t) {
    ccore::CometOptions opt;
    opt.epsilon = 0.5;
    opt.coverage_samples = 600;
    opt.batch_size = 8;
    opt.max_pulls_per_level = 80;
    opt.final_precision_samples = 120;
    opt.seed = 1000 + t;
    requested +=
        ccore::CometExplainer(model, opt).explain(blocks[t]).query_stats
            .requested;
  }
  const std::size_t allocations = g_allocations.load() - before;

  ASSERT_GT(requested, 0u);
  const double per_block =
      static_cast<double>(allocations) / static_cast<double>(requested);
  RecordProperty("allocations_per_requested_block", std::to_string(per_block));
  EXPECT_LE(per_block, kBudgetPerBlock)
      << allocations << " allocations over " << requested
      << " requested blocks";
}
