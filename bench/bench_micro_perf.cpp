// Micro-benchmarks (google-benchmark): throughput of the individual
// components that determine COMET's per-explanation wall-clock — parsing,
// dependency-graph construction, the perturbation algorithm Γ, the
// simulators, the crude model, LSTM inference and training, and an
// end-to-end explain().
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bhive/generator.h"
#include "bhive/paper_blocks.h"
#include "core/comet.h"
#include "cost/crude_model.h"
#include "cost/granite_model.h"
#include "cost/ithemal_model.h"
#include "cost/query_broker.h"
#include "graph/depgraph.h"
#include "nn/mat.h"
#include "perturb/perturber.h"
#include "riscv/explain.h"
#include "riscv/generator.h"
#include "sim/bottleneck.h"
#include "sim/models.h"
#include "util/kl_bounds.h"
#include "x86/parser.h"

using namespace comet;

namespace {

const char* kBlockText = R"(
  mov ecx, edx
  xor edx, edx
  lea rax, [rcx + rax - 1]
  div rcx
  mov rdx, rcx
  imul rax, rcx
)";

void BM_ParseBlock(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(x86::parse_block(kBlockText));
  }
}
BENCHMARK(BM_ParseBlock);

void BM_DepGraphBuild(benchmark::State& state) {
  const auto block = bhive::listing3_case_study2();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::DepGraph::build(block));
  }
}
BENCHMARK(BM_DepGraphBuild);

void BM_ExtractFeatures(benchmark::State& state) {
  const auto block = bhive::listing3_case_study2();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::extract_features(block));
  }
}
BENCHMARK(BM_ExtractFeatures);

void BM_PerturberSample(benchmark::State& state) {
  const perturb::Perturber perturber(bhive::listing3_case_study2());
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(perturber.sample(graph::FeatureSet{}, rng));
  }
}
BENCHMARK(BM_PerturberSample);

// Γ on the blocks explanations actually see: 64 seeded 4-10-instruction
// generated blocks, alternating Clang and OpenBLAS profiles, sampled round
// robin. Arg 0 preserves nothing; arg 1 preserves one instruction and (when
// the block has one) one dependency, as an anchor candidate does.
void BM_PerturberSampleGenerated(benchmark::State& state) {
  const bool with_preserve = state.range(0) != 0;
  std::vector<perturb::Perturber> perturbers;
  std::vector<graph::FeatureSet> preserve;
  util::Rng gen_rng(11);
  for (std::size_t i = 0; i < 64; ++i) {
    bhive::GeneratorOptions opts;
    opts.source =
        i % 2 == 0 ? bhive::BlockSource::Clang : bhive::BlockSource::OpenBLAS;
    perturbers.emplace_back(bhive::BlockGenerator(opts).generate(gen_rng));
    const auto& p = perturbers.back();
    graph::FeatureSet fs;
    if (with_preserve) {
      const std::size_t v = i % p.block().size();
      fs.insert(graph::Feature(
          graph::InstFeature{v, p.block().instructions[v].opcode}));
      const auto& edges = p.dep_graph().edges();
      if (!edges.empty()) {
        const auto& e = edges[i % edges.size()];
        fs.insert(graph::Feature(graph::DepFeature{e.from, e.to, e.kind}));
      }
    }
    preserve.push_back(std::move(fs));
  }
  util::Rng rng(1);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(perturbers[i].sample(preserve[i], rng));
    i = (i + 1) % perturbers.size();
  }
}
BENCHMARK(BM_PerturberSampleGenerated)->Arg(0)->Arg(1);

void BM_CrudeModelPredict(benchmark::State& state) {
  const cost::CrudeModel model(cost::MicroArch::Haswell);
  const auto block = bhive::listing3_case_study2();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(block));
  }
}
BENCHMARK(BM_CrudeModelPredict);

void BM_OracleSimulate(benchmark::State& state) {
  const sim::HardwareOracle oracle(cost::MicroArch::Haswell);
  const auto block = bhive::listing3_case_study2();
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.predict(block));
  }
}
BENCHMARK(BM_OracleSimulate);

void BM_UiCASimulate(benchmark::State& state) {
  const sim::UiCASimModel uica(cost::MicroArch::Haswell);
  const auto block = bhive::listing3_case_study2();
  for (auto _ : state) {
    benchmark::DoNotOptimize(uica.predict(block));
  }
}
BENCHMARK(BM_UiCASimulate);

// uiCA over 64 generated 4-10-instruction Clang/OpenBLAS blocks, cycled:
// the block mix the explanation sweeps feed the simulator.
void BM_UiCASimulateGenerated(benchmark::State& state) {
  const sim::UiCASimModel uica(cost::MicroArch::Haswell);
  std::vector<x86::BasicBlock> blocks;
  util::Rng gen_rng(11);
  for (std::size_t i = 0; i < 64; ++i) {
    bhive::GeneratorOptions opts;
    opts.source =
        i % 2 == 0 ? bhive::BlockSource::Clang : bhive::BlockSource::OpenBLAS;
    blocks.push_back(bhive::BlockGenerator(opts).generate(gen_rng));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(uica.predict(blocks[i]));
    i = (i + 1) % blocks.size();
  }
}
BENCHMARK(BM_UiCASimulateGenerated);

// The blocks the broker keys its memo on and the shard server parses: 64
// generated Clang/OpenBLAS blocks and four unconstrained Γ samples of each.
std::vector<x86::BasicBlock> gamma_sample_blocks() {
  std::vector<x86::BasicBlock> blocks;
  util::Rng gen_rng(11);
  util::Rng sample_rng(12);
  for (std::size_t i = 0; i < 64; ++i) {
    bhive::GeneratorOptions opts;
    opts.source =
        i % 2 == 0 ? bhive::BlockSource::Clang : bhive::BlockSource::OpenBLAS;
    const perturb::Perturber p(bhive::BlockGenerator(opts).generate(gen_rng));
    for (int s = 0; s < 4; ++s) {
      blocks.push_back(p.sample(graph::FeatureSet{}, sample_rng).block);
    }
  }
  return blocks;
}

// Block text of the Γ sample blocks, cycled.
void BM_BlockToString(benchmark::State& state) {
  const auto blocks = gamma_sample_blocks();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(blocks[i].to_string());
    i = (i + 1) % blocks.size();
  }
}
BENCHMARK(BM_BlockToString);

// The broker's memo key of the same blocks, rendered into one reused
// buffer as the broker does.
void BM_MemoKey(benchmark::State& state) {
  const auto blocks = gamma_sample_blocks();
  std::string key;
  std::size_t i = 0;
  for (auto _ : state) {
    key.clear();
    x86::append_memo_key(blocks[i], key);
    benchmark::DoNotOptimize(key.data());
    benchmark::ClobberMemory();
    i = (i + 1) % blocks.size();
  }
}
BENCHMARK(BM_MemoKey);

// parse_block on the Γ sample blocks' text, cycled: what the remote shard
// server does once per block of a predict request.
void BM_ParseBlockGamma(benchmark::State& state) {
  std::vector<std::string> texts;
  for (const auto& block : gamma_sample_blocks()) {
    texts.push_back(block.to_string());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(x86::parse_block(texts[i]));
    i = (i + 1) % texts.size();
  }
}
BENCHMARK(BM_ParseBlockGamma);

// The catalog signature scan parse_instruction ends with, over the Γ sample
// blocks' instructions, cycled.
void BM_X86IsValid(benchmark::State& state) {
  std::vector<x86::Instruction> insts;
  for (const auto& block : gamma_sample_blocks()) {
    insts.insert(insts.end(), block.instructions.begin(),
                 block.instructions.end());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(x86::is_valid(insts[i]));
    i = (i + 1) % insts.size();
  }
}
BENCHMARK(BM_X86IsValid);

// One KL-LUCB bound pair (upper and lower) at a round's level, cycling
// through every (hits, pulls) with 1 <= pulls <= 48: the arm statistics a
// level's KL-LUCB rounds see.
void BM_KlBounds(benchmark::State& state) {
  std::vector<std::pair<double, std::size_t>> arms;  // (mean, pulls)
  for (std::size_t n = 1; n <= 48; ++n) {
    for (std::size_t hits = 0; hits <= n; ++hits) {
      arms.emplace_back(static_cast<double>(hits) / static_cast<double>(n), n);
    }
  }
  const double level = util::kl_lucb_level(40, 30, 0.1);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto [mean, n] = arms[i];
    benchmark::DoNotOptimize(util::kl_upper_bound(mean, n, level));
    benchmark::DoNotOptimize(util::kl_lower_bound(mean, n, level));
    i = (i + 1) % arms.size();
  }
}
BENCHMARK(BM_KlBounds);

void BM_ExplainCrude(benchmark::State& state) {
  const cost::CrudeModel model(cost::MicroArch::Haswell);
  core::CometOptions opt;
  opt.epsilon = 0.25;
  opt.coverage_samples = 300;
  const core::CometExplainer explainer(model, opt);
  const auto block = bhive::listing3_case_study2();
  for (auto _ : state) {
    benchmark::DoNotOptimize(explainer.explain(block));
  }
}
BENCHMARK(BM_ExplainCrude)->Unit(benchmark::kMillisecond);

void BM_GranitePredict(benchmark::State& state) {
  const cost::GraniteModel model(cost::MicroArch::Haswell);
  const auto block = bhive::listing3_case_study2();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(block));
  }
}
BENCHMARK(BM_GranitePredict);

// --- batched query layer -----------------------------------------------

std::vector<x86::BasicBlock> micro_corpus(std::size_t n) {
  const bhive::BlockGenerator generator;
  util::Rng rng(7);
  std::vector<x86::BasicBlock> blocks;
  blocks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) blocks.push_back(generator.generate(rng));
  return blocks;
}

// Per-query LSTM inference through the sequential single-predict loop ...
void BM_IthemalPredictLoop(benchmark::State& state) {
  const cost::IthemalModel model(cost::MicroArch::Haswell);
  const auto blocks = micro_corpus(64);
  for (auto _ : state) {
    for (const auto& b : blocks) benchmark::DoNotOptimize(model.predict(b));
  }
}
BENCHMARK(BM_IthemalPredictLoop)->Unit(benchmark::kMicrosecond);

// ... versus predict_batch driven one block at a time: tokenization, one
// token-LSTM lane per distinct instruction of the block and one block-LSTM
// lane, each lane a matrix-vector sweep over the transposed gate weights ...
void BM_IthemalPredictPerBlock(benchmark::State& state) {
  const cost::IthemalModel model(cost::MicroArch::Haswell);
  const auto blocks = micro_corpus(static_cast<std::size_t>(state.range(0)));
  std::vector<double> out(blocks.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      model.predict_batch(std::span<const x86::BasicBlock>(&blocks[i], 1),
                          std::span<double>(&out[i], 1));
    }
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_IthemalPredictPerBlock)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

// ... versus one predict_batch over the whole corpus: the token LSTM runs
// once per instruction distinct across all blocks, and the transposed
// weights are built once per batch instead of once per block.
void BM_IthemalPredictBatch(benchmark::State& state) {
  const cost::IthemalModel model(cost::MicroArch::Haswell);
  const auto blocks = micro_corpus(static_cast<std::size_t>(state.range(0)));
  std::vector<double> out(blocks.size());
  for (auto _ : state) {
    model.predict_batch(std::span<const x86::BasicBlock>(blocks),
                        std::span<double>(out));
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_IthemalPredictBatch)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

// The broker's real shape: one batch of 16 unconstrained Γ samples of one
// generated block, whose instructions repeat across the samples.
void BM_IthemalPredictGammaBatch(benchmark::State& state) {
  const cost::IthemalModel model(cost::MicroArch::Haswell);
  util::Rng gen_rng(11);
  util::Rng sample_rng(12);
  const perturb::Perturber perturber(bhive::BlockGenerator().generate(gen_rng));
  std::vector<x86::BasicBlock> blocks;
  for (int s = 0; s < 16; ++s) {
    blocks.push_back(perturber.sample(graph::FeatureSet{}, sample_rng).block);
  }
  std::vector<double> out(blocks.size());
  for (auto _ : state) {
    model.predict_batch(std::span<const x86::BasicBlock>(blocks),
                        std::span<double>(out));
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_IthemalPredictGammaBatch)->Unit(benchmark::kMicrosecond);

// One explanation's model traffic: 64 batches of 16 Γ samples of one
// block, through one session (Arg 1: each distinct instruction's token
// LSTM runs once for the whole stream) or through plain predict_batch
// (Arg 0: once per batch it appears in).
void BM_IthemalPredictGammaSession(benchmark::State& state) {
  const cost::IthemalModel model(cost::MicroArch::Haswell);
  util::Rng gen_rng(11);
  util::Rng sample_rng(12);
  const perturb::Perturber perturber(bhive::BlockGenerator().generate(gen_rng));
  std::vector<std::vector<x86::BasicBlock>> batches(64);
  for (auto& batch : batches) {
    for (int s = 0; s < 16; ++s) {
      batch.push_back(perturber.sample(graph::FeatureSet{}, sample_rng).block);
    }
  }
  std::vector<double> out(16);
  for (auto _ : state) {
    const auto session =
        state.range(0) != 0 ? model.open_session() : nullptr;
    for (const auto& batch : batches) {
      const std::span<const x86::BasicBlock> blocks(batch);
      if (session) {
        session->predict_batch(blocks, std::span<double>(out));
      } else {
        model.predict_batch(blocks, std::span<double>(out));
      }
      benchmark::DoNotOptimize(out.data());
    }
  }
}
BENCHMARK(BM_IthemalPredictGammaSession)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// --- training (Ithemal's set-up cost) ----------------------------------

// One Adam step over Ithemal's default parameter set: the embedding table
// with the few dozen live rows one block leaves, plus dense gradients for
// the head and both LSTM cells. Each iteration first restores the
// gradients (a copy; step() zeroes them).
void BM_AdamStep(benchmark::State& state) {
  const std::size_t D = 12;
  const std::size_t H = 24;
  const std::size_t V = cost::BlockTokenizer().vocab_size();
  std::vector<nn::Mat> mats;
  for (const auto& [rows, cols] : std::vector<std::pair<std::size_t,
                                                        std::size_t>>{
           {V, D}, {1, H}, {1, 1}, {4 * H, D}, {4 * H, H}, {4 * H, 1},
           {4 * H, H}, {4 * H, H}, {4 * H, 1}}) {
    mats.emplace_back(rows, cols);
  }
  util::Rng rng(3);
  std::vector<std::vector<float>> grads;
  std::vector<nn::Mat*> params;
  for (std::size_t k = 0; k < mats.size(); ++k) {
    mats[k].init_xavier(rng);
    params.push_back(&mats[k]);
    auto& g = grads.emplace_back(mats[k].size(), 0.f);
    for (std::size_t r = 0; r < mats[k].rows(); ++r) {
      if (k == 0 && rng.uniform(0.0, 1.0) > 25.0 / double(V)) continue;
      for (std::size_t c = 0; c < mats[k].cols(); ++c) {
        g[r * mats[k].cols() + c] = static_cast<float>(rng.uniform(-1, 1));
      }
    }
  }
  nn::Adam adam(params);
  for (auto _ : state) {
    for (std::size_t k = 0; k < mats.size(); ++k) {
      std::copy(grads[k].begin(), grads[k].end(), mats[k].grad());
    }
    adam.step();
    benchmark::DoNotOptimize(mats[0].data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_AdamStep)->Unit(benchmark::kMicrosecond);

// One Ithemal train_step (forward, BPTT, Adam) on a fixed 6-instruction
// block: the unit explain-ithemal's set-up repeats 15,000 times.
void BM_IthemalTrainStep(benchmark::State& state) {
  cost::IthemalModel model(cost::MicroArch::Haswell);
  const auto block = bhive::listing3_case_study2();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.train_step(block, 2.0));
  }
}
BENCHMARK(BM_IthemalTrainStep)->Unit(benchmark::kMicrosecond);

// The broker's memoization on top of batching, on a stream with repeats
// (the shape of anchor-search traffic).
void BM_BrokerMemoizedBatch(benchmark::State& state) {
  const cost::IthemalModel model(cost::MicroArch::Haswell);
  auto blocks = micro_corpus(16);
  blocks.reserve(64);
  for (std::size_t i = 16; i < 64; ++i) blocks.push_back(blocks[i % 16]);
  std::vector<double> out(blocks.size());
  for (auto _ : state) {
    cost::QueryBroker<x86::BasicBlock, cost::CostModel> broker(model);
    broker.predict_batch(std::span<x86::BasicBlock>(blocks),
                         std::span<double>(out));
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BrokerMemoizedBatch)->Unit(benchmark::kMicrosecond);

void BM_BottleneckAnalysis(benchmark::State& state) {
  const auto block = bhive::listing3_case_study2();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::analyze_bottleneck(block, cost::MicroArch::Haswell));
  }
}
BENCHMARK(BM_BottleneckAnalysis);

void BM_RiscvPerturb(benchmark::State& state) {
  util::Rng gen(42);
  const auto block = riscv::generate_block(gen);
  const riscv::RvPerturber perturber(block);
  util::Rng rng(43);
  for (auto _ : state) {
    benchmark::DoNotOptimize(perturber.sample({}, rng));
  }
}
BENCHMARK(BM_RiscvPerturb);

void BM_RiscvExplain(benchmark::State& state) {
  const riscv::RvCostModel model;
  riscv::RvExplainOptions opt;
  opt.coverage_samples = 300;
  const riscv::RvExplainer explainer(model, opt);
  util::Rng gen(44);
  const auto block = riscv::generate_block(gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(explainer.explain(block));
  }
}
BENCHMARK(BM_RiscvExplain)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
