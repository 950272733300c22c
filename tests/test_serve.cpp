// Tests for the concurrent explanation-serving subsystem (src/serve/):
// sharded-pool result parity with a single model and error propagation
// from a throwing shard, completion-order scheduler correctness under 8
// worker threads, bounded-queue backpressure, the engine's width-capped
// fused arm pulls (golden ledger, cap never exceeded), and the concurrency
// determinism rule: served explanations are bit-identical to sequentially
// computed ones because every request owns its RNG and broker.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bhive/dataset.h"
#include "bhive/paper_blocks.h"
#include "core/comet.h"
#include "cost/crude_model.h"
#include "riscv/cost.h"
#include "riscv/explain.h"
#include "riscv/parser.h"
#include "serve/isa_servers.h"
#include "serve/sharded_cost_model.h"
#include "serve/sharded_pool.h"
#include "sim/models.h"
#include "x86/parser.h"

namespace cb = comet::bhive;
namespace cc = comet::core;
namespace cg = comet::graph;
namespace ck = comet::cost;
namespace cs = comet::serve;
namespace cx = comet::x86;
namespace rv = comet::riscv;

namespace {

// Light search budget so the concurrent tests stay fast.
cc::CometOptions light_options(std::uint64_t seed) {
  cc::CometOptions opt;
  opt.epsilon = 0.25;
  opt.coverage_samples = 150;
  opt.max_pulls_per_level = 40;
  opt.batch_size = 8;
  opt.final_precision_samples = 60;
  opt.seed = seed;
  return opt;
}

// The golden block/options of test_anchor_engine.cpp, reused so the
// widened-batch mode is checked against the same recorded values.
cx::BasicBlock golden_block() {
  return cx::parse_block(R"(
    mov rax, 5
    div rcx
    add rsi, rdi
    mov r8, r9
    sub r10, r11
  )");
}

cc::CometOptions golden_options() {
  cc::CometOptions opt;
  opt.coverage_samples = 300;
  opt.final_precision_samples = 120;
  opt.seed = 11;
  opt.epsilon = 1.0;
  return opt;
}

class DivOnlyModel final : public ck::CostModel {
 public:
  double predict(const cx::BasicBlock& block) const override {
    for (const auto& inst : block.instructions) {
      if (inst.opcode == cx::Opcode::DIV || inst.opcode == cx::Opcode::IDIV) {
        return 20.0;
      }
    }
    return 1.0;
  }
  std::string name() const override { return "div-only"; }
};

// A model whose queries block until the test opens the gate; used to pin
// the server's single worker so backpressure on the admission queue can be
// observed deterministically.
class GateModel final : public ck::CostModel {
 public:
  double predict(const cx::BasicBlock&) const override {
    wait_open();
    return 1.0;
  }
  void predict_batch(std::span<const cx::BasicBlock> blocks,
                     std::span<double> out) const override {
    wait_open();
    for (std::size_t i = 0; i < blocks.size(); ++i) out[i] = 1.0;
  }
  std::string name() const override { return "gate"; }

  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

  /// Blocks until some worker has entered a query (i.e. is pinned).
  void await_entered() const {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return entered_; });
  }

 private:
  void wait_open() const {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }

  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable bool entered_ = false;
  bool open_ = false;
};

void expect_identical(const cc::Explanation& a, const cc::Explanation& b) {
  EXPECT_EQ(a.features, b.features)
      << a.features.to_string() << " vs " << b.features.to_string();
  EXPECT_DOUBLE_EQ(a.precision, b.precision);
  EXPECT_DOUBLE_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.met_threshold, b.met_threshold);
  EXPECT_EQ(a.model_queries, b.model_queries);
}

std::vector<cx::BasicBlock> test_blocks(std::size_t n) {
  cb::DatasetOptions opt;
  opt.size = n;
  opt.seed = 77;
  const cb::Dataset dataset = cb::generate_dataset(opt);
  std::vector<cx::BasicBlock> blocks;
  for (const auto& labeled : dataset.blocks()) {
    blocks.push_back(labeled.block);
  }
  return blocks;
}

}  // namespace

// ---------------- QueryStats: merge and formatting ----------------

TEST(QueryStats, MergeAndFormat) {
  ck::QueryStats a;
  a.requested = 10;
  a.evaluated = 6;
  a.cache_hits = 4;
  a.batch_calls = 2;
  a.single_calls = 1;
  ck::QueryStats b;
  b.requested = 5;
  b.evaluated = 5;
  b.batch_calls = 1;

  ck::QueryStats merged = a + b;
  merged += b;
  EXPECT_EQ(merged.requested, 20u);
  EXPECT_EQ(merged.evaluated, 16u);
  EXPECT_EQ(merged.cache_hits, 4u);
  EXPECT_EQ(merged.batch_calls, 4u);
  EXPECT_EQ(merged.single_calls, 1u);
  EXPECT_EQ(a + b, b + a);
  EXPECT_NE(a, b);

  const std::string s = merged.to_string();
  EXPECT_NE(s.find("requested=20"), std::string::npos) << s;
  EXPECT_NE(s.find("evaluated=16"), std::string::npos) << s;
  EXPECT_NE(s.find("cache_hits=4"), std::string::npos) << s;
  EXPECT_NE(s.find("batch_calls=4"), std::string::npos) << s;
}

// ---------------- QueryBroker: pool-friendliness ----------------

TEST(QueryBrokerPool, PointerConstructionAndMoveKeepCacheAndStats) {
  const ck::CrudeModel model(ck::MicroArch::Haswell);
  ck::QueryBroker<cx::BasicBlock, ck::CostModel> broker(&model);
  const auto block = golden_block();
  const double direct = model.predict(block);
  EXPECT_DOUBLE_EQ(broker.predict_one(block), direct);

  // Move into a container slot (the pool pattern); cache and ledger ride
  // along.
  std::vector<ck::QueryBroker<cx::BasicBlock, ck::CostModel>> pool;
  pool.push_back(std::move(broker));
  EXPECT_DOUBLE_EQ(pool[0].predict_one(block), direct);
  EXPECT_EQ(pool[0].stats().requested, 2u);
  EXPECT_EQ(pool[0].stats().evaluated, 1u);
  EXPECT_EQ(pool[0].stats().cache_hits, 1u);
  EXPECT_EQ(&pool[0].model(), static_cast<const ck::CostModel*>(&model));
}

// ---------------- ShardedBrokerPool ----------------

TEST(ShardedBrokerPool, MatchesSingleModelAndMergesStats) {
  const auto blocks = test_blocks(80);
  const ck::CrudeModel reference(ck::MicroArch::Haswell);
  std::vector<double> expected(blocks.size());
  reference.predict_batch(std::span<const cx::BasicBlock>(blocks),
                          std::span<double>(expected));

  cs::ShardedBrokerPool<cx::BasicBlock, ck::CostModel> pool(
      [](std::size_t) {
        return std::make_shared<const ck::CrudeModel>(ck::MicroArch::Haswell);
      },
      /*shards=*/4);
  EXPECT_EQ(pool.shard_count(), 4u);

  std::vector<double> out(blocks.size());
  pool.predict_batch(std::span<const cx::BasicBlock>(blocks),
                     std::span<double>(out));
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], expected[i]) << "block " << i;
  }

  // Merged ledger equals the sum of per-shard ledgers, and the whole batch
  // was requested exactly once.
  const auto per_shard = pool.shard_stats();
  ck::QueryStats sum;
  for (const auto& s : per_shard) sum += s;
  EXPECT_EQ(sum, pool.stats());
  EXPECT_EQ(sum.requested, blocks.size());
  EXPECT_EQ(sum.single_calls, 0u);

  // Every block lands on its hash-owned shard, so a repeat batch is served
  // entirely from the shard memo caches.
  const std::size_t evaluated_before = sum.evaluated;
  pool.predict_batch(std::span<const cx::BasicBlock>(blocks),
                     std::span<double>(out));
  const auto after = pool.stats();
  EXPECT_EQ(after.evaluated, evaluated_before);
  EXPECT_EQ(after.requested, 2 * blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], expected[i]);
  }

  // Single-block routing agrees too.
  EXPECT_DOUBLE_EQ(pool.predict(blocks[0]), expected[0]);
}

TEST(ShardedCostModel, IsADropInCostModel) {
  cs::ShardedCostModel sharded(
      [](std::size_t) {
        return std::make_shared<const ck::CrudeModel>(ck::MicroArch::Skylake);
      },
      /*shards=*/3);
  const ck::CrudeModel reference(ck::MicroArch::Skylake);
  const ck::CostModel& as_base = sharded;
  const auto block = golden_block();
  EXPECT_DOUBLE_EQ(as_base.predict(block), reference.predict(block));
  EXPECT_EQ(as_base.name(), "sharded-3(" + reference.name() + ")");
}

// Throws from every query while the shared `failing` flag is set.
class FlakyModel final : public ck::CostModel {
 public:
  explicit FlakyModel(std::shared_ptr<const std::atomic<bool>> failing)
      : failing_(std::move(failing)) {}
  double predict(const cx::BasicBlock& block) const override {
    if (failing_->load()) throw std::runtime_error("flaky model");
    return inner_.predict(block);
  }
  std::string name() const override { return "flaky"; }

 private:
  std::shared_ptr<const std::atomic<bool>> failing_;
  ck::CrudeModel inner_{ck::MicroArch::Haswell};
};

TEST(ShardedCostModel, ThrowingShardRethrowsOnCallerAndPoolKeepsServing) {
  auto failing = std::make_shared<std::atomic<bool>>(true);
  const cs::ShardedCostModel sharded(
      [failing](std::size_t) {
        return std::make_shared<const FlakyModel>(failing);
      },
      /*shards=*/2);
  const auto blocks = test_blocks(20);
  std::vector<double> out(blocks.size());
  // The error crosses from the shard threads to this one instead of
  // escaping into a worker loop (which would terminate the process).
  EXPECT_THROW(sharded.predict_batch(std::span<const cx::BasicBlock>(blocks),
                                     std::span<double>(out)),
               std::runtime_error);

  failing->store(false);
  const ck::CrudeModel reference(ck::MicroArch::Haswell);
  std::vector<double> expected(blocks.size());
  reference.predict_batch(std::span<const cx::BasicBlock>(blocks),
                          std::span<double>(expected));
  sharded.predict_batch(std::span<const cx::BasicBlock>(blocks),
                        std::span<double>(out));
  EXPECT_EQ(out, expected);
  EXPECT_EQ(sharded.stats().requested, 2 * blocks.size());
}

// ---------------- engine: width-capped fused arm pulls ----------------

TEST(EngineWidening, FusedArmPullsMatchRecordedGoldenLedger) {
  const DivOnlyModel model;
  const auto e =
      cc::CometExplainer(model, golden_options()).explain(golden_block());

  // The recorded golden values of test_anchor_engine.cpp...
  cg::FeatureSet expected;
  expected.insert(cg::Feature(cg::InstFeature{1, cx::Opcode::DIV}));
  EXPECT_EQ(e.features, expected) << e.features.to_string();
  EXPECT_TRUE(e.met_threshold);
  EXPECT_DOUBLE_EQ(e.precision, 1.0);
  EXPECT_NEAR(e.coverage, 0.6333333333333333, 1e-12);
  EXPECT_EQ(e.model_queries, 1933u);

  // ...and the sample-level ledger recorded with one broker call per arm
  // pull. Fusing changes how many calls carry the samples (162 unfused,
  // 80 at the width cap), never which samples are drawn, evaluated, or
  // served from the memo.
  EXPECT_EQ(e.query_stats.requested, 1933u);
  EXPECT_EQ(e.query_stats.evaluated, 1473u);
  EXPECT_EQ(e.query_stats.cache_hits, 460u);
  EXPECT_EQ(e.query_stats.single_calls, 0u);
  EXPECT_LE(e.query_stats.batch_calls, 80u);
}

// Records the widest batch the model is handed.
class WidthRecordingModel final : public ck::CostModel {
 public:
  double predict(const cx::BasicBlock& block) const override {
    return inner_.predict(block);
  }
  void predict_batch(std::span<const cx::BasicBlock> blocks,
                     std::span<double> out) const override {
    std::size_t seen = widest_.load();
    while (seen < blocks.size() &&
           !widest_.compare_exchange_weak(seen, blocks.size())) {
    }
    inner_.predict_batch(blocks, out);
  }
  std::string name() const override { return "width-recording"; }
  std::size_t widest() const { return widest_.load(); }

 private:
  ck::CrudeModel inner_{ck::MicroArch::Haswell};
  mutable std::atomic<std::size_t> widest_{0};
};

TEST(EngineWidening, FusedBatchesNeverExceedTheWidthCap) {
  // A level-1 fan-out of every feature of a paper block, 16 samples per
  // arm and no memo (so the model sees each fused batch whole): the group
  // is many times wider than the cap and must be split.
  const cx::BasicBlock block = cx::parse_block(R"(
    mov rax, qword ptr [rdi + 8]
    add rax, rbx
    imul rcx, rax
    mov qword ptr [rsi], rcx
    xor edx, edx
    div rcx
  )");
  cc::CometOptions opt = golden_options();
  opt.batch_size = 16;
  opt.memoize_queries = false;
  ASSERT_GT(cg::extract_features(block, opt.graph_options).size() *
                opt.batch_size,
            cc::kMaxFusedBlocks);

  const WidthRecordingModel model;
  const auto e = cc::CometExplainer(model, opt).explain(block);
  EXPECT_LE(model.widest(), cc::kMaxFusedBlocks);
  EXPECT_GT(model.widest(), opt.batch_size);  // arms were fused
  EXPECT_GT(e.query_stats.evaluated, cc::kMaxFusedBlocks);
}

// ---------------- ExplanationServer: scheduling ----------------

TEST(ExplanationServer, CompletionOrderCorrectUnderEightWorkers) {
  auto crude =
      std::make_shared<const ck::CrudeModel>(ck::MicroArch::Haswell);
  auto oracle =
      std::make_shared<const comet::sim::HardwareOracle>(ck::MicroArch::Haswell);

  // Sequential ground truth, one engine run per request.
  struct Case {
    std::string key;
    cx::BasicBlock block;
    cc::CometOptions options;
  };
  std::vector<Case> cases;
  const auto blocks = test_blocks(6);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    cases.push_back({"crude-hsw", blocks[i], light_options(100 + i)});
  }
  cases.push_back({"oracle-hsw", cb::listing2_case_study1(), light_options(7)});
  cases.push_back({"oracle-hsw", cb::listing3_case_study2(), light_options(8)});

  std::vector<cc::Explanation> expected;
  for (const auto& c : cases) {
    const ck::CostModel& model =
        c.key == "crude-hsw" ? static_cast<const ck::CostModel&>(*crude)
                             : static_cast<const ck::CostModel&>(*oracle);
    expected.push_back(cc::CometExplainer(model, c.options).explain(c.block));
  }

  cs::X86ExplanationServer server({.workers = 8, .queue_capacity = 16});
  server.register_model("crude-hsw", crude);
  server.register_model("oracle-hsw", oracle);
  std::vector<std::uint64_t> tickets;
  for (const auto& c : cases) {
    tickets.push_back(server.submit(c.key, c.block, c.options));
  }

  // Collect in completion order; every ticket shows up exactly once with a
  // bit-identical explanation (each request owns its RNG and broker).
  std::vector<bool> seen(cases.size(), false);
  std::size_t delivered = 0;
  while (auto served = server.next()) {
    std::size_t idx = cases.size();
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      if (tickets[i] == served->id) idx = i;
    }
    ASSERT_LT(idx, cases.size()) << "unknown ticket " << served->id;
    EXPECT_FALSE(seen[idx]) << "ticket delivered twice";
    seen[idx] = true;
    ++delivered;
    EXPECT_EQ(served->model_key, cases[idx].key);
    expect_identical(served->explanation, expected[idx]);
    EXPECT_EQ(served->explanation.query_stats, expected[idx].query_stats);
  }
  EXPECT_EQ(delivered, cases.size());
  EXPECT_EQ(server.outstanding(), 0u);

  // The drain report aggregates per-key ledgers of everything served.
  ck::QueryStats crude_sum;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (cases[i].key == "crude-hsw") crude_sum += expected[i].query_stats;
  }
  const auto by_model = server.stats_by_model();
  ASSERT_TRUE(by_model.contains("crude-hsw"));
  EXPECT_EQ(by_model.at("crude-hsw"), crude_sum);
  EXPECT_NE(server.report().find("crude-hsw"), std::string::npos);
}

TEST(ExplanationServer, ConcurrentRequestsBitIdenticalToSequential) {
  // The satellite's two-concurrent-requests determinism check, stated
  // directly: one worker per request, both in flight at once, same bits as
  // back-to-back sequential runs.
  auto model = std::make_shared<const ck::CrudeModel>(ck::MicroArch::Haswell);
  const auto block_a = cb::listing1_motivating();
  const auto block_b = golden_block();
  const auto opt_a = light_options(41);
  const auto opt_b = light_options(42);

  const auto seq_a = cc::CometExplainer(*model, opt_a).explain(block_a);
  const auto seq_b = cc::CometExplainer(*model, opt_b).explain(block_b);

  cs::X86ExplanationServer server({.workers = 2, .queue_capacity = 4});
  server.register_model("crude", model);
  const auto ta = server.submit("crude", block_a, opt_a);
  const auto tb = server.submit("crude", block_b, opt_b);
  const auto results = server.drain();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& served : results) {
    const auto& expected = served.id == ta ? seq_a : seq_b;
    ASSERT_TRUE(served.id == ta || served.id == tb);
    expect_identical(served.explanation, expected);
    EXPECT_EQ(served.explanation.query_stats, expected.query_stats);
  }
}

TEST(ExplanationServer, ServedOverShardedPoolMatchesPlainModel) {
  // Full-stack parity: scheduler → pool → shards → models produces the
  // same bits as one explainer over one model instance.
  auto sharded = std::make_shared<const cs::ShardedCostModel>(
      [](std::size_t) {
        return std::make_shared<const ck::CrudeModel>(ck::MicroArch::Haswell);
      },
      /*shards=*/4);
  const ck::CrudeModel plain(ck::MicroArch::Haswell);

  const auto block = cb::listing2_case_study1();
  const auto options = light_options(5);
  const auto expected = cc::CometExplainer(plain, options).explain(block);

  cs::X86ExplanationServer server({.workers = 2, .queue_capacity = 4});
  server.register_model("sharded-crude", sharded);
  server.submit("sharded-crude", block, options);
  const auto results = server.drain();
  ASSERT_EQ(results.size(), 1u);
  expect_identical(results[0].explanation, expected);
}

TEST(ExplanationServer, BoundedQueueExertsBackpressure) {
  auto gate = std::make_shared<GateModel>();
  const auto block = golden_block();
  const auto options = light_options(1);

  cs::X86ExplanationServer server({.workers = 1, .queue_capacity = 2});
  server.register_model("gate", gate);

  // Pin the single worker inside the gate, then fill the admission queue.
  server.submit("gate", block, options);
  gate->await_entered();
  server.submit("gate", block, options);
  server.submit("gate", block, options);

  // Queue full: non-blocking admission is refused...
  std::uint64_t ticket = 0;
  EXPECT_FALSE(server.try_submit("gate", block, options, &ticket));
  EXPECT_EQ(ticket, 0u);
  // ...and unknown keys are rejected at admission, not at execution.
  EXPECT_THROW(server.try_submit("nope", block, options),
               std::out_of_range);

  gate->open();
  const auto results = server.drain();
  EXPECT_EQ(results.size(), 3u);

  // Space freed: admission works again and the job completes.
  EXPECT_TRUE(server.try_submit("gate", block, options, &ticket));
  EXPECT_GT(ticket, 0u);
  EXPECT_EQ(server.drain().size(), 1u);

  // The flow-control events above are on the metrics surface: exactly one
  // try_submit refusal (the unknown-key throw is not a queue rejection),
  // no blocking submit ever waited, and the lifecycle counters balance.
  const auto snap = server.metrics().snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name == "serve_try_submit_rejected") {
      EXPECT_EQ(1u, value);
    }
    if (name == "serve_submit_blocked") {
      EXPECT_EQ(0u, value);
    }
    if (name == "serve_submitted") {
      EXPECT_EQ(4u, value);
    }
    if (name == "serve_completed") {
      EXPECT_EQ(4u, value);
    }
  }
}

// ---------------- the shared RISC-V served path ----------------

TEST(ExplanationServer, ServesRiscvThroughTheSameScheduler) {
  auto model = std::make_shared<const rv::RvCostModel>();
  const std::vector<rv::BasicBlock> blocks = {
      rv::parse_block("add a0, a1, a2\ndiv a3, a0, a4\naddi a5, a3, 1"),
      rv::parse_block("mul t0, t1, t2\nadd t3, t0, t4"),
      rv::parse_block("lw a0, 0(a1)\nadd a2, a0, a3\nsw a2, 4(a1)"),
  };
  rv::RvExplainOptions options;
  options.coverage_samples = 200;
  options.max_pulls_per_level = 40;

  std::vector<rv::RvExplanation> expected;
  for (const auto& b : blocks) {
    expected.push_back(rv::RvExplainer(*model, options).explain(b));
  }

  cs::RvExplanationServer server({.workers = 3, .queue_capacity = 8});
  server.register_model("crude-rv64", model);
  std::vector<std::uint64_t> tickets;
  for (const auto& b : blocks) {
    tickets.push_back(server.submit("crude-rv64", b, options));
  }
  const auto results = server.drain();
  ASSERT_EQ(results.size(), blocks.size());
  for (const auto& served : results) {
    std::size_t idx = blocks.size();
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      if (tickets[i] == served.id) idx = i;
    }
    ASSERT_LT(idx, blocks.size());
    EXPECT_EQ(served.explanation.features, expected[idx].features);
    EXPECT_DOUBLE_EQ(served.explanation.precision, expected[idx].precision);
    EXPECT_DOUBLE_EQ(served.explanation.coverage, expected[idx].coverage);
    EXPECT_EQ(served.explanation.model_queries, expected[idx].model_queries);
    EXPECT_EQ(served.explanation.query_stats, expected[idx].query_stats);
  }
}
