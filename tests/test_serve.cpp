// Tests for the concurrent explanation-serving subsystem (src/serve/):
// completion-order scheduler correctness under 8 worker threads,
// bounded-queue backpressure, a throwing model delivered as a typed
// kFailed result while the worker keeps serving, the engine's width-capped
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
  EXPECT_EQ(a + b, b + a);
  EXPECT_NE(a, b);

  const std::string s = merged.to_string();
  EXPECT_NE(s.find("requested=20"), std::string::npos) << s;
  EXPECT_NE(s.find("evaluated=16"), std::string::npos) << s;
  EXPECT_NE(s.find("cache_hits=4"), std::string::npos) << s;
  EXPECT_NE(s.find("batch_calls=4"), std::string::npos) << s;
}

// ---------------- QueryBroker: pool-friendliness ----------------

TEST(QueryBrokerPool, MoveKeepsCacheAndStats) {
  const ck::CrudeModel model(ck::MicroArch::Haswell);
  ck::QueryBroker<cx::BasicBlock, ck::CostModel> broker(model);
  auto block = golden_block();
  const double direct = model.predict(block);
  const auto predict_one = [&block](auto& b) {
    double out = 0.0;
    b.predict_batch(std::span<cx::BasicBlock>(&block, 1),
                    std::span<double>(&out, 1));
    return out;
  };
  EXPECT_DOUBLE_EQ(predict_one(broker), direct);

  // Move into a container slot (the pool pattern); cache and ledger ride
  // along.
  std::vector<ck::QueryBroker<cx::BasicBlock, ck::CostModel>> pool;
  pool.push_back(std::move(broker));
  EXPECT_DOUBLE_EQ(predict_one(pool[0]), direct);
  EXPECT_EQ(pool[0].stats().requested, 2u);
  EXPECT_EQ(pool[0].stats().evaluated, 1u);
  EXPECT_EQ(pool[0].stats().cache_hits, 1u);
  EXPECT_EQ(&pool[0].model(), static_cast<const ck::CostModel*>(&model));
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
  // arm: the group is many times wider than the cap and must be split.
  // The memo only ever narrows what reaches the model, so the cap bounds
  // the model's widest batch, and a batch wider than one arm's shows that
  // arms were fused.
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
  EXPECT_NE(ck::format_stats_report(by_model).find("crude-hsw"),
            std::string::npos);
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

TEST(ExplanationServer, ThrowingModelIsATypedFailureAndTheWorkerKeepsServing) {
  auto failing = std::make_shared<std::atomic<bool>>(true);
  auto flaky = std::make_shared<const FlakyModel>(failing);
  const auto block = golden_block();
  const auto options = light_options(7);

  // One worker, so the job after the failure runs on the same thread the
  // exception crossed.
  cs::X86ExplanationServer server({.workers = 1, .queue_capacity = 4});
  server.register_model("flaky", flaky);
  const std::uint64_t failed_ticket = server.submit("flaky", block, options);
  const auto failed = server.drain();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].id, failed_ticket);
  EXPECT_EQ(failed[0].status, cs::ServeStatus::kFailed);
  EXPECT_FALSE(cs::has_explanation(failed[0].status));
  EXPECT_STREQ(cs::serve_status_name(failed[0].status), "failed");
  EXPECT_EQ(failed[0].error, "flaky model");
  EXPECT_EQ(failed[0].model_key, "flaky");
  // A failed run merges nothing into the per-key ledger.
  EXPECT_FALSE(server.stats_by_model().contains("flaky"));

  // The worker survived: the next job on the same key runs and matches
  // the sequential explanation over the model it wraps.
  failing->store(false);
  server.submit("flaky", block, options);
  const auto recovered = server.drain();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].status, cs::ServeStatus::kOk);
  EXPECT_TRUE(recovered[0].error.empty());
  const ck::CrudeModel crude(ck::MicroArch::Haswell);
  const auto expected = cc::CometExplainer(crude, options).explain(block);
  expect_identical(recovered[0].explanation, expected);
  EXPECT_EQ(recovered[0].explanation.query_stats, expected.query_stats);
  EXPECT_EQ(server.stats_by_model().at("flaky"), expected.query_stats);

  std::uint64_t failed_count = 0;
  std::uint64_t completed = 0;
  for (const auto& [name, value] : server.metrics().snapshot().counters) {
    if (name == "serve_failed{model_key=\"flaky\"}") failed_count = value;
    if (name == "serve_completed") completed = value;
  }
  EXPECT_EQ(failed_count, 1u);
  EXPECT_EQ(completed, 2u);
}

TEST(ExplanationServer, BoundedQueueExertsBackpressure) {
  auto gate = std::make_shared<GateModel>();
  const auto block = golden_block();
  const auto options = light_options(1);

  cs::X86ExplanationServer server({.workers = 1, .queue_capacity = 2});
  server.register_model("gate", gate);
  const auto counter = [&server](const std::string& name) {
    for (const auto& [key, value] : server.metrics().snapshot().counters) {
      if (key == name) return value;
    }
    return std::uint64_t{0};
  };

  // Pin the single worker inside the gate, then fill the admission queue.
  server.submit("gate", block, options);
  gate->await_entered();
  server.submit("gate", block, options);
  server.submit("gate", block, options);
  EXPECT_EQ(counter("serve_submit_blocked"), 0u);

  // Queue full: the next submit blocks until a worker frees a slot.
  std::atomic<bool> returned{false};
  std::uint64_t ticket = 0;
  std::thread producer([&] {
    ticket = server.submit("gate", block, options);
    returned = true;
  });
  // Bounded poll: the producer counts itself blocked before it parks.
  for (int i = 0; i < 10'000 && counter("serve_submit_blocked") == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(counter("serve_submit_blocked"), 1u);
  // No slot can free while the worker is pinned, so no ticket yet.
  EXPECT_FALSE(returned);
  // Unknown keys are rejected at admission, not at execution.
  EXPECT_THROW(server.submit("nope", block, options), std::out_of_range);

  gate->open();
  producer.join();
  EXPECT_GT(ticket, 0u);
  EXPECT_EQ(server.drain().size(), 4u);

  // The flow-control events above are on the metrics surface: one
  // blocking submit waited, and the lifecycle counters balance.
  EXPECT_EQ(counter("serve_submit_blocked"), 1u);
  EXPECT_EQ(counter("serve_submitted"), 4u);
  EXPECT_EQ(counter("serve_completed"), 4u);
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
