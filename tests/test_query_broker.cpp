// Tests for the batched query layer: predict_batch element-wise parity for
// every model in the zoo, QueryBroker memoization/dedup/accounting, the
// broker's one model session, and that every broker output — miss, memo
// hit or in-batch duplicate — is bit-identical to the model's own
// predict().
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bhive/generator.h"
#include "core/comet.h"
#include "core/model_zoo.h"
#include "cost/crude_model.h"
#include "cost/granite_model.h"
#include "cost/ithemal_model.h"
#include "cost/query_broker.h"
#include "riscv/cost.h"
#include "riscv/generator.h"
#include "x86/parser.h"

namespace cc = comet::core;
namespace ck = comet::cost;
namespace cx = comet::x86;
namespace rv = comet::riscv;
using comet::util::Rng;

namespace {

std::vector<cx::BasicBlock> sample_blocks(std::size_t n) {
  const comet::bhive::BlockGenerator generator;
  std::vector<cx::BasicBlock> blocks;
  Rng rng(321);
  for (std::size_t i = 0; i < n; ++i) {
    blocks.push_back(generator.generate(rng));
  }
  // An empty block exercises the models' empty-input convention.
  blocks.push_back(cx::BasicBlock{});
  return blocks;
}

void expect_batch_matches_elementwise(const ck::CostModel& model,
                                      const std::vector<cx::BasicBlock>& bs) {
  std::vector<double> batch(bs.size());
  model.predict_batch(std::span<const cx::BasicBlock>(bs),
                      std::span<double>(batch));
  for (std::size_t i = 0; i < bs.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], model.predict(bs[i]))
        << model.name() << " block " << i;
  }
}

/// Counts how queries reach the model: through the batch entry point or
/// through single predict() calls.
class CountingModel final : public ck::CostModel {
 public:
  double predict(const cx::BasicBlock& block) const override {
    ++single_queries;
    return 1.0 + static_cast<double>(block.size());
  }
  void predict_batch(std::span<const cx::BasicBlock> blocks,
                     std::span<double> out) const override {
    ++batch_calls;
    batch_queries += blocks.size();
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      out[i] = 1.0 + static_cast<double>(blocks[i].size());
    }
  }
  std::string name() const override { return "counting"; }

  mutable std::size_t single_queries = 0;
  mutable std::size_t batch_calls = 0;
  mutable std::size_t batch_queries = 0;
};

/// CountingModel's values behind its own open_session(): counts sessions
/// opened and the batches and blocks that reach them.
class SessionCountingModel final : public ck::CostModel {
 public:
  class Session final : public ck::ModelSession {
   public:
    explicit Session(const SessionCountingModel& model) : model_(&model) {}
    void predict_batch(std::span<const cx::BasicBlock> blocks,
                       std::span<double> out) override {
      ++model_->session_batches;
      model_->session_queries += blocks.size();
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        out[i] = 1.0 + static_cast<double>(blocks[i].size());
      }
    }

   private:
    const SessionCountingModel* model_;
  };

  double predict(const cx::BasicBlock& block) const override {
    ++direct_calls;
    return 1.0 + static_cast<double>(block.size());
  }
  void predict_batch(std::span<const cx::BasicBlock> blocks,
                     std::span<double> out) const override {
    ++direct_calls;
    ck::CostModel::predict_batch(blocks, out);
  }
  std::unique_ptr<ck::ModelSession> open_session() const override {
    ++sessions_opened;
    return std::make_unique<Session>(*this);
  }
  std::string name() const override { return "session-counting"; }

  mutable std::size_t sessions_opened = 0;
  mutable std::size_t session_batches = 0;
  mutable std::size_t session_queries = 0;
  mutable std::size_t direct_calls = 0;  // predict() or predict_batch()
};

/// Records every batch that reaches it, and throws on request.
class RecordingModel final : public ck::CostModel {
 public:
  double predict(const cx::BasicBlock& block) const override {
    return static_cast<double>(block.to_string().size());
  }
  void predict_batch(std::span<const cx::BasicBlock> blocks,
                     std::span<double> out) const override {
    batches.emplace_back(blocks.begin(), blocks.end());
    if (throw_next) {
      throw_next = false;
      throw std::runtime_error("recording model: requested failure");
    }
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      out[i] = predict(blocks[i]);
    }
  }
  std::string name() const override { return "recording"; }

  mutable std::vector<std::vector<cx::BasicBlock>> batches;
  mutable bool throw_next = false;
};

/// Broker traffic with in-batch duplicates, repeats across batches, an
/// empty block and an all-hit batch.
std::vector<std::vector<cx::BasicBlock>> session_traffic() {
  const auto blocks = sample_blocks(12);
  std::vector<std::vector<cx::BasicBlock>> batches;
  batches.push_back({blocks[0], blocks[1], blocks[0]});
  batches.push_back({blocks[1], blocks[2], blocks[3], blocks[12]});
  batches.push_back({blocks[0], blocks[2]});  // all memo hits
  batches.emplace_back(blocks.begin(), blocks.end());
  const auto fresh = cx::parse_block("imul rax, rcx\nadd rcx, rax");
  batches.push_back({fresh, blocks[5], fresh});
  return batches;
}

template <typename Model>
std::vector<std::vector<double>> run_traffic(
    ck::QueryBroker<cx::BasicBlock, Model>& broker,
    const std::vector<std::vector<cx::BasicBlock>>& batches) {
  std::vector<std::vector<double>> outs;
  for (const auto& batch : batches) {
    auto& out = outs.emplace_back(batch.size(), -1.0);
    std::vector<cx::BasicBlock> in = batch;  // the broker permutes it
    broker.predict_batch(std::span<cx::BasicBlock>(in),
                         std::span<double>(out));
  }
  return outs;
}

}  // namespace

// ---------- predict_batch == element-wise predict, whole model zoo ----------

TEST(PredictBatch, MatchesElementwiseForCheapZooModels) {
  const auto blocks = sample_blocks(30);
  for (const auto kind : {cc::ModelKind::UiCA, cc::ModelKind::Oracle,
                          cc::ModelKind::Mca, cc::ModelKind::Crude}) {
    for (const auto uarch :
         {ck::MicroArch::Haswell, ck::MicroArch::Skylake}) {
      const auto model = cc::make_model(kind, uarch);
      ASSERT_NE(model, nullptr);
      expect_batch_matches_elementwise(*model, blocks);
    }
  }
}

TEST(PredictBatch, MatchesElementwiseForIthemal) {
  // Untrained weights are deterministic per seed; inference parity between
  // the cached training forward and the allocation-free batch path is what
  // is under test, and it must be exact.
  const ck::IthemalModel model(ck::MicroArch::Haswell);
  expect_batch_matches_elementwise(model, sample_blocks(20));
}

TEST(PredictBatch, MatchesElementwiseForGranite) {
  const ck::GraniteModel model(ck::MicroArch::Haswell);
  expect_batch_matches_elementwise(model, sample_blocks(20));
}

TEST(PredictBatch, MatchesElementwiseForRiscv) {
  const rv::RvCostModel model;
  const auto corpus = rv::generate_corpus(25, 5);
  std::vector<double> batch(corpus.size());
  model.predict_batch(std::span<const rv::BasicBlock>(corpus),
                      std::span<double>(batch));
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], model.predict(corpus[i]));
  }
}

// ---------- QueryBroker ----------

TEST(QueryBroker, MemoizesRepeatQueries) {
  const CountingModel model;
  ck::QueryBroker<cx::BasicBlock, ck::CostModel> broker(model);
  const auto block = cx::parse_block("add rcx, rax\nmov rdx, rcx");
  std::vector<cx::BasicBlock> batch{block, block, block};
  std::vector<double> out(batch.size());
  broker.predict_batch(std::span<cx::BasicBlock>(batch),
                       std::span<double>(out));
  broker.predict_batch(std::span<cx::BasicBlock>(batch),
                       std::span<double>(out));
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 3.0);
  // Six requested, one evaluated: two in-batch duplicates + three repeats.
  EXPECT_EQ(broker.stats().requested, 6u);
  EXPECT_EQ(broker.stats().evaluated, 1u);
  EXPECT_EQ(broker.stats().cache_hits, 5u);
  EXPECT_EQ(model.batch_queries, 1u);
  EXPECT_EQ(model.single_queries, 0u);
}

TEST(QueryBroker, OneBlockBatchIsMemoized) {
  const CountingModel model;
  ck::QueryBroker<cx::BasicBlock, ck::CostModel> broker(model);
  auto block = cx::parse_block("add rcx, rax");
  double out = 0.0;
  broker.predict_batch(std::span<cx::BasicBlock>(&block, 1),
                       std::span<double>(&out, 1));
  EXPECT_DOUBLE_EQ(out, 2.0);
  out = 0.0;
  broker.predict_batch(std::span<cx::BasicBlock>(&block, 1),
                       std::span<double>(&out, 1));
  EXPECT_DOUBLE_EQ(out, 2.0);  // memo hit
  EXPECT_EQ(broker.stats().batch_calls, 1u);
  EXPECT_EQ(broker.stats().cache_hits, 1u);
  EXPECT_EQ(model.batch_calls, 1u);
  EXPECT_EQ(model.single_queries, 0u);
}

// The broker keeps its miss slots across calls and overwrites them: every
// call hands the model exactly that call's misses, in order, whether the
// batch is smaller than the last one, larger, made of longer blocks, or
// follows a call whose model threw.
TEST(QueryBroker, MissSlotsFollowBatchSize) {
  const auto pool = sample_blocks(40);  // 40 generated blocks + an empty one
  const auto longer = [&](std::size_t i) {
    cx::BasicBlock b = pool[i];
    const auto& tail = pool[i + 1].instructions;
    b.instructions.insert(b.instructions.end(), tail.begin(), tail.end());
    return b;
  };
  std::vector<std::vector<cx::BasicBlock>> batches;
  batches.emplace_back(pool.begin(), pool.begin() + 12);       // large
  batches.push_back({pool[12], pool[3], pool[13], pool[12]});  // small
  batches.emplace_back();  // larger again, of longer blocks
  for (std::size_t i = 14; i < 30; ++i) batches.back().push_back(longer(i));
  batches.push_back({pool[30], pool[31], pool[32]});           // throws
  batches.push_back({pool[31], pool[0], pool[33], pool[40]});  // normal
  // The misses each batch must hand the model, in first-seen order.
  const std::vector<std::vector<cx::BasicBlock>> expected_misses = {
      batches[0],
      {pool[12], pool[13]},
      batches[2],
      batches[3],
      {pool[31], pool[33], pool[40]},  // the failed batch was never cached
  };

  const RecordingModel model;
  ck::QueryBroker<cx::BasicBlock, ck::CostModel> broker(model);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE(b);
    std::vector<double> out(batches[b].size(), -1.0);
    std::vector<cx::BasicBlock> copy = batches[b];
    const std::span<cx::BasicBlock> in(copy);
    if (b == 3) {
      model.throw_next = true;
      EXPECT_THROW(broker.predict_batch(in, std::span<double>(out)),
                   std::runtime_error);
    } else {
      broker.predict_batch(in, std::span<double>(out));
      for (std::size_t i = 0; i < batches[b].size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                  std::bit_cast<std::uint64_t>(model.predict(batches[b][i])));
      }
    }
    ASSERT_EQ(model.batches.size(), b + 1);
    EXPECT_EQ(model.batches[b], expected_misses[b]);
  }
}

// The broker gathers a batch's misses at the front of the caller's span:
// each output still answers the block the caller put at its index, the
// model sees the misses in first-seen order, an in-batch duplicate is a
// cache hit, and the span keeps the caller's blocks, reordered.
TEST(QueryBroker, InPlaceGatherKeepsRequestOrder) {
  const auto pool = sample_blocks(8);
  const RecordingModel model;
  // Distinct values, so an output at the wrong index shows.
  std::set<double> values;
  for (std::size_t i = 0; i < 5; ++i) values.insert(model.predict(pool[i]));
  ASSERT_EQ(values.size(), 5u);
  ck::QueryBroker<cx::BasicBlock, ck::CostModel> broker(model);
  std::vector<cx::BasicBlock> primer{pool[0], pool[1]};
  std::vector<double> primer_out(primer.size());
  broker.predict_batch(std::span<cx::BasicBlock>(primer),
                       std::span<double>(primer_out));

  const std::vector<cx::BasicBlock> request{pool[0], pool[2], pool[2], pool[1],
                                            pool[3], pool[4], pool[3]};
  std::vector<cx::BasicBlock> blocks = request;
  std::vector<double> out(blocks.size(), -1.0);
  broker.predict_batch(std::span<cx::BasicBlock>(blocks),
                       std::span<double>(out));

  for (std::size_t i = 0; i < request.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(model.predict(request[i])))
        << "index " << i;
  }
  ASSERT_EQ(model.batches.size(), 2u);
  EXPECT_EQ(model.batches[1],
            (std::vector<cx::BasicBlock>{pool[2], pool[3], pool[4]}));
  // Two memo hits (pool[0], pool[1]) and two in-batch duplicates.
  EXPECT_EQ(broker.stats().cache_hits, 4u);
  EXPECT_EQ(broker.stats().evaluated, 5u);
  EXPECT_EQ(broker.stats().requested, 9u);

  const auto sorted_texts = [](const std::vector<cx::BasicBlock>& bs) {
    std::vector<std::string> texts;
    for (const auto& b : bs) texts.push_back(b.to_string());
    std::sort(texts.begin(), texts.end());
    return texts;
  };
  EXPECT_EQ(sorted_texts(blocks), sorted_texts(request));
}

// ---------- memoization never changes a prediction ----------

TEST(QueryBroker, MemoizationInvariantExplanation) {
  const ck::CrudeModel model(ck::MicroArch::Haswell);
  cc::CometOptions opt;
  opt.seed = 17;
  const auto block = cx::parse_block(R"(
    mov rbx, 5
    add rsi, rdi
    div rcx
    mov r8, r9
  )");
  // The stream an explanation sends: Γ samples of the block, which recur
  // across and within batches, in batches of the engine's fused width.
  const auto perturber = cc::X86AnchorTraits::make_perturber(block, opt);
  Rng rng(opt.seed);
  std::vector<std::vector<cx::BasicBlock>> batches;
  // The first batch holds the block twice: an in-batch duplicate.
  batches.push_back({block, block});
  for (std::size_t b = 0; b < 20; ++b) {
    std::vector<cx::BasicBlock> batch;
    for (std::size_t i = 0; i < cc::kMaxFusedBlocks / 2; ++i) {
      auto alpha = perturber.sample(comet::graph::FeatureSet{}, rng);
      if (!alpha.block.empty()) batch.push_back(std::move(alpha.block));
    }
    batches.push_back(std::move(batch));
  }
  // The block again, now a memo hit from the first batch.
  batches.push_back({block});

  ck::QueryBroker<cx::BasicBlock, ck::CostModel> broker(model);
  std::size_t requested = 0;
  for (const auto& batch : batches) {
    std::vector<double> out(batch.size());
    std::vector<cx::BasicBlock> in = batch;  // the broker permutes it
    broker.predict_batch(std::span<cx::BasicBlock>(in),
                         std::span<double>(out));
    requested += batch.size();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                std::bit_cast<std::uint64_t>(model.predict(batch[i])))
          << batch[i].to_string();
    }
    if (&batch == &batches.front()) {
      EXPECT_EQ(broker.stats().evaluated, 1u);
      EXPECT_EQ(broker.stats().cache_hits, 1u);
    }
  }
  // Every path was taken: misses reached the model, and Γ's recurring
  // samples were served from the memo.
  const auto& stats = broker.stats();
  EXPECT_EQ(stats.requested, requested);
  EXPECT_EQ(stats.requested, stats.evaluated + stats.cache_hits);
  EXPECT_GT(stats.evaluated, 1u);
  EXPECT_GT(stats.cache_hits, requested / 4);
}

// ---------- the broker's model session ----------

TEST(QueryBrokerSession, OneSessionPerBroker) {
  const SessionCountingModel model;
  ck::QueryBroker<cx::BasicBlock, ck::CostModel> broker(model);
  EXPECT_EQ(model.sessions_opened, 1u);
  run_traffic(broker, session_traffic());
  EXPECT_EQ(model.sessions_opened, 1u);
  // Moving a broker moves its session; a second broker opens its own.
  auto moved = std::move(broker);
  run_traffic(moved, session_traffic());
  ck::QueryBroker<cx::BasicBlock, ck::CostModel> other(model);
  EXPECT_EQ(model.sessions_opened, 2u);
}

TEST(QueryBrokerSession, MissBatchesGoThroughTheSessionAndHitsNever) {
  const SessionCountingModel model;
  ck::QueryBroker<cx::BasicBlock, ck::CostModel> broker(model);
  const auto batches = session_traffic();
  std::size_t expected_batches = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const std::size_t before = model.session_queries;
    const std::size_t hits = broker.stats().cache_hits;
    run_traffic(broker, {batches[b]});
    // Only the deduplicated misses of this batch reached the session.
    EXPECT_EQ(model.session_queries - before,
              batches[b].size() - (broker.stats().cache_hits - hits));
    if (b == 2) {
      EXPECT_EQ(model.session_queries, before) << "an all-hit batch";
    } else {
      ++expected_batches;
    }
  }
  EXPECT_EQ(model.session_batches, expected_batches);
  EXPECT_EQ(model.session_batches, broker.stats().batch_calls);
  EXPECT_EQ(model.session_queries, broker.stats().evaluated);
  EXPECT_EQ(model.direct_calls, 0u);
}

TEST(QueryBrokerSession, StatsAndValuesMatchASessionlessModel) {
  const auto batches = session_traffic();
  const SessionCountingModel with_session;
  const CountingModel forwarding;  // the base forwarding session
  ck::QueryBroker<cx::BasicBlock, ck::CostModel> a(with_session);
  ck::QueryBroker<cx::BasicBlock, ck::CostModel> b(forwarding);
  EXPECT_EQ(run_traffic(a, batches), run_traffic(b, batches));
  EXPECT_EQ(a.stats().requested, b.stats().requested);
  EXPECT_EQ(a.stats().evaluated, b.stats().evaluated);
  EXPECT_EQ(a.stats().cache_hits, b.stats().cache_hits);
  EXPECT_EQ(a.stats().batch_calls, b.stats().batch_calls);
}

// A model without its own open_session() — the shape of RemoteShardClient
// and of decorators like perfbench's TimedModel — is reached through the
// forwarding default: every miss batch is one predict_batch() call.
TEST(QueryBrokerSession, ForwardingDefaultReachesPredictBatch) {
  const CountingModel model;
  ck::QueryBroker<cx::BasicBlock, ck::CostModel> broker(model);
  run_traffic(broker, session_traffic());
  EXPECT_EQ(model.batch_calls, broker.stats().batch_calls);
  EXPECT_EQ(model.batch_queries, broker.stats().evaluated);
  EXPECT_EQ(model.single_queries, 0u);

  const auto blocks = sample_blocks(3);
  std::vector<double> out(blocks.size(), -1.0);
  model.open_session()->predict_batch(std::span<const cx::BasicBlock>(blocks),
                                      std::span<double>(out));
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(out[i], model.predict(blocks[i]));
  }
}

// Ithemal through its broker session equals Ithemal called per block, and
// the broker's ledger equals that of the forwarding session.
TEST(QueryBrokerSession, IthemalSessionMatchesPredict) {
  const ck::IthemalModel model(ck::MicroArch::Haswell);
  const auto batches = session_traffic();
  ck::QueryBroker<cx::BasicBlock, ck::CostModel> broker(model);
  const auto outs = run_traffic(broker, batches);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (std::size_t i = 0; i < batches[b].size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(outs[b][i]),
                std::bit_cast<std::uint64_t>(model.predict(batches[b][i])));
    }
  }
  const CountingModel forwarding;
  ck::QueryBroker<cx::BasicBlock, ck::CostModel> plain(forwarding);
  run_traffic(plain, batches);
  EXPECT_EQ(broker.stats().evaluated, plain.stats().evaluated);
  EXPECT_EQ(broker.stats().cache_hits, plain.stats().cache_hits);
  EXPECT_EQ(broker.stats().batch_calls, plain.stats().batch_calls);
}
