// Tests for the global explanation module (paper Section 4): the M1
// running example, opcode- and dependency-keyed synthetic models, feature
// names, and search behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "bhive/dataset.h"
#include "core/global.h"
#include "graph/depgraph.h"

namespace cc = comet::core;
namespace cx = comet::x86;
namespace cg = comet::graph;
using comet::cost::CostModel;

namespace {

/// The paper's hypothetical M1: 2 cycles iff the block has `n` instructions.
class CountKeyedModel final : public CostModel {
 public:
  explicit CountKeyedModel(std::size_t n) : n_(n) {}
  double predict(const cx::BasicBlock& block) const override {
    return block.size() == n_ ? 2.0 : 1.0;
  }
  std::string name() const override { return "m1"; }

 private:
  std::size_t n_;
};

/// 10 cycles iff the block contains a div.
class DivKeyedModel final : public CostModel {
 public:
  double predict(const cx::BasicBlock& block) const override {
    for (const auto& i : block.instructions) {
      if (i.opcode == cx::Opcode::DIV || i.opcode == cx::Opcode::IDIV) {
        return 10.0;
      }
    }
    return 1.0;
  }
  std::string name() const override { return "div-keyed"; }
};

/// 5 cycles iff the block has any RAW hazard.
class RawKeyedModel final : public CostModel {
 public:
  double predict(const cx::BasicBlock& block) const override {
    // Bind the graph: iterating edges() of the temporary would dangle.
    const auto graph = cg::DepGraph::build(block);
    for (const auto& e : graph.edges()) {
      if (e.kind == cg::DepKind::RAW) return 5.0;
    }
    return 1.0;
  }
  std::string name() const override { return "raw-keyed"; }
};

/// 3 cycles iff the block has 8 instructions and contains a div.
class ConjunctionKeyedModel final : public CostModel {
 public:
  double predict(const cx::BasicBlock& block) const override {
    return block.size() == 8 && DivKeyedModel().predict(block) > 1.0 ? 3.0
                                                                      : 1.0;
  }
  std::string name() const override { return "div-and-eta8"; }
};

std::vector<cx::BasicBlock> corpus_blocks(std::size_t n = 300) {
  comet::bhive::DatasetOptions opts;
  opts.size = n;
  opts.seed = 4242;
  return comet::bhive::generate_dataset(opts).block_views();
}

}  // namespace

// ---------- GlobalFeature ----------

TEST(GlobalFeature, ToStringIsDescriptive) {
  EXPECT_EQ(cc::GlobalFeature(cc::GlobalFeature::HasOpcode{cx::Opcode::DIV})
                .to_string(),
            "has(div)");
  EXPECT_EQ(
      cc::GlobalFeature(cc::GlobalFeature::NumInstsEquals{8}).to_string(),
      "eta=8");
  EXPECT_EQ(cc::GlobalFeature(cc::GlobalFeature::HasDepKind{cg::DepKind::WAW})
                .to_string(),
            "has-dep(WAW)");
}

// ---------- GlobalExplainer on keyed models ----------

TEST(GlobalExplainer, RecoversM1InstructionCount) {
  // Paper Section 4: M1 predicts 2 iff eta = 8; the global explanation of
  // T = {2} must be "number of instructions equal to 8".
  const CountKeyedModel m1(8);
  cc::GlobalExplainer ex(m1, corpus_blocks());
  const auto e = ex.explain_range(1.5, 2.5);
  ASSERT_EQ(e.features.size(), 1u);
  EXPECT_EQ(e.features[0],
            cc::GlobalFeature(cc::GlobalFeature::NumInstsEquals{8}));
  EXPECT_DOUBLE_EQ(e.precision, 1.0);
  EXPECT_DOUBLE_EQ(e.recall, 1.0);
  EXPECT_TRUE(e.met_threshold);
}

TEST(GlobalExplainer, RecoversDivPresence) {
  const DivKeyedModel model;
  cc::GlobalExplainer ex(model, corpus_blocks());
  const auto e = ex.explain_range(9.0, 11.0);
  EXPECT_TRUE(e.met_threshold);
  EXPECT_DOUBLE_EQ(e.precision, 1.0);
  // Either the div opcode or the IntDiv class pins the behaviour (the
  // generator only emits `div` from that class, so both are correct).
  ASSERT_EQ(e.features.size(), 1u);
  const bool by_opcode =
      e.features[0] ==
          cc::GlobalFeature(cc::GlobalFeature::HasOpcode{cx::Opcode::DIV}) ||
      e.features[0] ==
          cc::GlobalFeature(cc::GlobalFeature::HasOpcode{cx::Opcode::IDIV});
  const bool by_class =
      e.features[0] ==
      cc::GlobalFeature(cc::GlobalFeature::HasOpClass{cx::OpClass::IntDiv});
  EXPECT_TRUE(by_opcode || by_class) << e.to_string();
}

TEST(GlobalExplainer, RecoversRawDependency) {
  const RawKeyedModel model;
  cc::GlobalExplainer ex(model, corpus_blocks());
  const auto e = ex.explain_range(4.5, 5.5);
  EXPECT_TRUE(e.met_threshold);
  ASSERT_EQ(e.features.size(), 1u);
  EXPECT_EQ(e.features[0],
            cc::GlobalFeature(cc::GlobalFeature::HasDepKind{cg::DepKind::RAW}))
      << e.to_string();
}

TEST(GlobalExplainer, ComplementRangeAlsoExplainable) {
  // T = {1} for M1: blocks NOT having 8 instructions. No positive feature
  // can pin "eta != 8" exactly, but precision should still be high because
  // most eta values other than 8 imply prediction 1.
  const CountKeyedModel m1(8);
  cc::GlobalExplainer ex(m1, corpus_blocks());
  const auto e = ex.explain_range(0.5, 1.5);
  EXPECT_GE(e.precision, 0.7);
}

TEST(GlobalExplainer, EmptyCorpusThrows) {
  const DivKeyedModel model;
  EXPECT_THROW(cc::GlobalExplainer(model, {}), std::invalid_argument);
}

TEST(GlobalExplainer, EmptyRangeThrows) {
  const DivKeyedModel model;
  cc::GlobalExplainer ex(model, corpus_blocks(100));
  EXPECT_THROW(ex.explain_range(100.0, 200.0), std::invalid_argument);
}

TEST(GlobalExplainer, PredictionsAlignWithCorpus) {
  const DivKeyedModel model;
  const auto blocks = corpus_blocks(50);
  cc::GlobalExplainer ex(model, blocks);
  ASSERT_EQ(ex.predictions().size(), blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_DOUBLE_EQ(ex.predictions()[i], model.predict(blocks[i]));
  }
}

TEST(GlobalExplainer, ConjunctionSizeRespectsMaxSize) {
  // A model keyed on a conjunction (a div in an 8-instruction block) needs
  // a pair; no explanation ever has more than two features.
  const ConjunctionKeyedModel model;
  cc::GlobalExplainer ex(model, corpus_blocks());
  const auto e = ex.explain_range(2.5, 3.5);
  EXPECT_EQ(e.features.size(), 2u) << e.to_string();
  EXPECT_DOUBLE_EQ(e.precision, 1.0);
  for (const auto& [lo, hi] : {std::pair{0.5, 1.5}, std::pair{0.5, 3.5}}) {
    EXPECT_LE(ex.explain_range(lo, hi).features.size(), 2u);
  }
}

TEST(GlobalExplainer, DeterministicAcrossCalls) {
  const RawKeyedModel model;
  cc::GlobalExplainer ex(model, corpus_blocks(150));
  const auto a = ex.explain_range(4.5, 5.5);
  const auto b = ex.explain_range(4.5, 5.5);
  EXPECT_EQ(a.features, b.features);
  EXPECT_DOUBLE_EQ(a.precision, b.precision);
  EXPECT_DOUBLE_EQ(a.recall, b.recall);
}

TEST(GlobalExplainer, ReportsSupport) {
  const CountKeyedModel m1(6);
  const auto blocks = corpus_blocks();
  cc::GlobalExplainer ex(m1, blocks);
  const auto e = ex.explain_range(1.5, 2.5);
  const std::size_t n6 = std::count_if(
      blocks.begin(), blocks.end(),
      [](const auto& b) { return b.size() == 6; });
  EXPECT_EQ(e.support, n6);
}
