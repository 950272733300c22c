// Tests for the unified, ISA-generic anchor engine: golden-seed parity with
// the pre-refactor x86 engine, the invariant that every engine-issued
// model query flows through the query broker's batch path, and the open
// ε-ball (a sample exactly ε away from M(β) is a miss).
#include <gtest/gtest.h>

#include <span>

#include "core/comet.h"
#include "cost/crude_model.h"
#include "riscv/cost.h"
#include "riscv/explain.h"
#include "riscv/parser.h"
#include "x86/parser.h"

namespace cc = comet::core;
namespace cg = comet::graph;
namespace ck = comet::cost;
namespace cx = comet::x86;
namespace rv = comet::riscv;

namespace {

// The controlled model of the original engine tests: cost depends on
// exactly one feature, presence of a div.
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

// Flags any single-predict query and counts batch traffic, to verify the
// engine's query discipline end to end.
class BatchAuditModel final : public ck::CostModel {
 public:
  double predict(const cx::BasicBlock&) const override {
    ++single_queries;
    return 1.0;
  }
  void predict_batch(std::span<const cx::BasicBlock> blocks,
                     std::span<double> out) const override {
    ++batch_calls;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      double v = 1.0;
      for (const auto& inst : blocks[i].instructions) {
        if (inst.opcode == cx::Opcode::DIV) v = 20.0;
      }
      out[i] = v;
    }
  }
  std::string name() const override { return "batch-audit"; }

  mutable std::size_t single_queries = 0;
  mutable std::size_t batch_calls = 0;
};

// --- a minimal, fully controllable instantiation of the generic engine ---
// One feature, a text-keyed stub model, and a perturber whose empty-sample
// rate and hit rate are dialed in directly. This is what lets the tests pin
// down the engine's precision accounting and its KL-lower-bound acceptance
// gate without depending on x86 perturbation statistics.

struct StubBlock {
  std::string text;
  bool empty() const { return text.empty(); }
  std::string to_string() const { return text; }
};

// The broker's memo key of a stub block is its text.
void append_memo_key(const StubBlock& block, std::string& out) {
  out += block.text;
}

struct StubFeature {
  int id = 0;
  bool operator==(const StubFeature&) const = default;
};

struct StubFeatureSet {
  std::vector<StubFeature> feats;
  bool operator==(const StubFeatureSet&) const = default;
  const std::vector<StubFeature>& items() const { return feats; }
  bool contains(const StubFeature& f) const {
    for (const auto& x : feats) {
      if (x == f) return true;
    }
    return false;
  }
  StubFeatureSet with(const StubFeature& f) const {
    StubFeatureSet out = *this;
    if (!contains(f)) out.feats.push_back(f);
    return out;
  }
};

struct StubPerturbed {
  StubBlock block;
};

// Every `empty_stride`-th sample comes back empty (a perturbation with no
// surviving instructions); the rest are unique non-empty blocks.
struct StubPerturber {
  std::size_t empty_stride;
  StubPerturbed sample(const StubFeatureSet&, comet::util::Rng& rng) const {
    const std::uint64_t n = rng.next_u64();
    if (empty_stride != 0 && n % empty_stride == 0) return {StubBlock{}};
    // Two-step append: GCC 12's -Wrestrict false-fires on the temporary
    // from `"p" + std::to_string(n)` (PR105651).
    std::string text = "p";
    text += std::to_string(n);
    return {StubBlock{std::move(text)}};
  }
  bool contains(const StubPerturbed& alpha, const StubFeatureSet&) const {
    return !alpha.block.empty();
  }
};

// Deterministic text-keyed stub: a block is a "hit" (prediction == base)
// when its hash lands under hit_percent; misses land far outside epsilon.
struct StubModel {
  int hit_percent = 100;
  double predict(const StubBlock& block) const {
    if (block.text == "base") return 1.0;
    const std::uint64_t h = comet::util::fnv1a64(block.text.c_str());
    return (h % 100) < static_cast<std::uint64_t>(hit_percent) ? 1.0 : 50.0;
  }
  void predict_batch(std::span<const StubBlock> blocks,
                     std::span<double> out) const {
    for (std::size_t i = 0; i < blocks.size(); ++i) out[i] = predict(blocks[i]);
  }
  std::string name() const { return "stub"; }
};

struct StubOptions : cc::AnchorSearchOptions {
  std::size_t empty_stride = 0;
};

struct StubExplanation {
  StubFeatureSet features;
  double precision = 0.0;
  double coverage = 0.0;
  bool met_threshold = false;
  std::size_t model_queries = 0;
  ck::QueryStats query_stats;
};

struct StubTraits {
  using Block = StubBlock;
  using Feature = StubFeature;
  using FeatureSet = StubFeatureSet;
  using Perturber = StubPerturber;
  using PerturbedBlock = StubPerturbed;
  using Model = StubModel;
  using Options = StubOptions;
  using Explanation = StubExplanation;
  static FeatureSet extract_features(const Block&, const Options&) {
    return FeatureSet{{StubFeature{1}}};
  }
  static Perturber make_perturber(const Block&, const Options& options) {
    return Perturber{options.empty_stride};
  }
};

// Predicts 2.0 for the target block and 2.0 + offset for every sample, so
// each sample sits at a chosen, exactly representable distance from M(β).
struct OffsetModel {
  double offset = 0.0;
  double predict(const StubBlock& block) const {
    return block.text == "base" ? 2.0 : 2.0 + offset;
  }
  void predict_batch(std::span<const StubBlock> blocks,
                     std::span<double> out) const {
    for (std::size_t i = 0; i < blocks.size(); ++i) out[i] = predict(blocks[i]);
  }
  std::string name() const { return "offset"; }
};

struct OffsetTraits : StubTraits {
  using Model = OffsetModel;
};

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

}  // namespace

// ---------- golden-seed parity with the pre-refactor engine ----------

// Recorded from the monolithic pre-refactor CometExplainer::explain at this
// exact seed/options/block: the redesigned engine must be a drop-in — same
// anchor, same threshold outcome, same precision/coverage estimates, and
// the same requested-query count (the refactor batches queries, it must not
// add or remove any).
TEST(AnchorEngine, GoldenSeedParityWithPreRefactorEngine) {
  const DivOnlyModel model;
  const cc::CometExplainer explainer(model, golden_options());
  const auto expl = explainer.explain(golden_block());

  cg::FeatureSet expected;
  expected.insert(cg::Feature(cg::InstFeature{1, cx::Opcode::DIV}));
  EXPECT_EQ(expl.features, expected) << expl.features.to_string();
  EXPECT_TRUE(expl.met_threshold);
  EXPECT_DOUBLE_EQ(expl.precision, 1.0);
  EXPECT_NEAR(expl.coverage, 0.6333333333333333, 1e-12);
  EXPECT_EQ(expl.model_queries, 1933u);
}

// ---------- all engine queries are batched through the broker ----------

TEST(AnchorEngine, AllQueriesFlowThroughBatchedBroker) {
  const BatchAuditModel model;
  cc::CometOptions opt = golden_options();
  const cc::CometExplainer explainer(model, opt);
  const auto expl = explainer.explain(golden_block());

  // The model never saw a single-predict call, only batches...
  EXPECT_EQ(model.single_queries, 0u);
  EXPECT_GT(model.batch_calls, 0u);
  // ...and the broker's ledger agrees, with memoization absorbing part of
  // the requested volume.
  EXPECT_EQ(expl.query_stats.batch_calls, model.batch_calls);
  EXPECT_GT(expl.query_stats.requested, 0u);
  EXPECT_GT(expl.query_stats.cache_hits, 0u);
  EXPECT_EQ(expl.query_stats.evaluated,
            expl.query_stats.requested - expl.query_stats.cache_hits);
  // Requested broker traffic can never exceed the engine's query count
  // (which also charges for empty perturbations that skip the model).
  EXPECT_LE(expl.query_stats.requested, expl.model_queries);
}

TEST(AnchorEngine, RiscvInstantiationUsesTheSameBrokerDiscipline) {
  const rv::RvCostModel model;
  const rv::RvExplainer explainer(model, {});
  const auto e = explainer.explain(rv::parse_block(R"(
    add a0, a1, a2
    div a3, a0, a4
    addi a5, a3, 1
  )"));
  EXPECT_GT(e.query_stats.batch_calls, 0u);
  EXPECT_GT(e.query_stats.cache_hits, 0u);
  EXPECT_LE(e.query_stats.evaluated, e.query_stats.requested);
}

// ---------- precision accounting with empty perturbations ----------

// Regression: estimate_precision used to keep empty perturbations in the
// denominator while skipping them in the batch, biasing Prec(F) down on
// blocks whose perturber emits empties — and disagreeing with the search's
// arm scoring, which only counts evaluated samples. With a model that is
// always within epsilon, precision must be exactly 1.0 no matter how many
// samples came back empty.
TEST(AnchorEngine, EstimatePrecisionIgnoresEmptyPerturbations) {
  const StubModel model;  // hit_percent = 100: every prediction == base
  StubOptions opt;
  opt.empty_stride = 2;  // roughly half of all perturbations are empty
  const cc::AnchorEngine<StubTraits> engine(model, opt);
  const StubBlock block{"base"};
  comet::util::Rng rng(9);
  const double prec =
      engine.estimate_precision(block, StubFeatureSet{}, 400, rng);
  EXPECT_DOUBLE_EQ(prec, 1.0);
}

// ---------- the ε boundary ----------

// Hits are |M(α) − M(β)| < ε, strictly: a sample exactly ε away, above or
// below, is a miss in the search's arm scoring and in estimate_precision
// alike. The explanation goldens were recorded with this rule.
TEST(AnchorEngine, SampleExactlyEpsilonAwayIsAMiss) {
  StubOptions opt;
  opt.epsilon = 0.5;
  opt.coverage_samples = 50;
  opt.seed = 4;
  const StubBlock block{"base"};
  for (const double offset : {0.5, -0.5}) {
    SCOPED_TRACE(offset);
    const OffsetModel model{offset};
    const cc::AnchorEngine<OffsetTraits> engine(model, opt);
    comet::util::Rng rng(9);
    EXPECT_DOUBLE_EQ(
        engine.estimate_precision(block, StubFeatureSet{}, 200, rng), 0.0);
    const auto e = engine.explain(block);
    EXPECT_FALSE(e.met_threshold);
    EXPECT_DOUBLE_EQ(e.precision, 0.0);
  }
  // Inside the ball every sample hits.
  const OffsetModel inside{0.375};
  const cc::AnchorEngine<OffsetTraits> engine(inside, opt);
  comet::util::Rng rng(9);
  EXPECT_DOUBLE_EQ(
      engine.estimate_precision(block, StubFeatureSet{}, 200, rng), 1.0);
  const auto e = engine.explain(block);
  EXPECT_TRUE(e.met_threshold);
  EXPECT_DOUBLE_EQ(e.precision, 1.0);
}

// ---------- the KL-lower-bound acceptance gate ----------

// With a positive final_precision_samples budget, an anchor whose raw mean
// clears the threshold but whose KL lower bound cannot (true hit rate ~0.70
// == the threshold: at 200 pulls the LB sits well below it) must be
// REJECTED even though its early 12-pull mean spiked to 0.917.
// Before the fix, "lb_ok || mean >= threshold" accepted it — the lower
// bound could never fire because kl_lower_bound(mean, ...) <= mean.
TEST(AnchorEngine, KlLowerBoundGateRejectsUnverifiableAnchors) {
  StubModel model;
  model.hit_percent = 70;
  StubOptions opt;
  opt.delta = 0.3;  // threshold 0.7
  opt.final_precision_samples = 200;
  opt.coverage_samples = 50;
  opt.seed = 8;
  const cc::AnchorEngine<StubTraits> engine(model, opt);
  const auto e = engine.explain(StubBlock{"base"});
  EXPECT_FALSE(e.met_threshold);
  // The best-effort candidate still reports its (unverified) precision.
  EXPECT_GE(e.precision, 0.7);
}

// A zero budget disables verification: the same anchor is accepted on its
// raw mean (the historical rule RvExplainOptions pins).
TEST(AnchorEngine, ZeroFirmUpBudgetFallsBackToMeanOnlyRule) {
  StubModel model;
  model.hit_percent = 70;
  StubOptions opt;
  opt.delta = 0.3;
  opt.final_precision_samples = 0;
  opt.coverage_samples = 50;
  opt.seed = 8;
  const cc::AnchorEngine<StubTraits> engine(model, opt);
  const auto e = engine.explain(StubBlock{"base"});
  EXPECT_TRUE(e.met_threshold);
  EXPECT_GE(e.precision, 0.7);
}

// A clean anchor (hit rate 1.0) must still pass the gate with room to
// spare: the LB of a run of pure hits clears 0.7 after a handful of pulls.
TEST(AnchorEngine, KlLowerBoundGateAcceptsCleanAnchors) {
  const StubModel model;  // 100% hits
  StubOptions opt;
  opt.delta = 0.3;
  opt.final_precision_samples = 200;
  opt.coverage_samples = 50;
  opt.seed = 3;
  const cc::AnchorEngine<StubTraits> engine(model, opt);
  const auto e = engine.explain(StubBlock{"base"});
  EXPECT_TRUE(e.met_threshold);
  EXPECT_DOUBLE_EQ(e.precision, 1.0);
}

// ---------- estimator parity across the shared engine ----------

TEST(AnchorEngine, RvEstimatorsAreExposedAndBounded) {
  const rv::RvCostModel model;
  const rv::RvExplainer explainer(model, {});
  const auto block = rv::parse_block("add a0, a1, a2\nmul a3, a0, a4");
  const auto vocab = rv::extract_features(block);
  ASSERT_FALSE(vocab.empty());
  rv::RvFeatureSet fs;
  fs.insert(vocab.items().front());
  comet::util::Rng rng(3);
  const double prec = explainer.estimate_precision(block, fs, 200, rng);
  const double cov = explainer.estimate_coverage(block, fs, 200, rng);
  EXPECT_GE(prec, 0.0);
  EXPECT_LE(prec, 1.0);
  EXPECT_GE(cov, 0.0);
  EXPECT_LE(cov, 1.0);
}

// ---------- the explainers own their options ----------

namespace {

template <typename Explanation>
void expect_same_explanation(const Explanation& a, const Explanation& b) {
  EXPECT_EQ(a.features, b.features)
      << a.features.to_string() << " vs " << b.features.to_string();
  EXPECT_EQ(a.precision, b.precision);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.met_threshold, b.met_threshold);
  EXPECT_EQ(a.model_queries, b.model_queries);
  EXPECT_EQ(a.query_stats, b.query_stats);
}

}  // namespace

// Each explainer is built from a temporary options object that is gone
// before explain() runs; an engine that kept a reference to it would read
// freed stack (the --asan job reports that) or explain with other options.
TEST(AnchorEngine, ExplainersOwnTheirOptions) {
  const ck::CrudeModel crude(ck::MicroArch::Haswell);
  const cc::CometOptions x86_named = golden_options();
  const cc::CometExplainer x86_owning(crude, golden_options());
  expect_same_explanation(
      x86_owning.explain(golden_block()),
      cc::CometExplainer(crude, x86_named).explain(golden_block()));

  const auto rv_options = [] {
    rv::RvExplainOptions opt;
    opt.coverage_samples = 200;
    opt.seed = 23;
    return opt;
  };
  const auto rv_block = rv::parse_block("add a0, a1, a2\ndiv a3, a0, a4");
  const rv::RvCostModel rv_model;
  const rv::RvExplainOptions rv_named = rv_options();
  const rv::RvExplainer rv_owning(rv_model, rv_options());
  expect_same_explanation(rv_owning.explain(rv_block),
                          rv::RvExplainer(rv_model, rv_named).explain(rv_block));

  // One vocabulary: a dependency renders the same under both ISAs.
  EXPECT_EQ(cg::Feature(cg::DepFeature{0, 1, cg::DepKind::RAW}).to_string(),
            "RAW(1->2)");
  EXPECT_EQ(
      rv::RvFeature(rv::RvDepFeature{0, 1, rv::DepKind::RAW}).to_string(),
      "RAW(1->2)");
}

// ---------- explanation rendering (fixed 3-decimal format) ----------

TEST(Explanation, ToStringUsesFixedThreeDecimalFormat) {
  cc::Explanation e;
  e.features.insert(cg::Feature(cg::NumInstsFeature{4}));
  e.precision = 0.7251;
  e.coverage = 1.0 / 3.0;
  const std::string s = e.to_string();
  EXPECT_NE(s.find("prec=0.725"), std::string::npos) << s;
  EXPECT_NE(s.find("cov=0.333"), std::string::npos) << s;
  EXPECT_EQ(s.find("0.725100"), std::string::npos) << s;
}
