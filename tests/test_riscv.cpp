// Tests for the RISC-V port (paper Section 7): catalog and format-based
// replacement sets, ABI/architectural register parsing, the x0 hardwired
// zero (the port's instance-specific challenge), dependency extraction,
// the mapped perturbation algorithm Γ, the analytical cost model's exact
// ground truth, and end-to-end explanation accuracy of the ported engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "riscv/cost.h"
#include "riscv/explain.h"
#include "riscv/generator.h"
#include "riscv/parser.h"
#include "riscv/perturb.h"
#include "util/rng.h"

namespace rv = comet::riscv;
using comet::util::Rng;

// ---------- catalog / registers ----------

TEST(Riscv, MnemonicRoundTrip) {
  for (const rv::Opcode op : rv::all_opcodes()) {
    const auto parsed = rv::parse_opcode(rv::mnemonic(op));
    ASSERT_TRUE(parsed.has_value()) << rv::mnemonic(op);
    EXPECT_EQ(*parsed, op);
  }
}

TEST(Riscv, ReplacementSetsAreFormatClosed) {
  for (const rv::Opcode op : rv::all_opcodes()) {
    for (const rv::Opcode r : rv::replacement_opcodes(op)) {
      EXPECT_NE(r, op);
      EXPECT_EQ(rv::info(r).format, rv::info(op).format)
          << rv::mnemonic(op) << " -> " << rv::mnemonic(r);
    }
  }
}

TEST(Riscv, DivReplaceableByMulButNotByLoad) {
  const auto repl = rv::replacement_opcodes(rv::Opcode::DIV);
  EXPECT_NE(std::find(repl.begin(), repl.end(), rv::Opcode::MUL), repl.end());
  EXPECT_NE(std::find(repl.begin(), repl.end(), rv::Opcode::ADD), repl.end());
  EXPECT_EQ(std::find(repl.begin(), repl.end(), rv::Opcode::LD), repl.end());
}

TEST(Riscv, RegisterNamesAbiAndArchitectural) {
  EXPECT_EQ(rv::parse_reg("a0")->index, 10);
  EXPECT_EQ(rv::parse_reg("sp")->index, 2);
  EXPECT_EQ(rv::parse_reg("fp")->index, 8);  // alias of s0
  EXPECT_EQ(rv::parse_reg("s0")->index, 8);
  EXPECT_EQ(rv::parse_reg("x17")->index, 17);
  EXPECT_EQ(rv::parse_reg("zero")->index, 0);
  EXPECT_FALSE(rv::parse_reg("x32").has_value());
  EXPECT_FALSE(rv::parse_reg("q7").has_value());
}

// ---------- parser ----------

TEST(Riscv, ParseAllFormats) {
  const auto r = rv::parse_instruction("add a0, a1, a2");
  EXPECT_EQ(r.opcode, rv::Opcode::ADD);
  EXPECT_EQ(r.rd.index, 10);
  EXPECT_EQ(r.rs2.index, 12);

  const auto i = rv::parse_instruction("addi t0, t1, -4");
  EXPECT_EQ(i.imm, -4);

  const auto u = rv::parse_instruction("lui a0, 4096");
  EXPECT_EQ(u.imm, 4096);

  const auto ld = rv::parse_instruction("ld a0, 8(sp)");
  EXPECT_EQ(ld.rs1.index, 2);
  EXPECT_EQ(ld.imm, 8);

  const auto sd = rv::parse_instruction("sd a1, 0(a0)");
  EXPECT_EQ(sd.rs2.index, 11);
  EXPECT_EQ(sd.rs1.index, 10);
}

TEST(Riscv, ParseRejectsMalformed) {
  EXPECT_THROW(rv::parse_instruction("add a0, a1"), rv::ParseError);
  EXPECT_THROW(rv::parse_instruction("bogus a0, a1, a2"), rv::ParseError);
  EXPECT_THROW(rv::parse_instruction("addi a0, a1, 99999"), rv::ParseError);
  EXPECT_THROW(rv::parse_instruction("slli a0, a1, 64"), rv::ParseError);
  EXPECT_THROW(rv::parse_instruction("ld a0, 8[sp]"), rv::ParseError);
}

TEST(Riscv, ParseBlockSkipsCommentsAndBlanks) {
  const auto block = rv::parse_block(R"(
    # prologue
    add a0, a1, a2
    ld a3, 16(sp)   ; load
  )");
  ASSERT_EQ(block.size(), 2u);
}

TEST(Riscv, PrintParseRoundTripOverCorpus) {
  for (const auto& block : rv::generate_corpus(40, 11)) {
    EXPECT_EQ(rv::parse_block(block.to_string()), block) << block.to_string();
  }
}

// ---------- x0 semantics (the instance-specific challenge) ----------

// Parse-boundary hardening (fuzz_riscv_parser corpus). The overflow cases
// are a fixed bug: immediates used to go through strtoll, which silently
// clamps out-of-range values to LLONG_MAX instead of rejecting them.
TEST(Riscv, ParserRejectsAdversarialImmediates) {
  EXPECT_THROW(rv::parse_instruction("addi t0, t1, 99999999999999999999999"),
               rv::ParseError);
  EXPECT_THROW(rv::parse_instruction("lw x1, 99999999999999999999999(x2)"),
               rv::ParseError);
  EXPECT_THROW(rv::parse_instruction("addi t0, t1, 0x"), rv::ParseError);
  EXPECT_THROW(rv::parse_instruction("addi t0, t1, 12junk"), rv::ParseError);
  EXPECT_THROW(rv::parse_instruction("addi t0, t1,"), rv::ParseError);
  EXPECT_THROW(rv::parse_instruction("lw x1, 8(x2"), rv::ParseError);
}

TEST(Riscv, ParserAcceptsHexAndNegativeImmediates) {
  EXPECT_EQ(rv::parse_instruction("addi t0, t1, 0x10").imm, 16);
  EXPECT_EQ(rv::parse_instruction("addi t0, t1, -8").imm, -8);
}

TEST(Riscv, ZeroRegisterCarriesNoDependency) {
  // add zero, a0, a1 writes x0 => architecturally discarded.
  const auto s = rv::semantics(rv::parse_instruction("add zero, a0, a1"));
  EXPECT_FALSE(s.write.has_value());
  // addi a0, zero, 1 reads x0 => no dependency-carrying read.
  const auto s2 = rv::semantics(rv::parse_instruction("addi a0, zero, 1"));
  EXPECT_TRUE(s2.reads.empty());
  EXPECT_TRUE(s2.write.has_value());
}

TEST(Riscv, NoEdgesThroughZeroRegister) {
  const auto block = rv::parse_block(R"(
    add zero, a0, a1
    addi a2, zero, 5
  )");
  EXPECT_TRUE(rv::DepGraph::build(block).edges().empty());
}

// ---------- dependency graph ----------

TEST(Riscv, RawWarWawDetection) {
  const auto block = rv::parse_block(R"(
    add a0, a1, a2
    sub a3, a0, a1
    add a1, a4, a5
    add a0, a4, a5
  )");
  const auto g = rv::DepGraph::build(block);
  EXPECT_TRUE(g.has_edge(0, 1, rv::DepKind::RAW));  // a0 produced by 0
  // nearest_only links the write of a1 (inst 2) to the *nearest* earlier
  // reader, which is inst 1.
  EXPECT_TRUE(g.has_edge(1, 2, rv::DepKind::WAR));
  EXPECT_FALSE(g.has_edge(0, 2, rv::DepKind::WAR));
  EXPECT_TRUE(g.has_edge(0, 3, rv::DepKind::WAW));  // a0 rewritten by 3
}

TEST(Riscv, MemoryHazardSameLocationOnly) {
  const auto block = rv::parse_block(R"(
    sd a0, 8(sp)
    ld a1, 8(sp)
    ld a2, 16(sp)
  )");
  const auto g = rv::DepGraph::build(block);
  EXPECT_TRUE(g.has_edge(0, 1, rv::DepKind::RAW));
  EXPECT_FALSE(g.has_edge(0, 2, rv::DepKind::RAW));
}

TEST(Riscv, StoreAfterLoadIsWar) {
  const auto block = rv::parse_block(R"(
    ld a1, 8(sp)
    sd a0, 8(sp)
  )");
  EXPECT_TRUE(rv::DepGraph::build(block).has_edge(0, 1, rv::DepKind::WAR));
}

TEST(Riscv, FeatureExtractionCountsAllTypes) {
  const auto block = rv::parse_block(R"(
    add a0, a1, a2
    sub a3, a0, a1
  )");
  const auto fs = rv::extract_features(block);
  // 2 inst features + 1 RAW + 1 eta.
  EXPECT_EQ(fs.size(), 4u);
}

// ---------- perturbation algorithm Γ ----------

class RvPerturbProperty : public ::testing::TestWithParam<int> {};

TEST_P(RvPerturbProperty, SamplesAreValidAndPreserveFeatures) {
  Rng gen_rng(1000 + GetParam());
  const auto block = rv::generate_block(gen_rng);
  const rv::RvPerturber perturber(block);
  Rng rng(GetParam());
  const auto all = rv::extract_features(block);

  for (int k = 0; k < 40; ++k) {
    // Random preserve subset.
    rv::RvFeatureSet preserve;
    for (const auto& f : all.items()) {
      if (rng.uniform() < 0.4) preserve.insert(f);
    }
    const auto pb = perturber.sample(preserve, rng);
    EXPECT_TRUE(rv::is_valid(pb.block))
        << block.to_string() << "->\n" << pb.block.to_string();
    EXPECT_TRUE(perturber.contains(pb, preserve))
        << block.to_string() << "->\n" << pb.block.to_string() << "preserve "
        << preserve.to_string();
  }
}

TEST_P(RvPerturbProperty, MonotonicSpaceSize) {
  Rng gen_rng(2000 + GetParam());
  const auto block = rv::generate_block(gen_rng);
  const rv::RvPerturber perturber(block);
  Rng rng(GetParam() * 7 + 1);
  const auto all = rv::extract_features(block);
  rv::RvFeatureSet f2;
  for (const auto& f : all.items()) {
    if (rng.uniform() < 0.5) f2.insert(f);
  }
  rv::RvFeatureSet f1;
  for (const auto& f : f2.items()) {
    if (rng.uniform() < 0.5) f1.insert(f);
  }
  EXPECT_GE(perturber.log10_space_size(f1) + 1e-9,
            perturber.log10_space_size(f2));
}

INSTANTIATE_TEST_SUITE_P(Corpus, RvPerturbProperty, ::testing::Range(0, 12));

TEST(RiscvPerturb, EtaPreservationForbidsDeletion) {
  Rng gen_rng(3);
  const auto block = rv::generate_block(gen_rng);
  const rv::RvPerturber perturber(block);
  Rng rng(4);
  rv::RvFeatureSet preserve;
  preserve.insert(rv::RvFeature(rv::RvNumInstsFeature{block.size()}));
  for (int k = 0; k < 50; ++k) {
    EXPECT_EQ(perturber.sample(preserve, rng).block.size(), block.size());
  }
}

// contains() must answer no as well as yes. Over Γ(∅) samples, each Inst,
// Dep and η feature of the original is checked alone against a reference
// read off the sample itself (its own dependency graph, position map and
// opcodes), and the whole vocabulary against the conjunction of those.
TEST(RiscvPerturb, ContainsMatchesTheSampleGraph) {
  constexpr std::size_t npos = rv::RvPerturbedBlock::npos;
  // outcomes[type][held]: type 0 = Inst, 1 = Dep, 2 = η.
  std::size_t outcomes[3][2] = {};
  for (int b = 0; b < 12; ++b) {
    Rng gen_rng(4000 + b);
    const auto block = rv::generate_block(gen_rng);
    const rv::RvPerturber perturber(block);
    const auto all = rv::extract_features(block);
    Rng rng(b);
    for (int k = 0; k < 20; ++k) {
      const auto pb = perturber.sample({}, rng);
      const auto graph = rv::DepGraph::build(pb.block);
      bool all_held = true;
      for (const auto& f : all.items()) {
        bool held = false;
        std::size_t type = 0;
        if (f.is_num_insts()) {
          type = 2;
          held = pb.block.size() == f.as_num_insts().count;
        } else if (f.is_inst()) {
          const std::size_t pos = pb.position_of(f.as_inst().index);
          held = pos != npos &&
                 pb.block.instructions[pos].opcode == f.as_inst().opcode;
        } else {
          type = 1;
          const auto& d = f.as_dep();
          const std::size_t from = pb.position_of(d.from);
          const std::size_t to = pb.position_of(d.to);
          held = from != npos && to != npos &&
                 graph.has_edge(from, to, d.kind);
        }
        rv::RvFeatureSet one;
        one.insert(f);
        EXPECT_EQ(held, perturber.contains(pb, one))
            << f.to_string() << " in\n" << block.to_string() << "->\n"
            << pb.block.to_string();
        ++outcomes[type][held];
        all_held = all_held && held;
      }
      EXPECT_EQ(all_held, perturber.contains(pb, all));
    }
  }
  for (std::size_t type = 0; type < 3; ++type) {
    EXPECT_GT(outcomes[type][0], 0u) << "type " << type << " never lost";
    EXPECT_GT(outcomes[type][1], 0u) << "type " << type << " never held";
  }
}

TEST(RiscvPerturb, UnconstrainedSamplingActuallyPerturbs) {
  Rng gen_rng(5);
  const auto block = rv::generate_block(gen_rng);
  const rv::RvPerturber perturber(block);
  Rng rng(6);
  std::size_t changed = 0;
  for (int k = 0; k < 50; ++k) {
    changed += perturber.sample({}, rng).block != block;
  }
  EXPECT_GT(changed, 30u);
}

// ---------- analytical cost model ----------

TEST(RiscvCost, DivDominates) {
  const rv::RvCostModel model;
  const auto block = rv::parse_block("div a0, a1, a2\nadd a3, a4, a5");
  EXPECT_DOUBLE_EQ(model.predict(block), 20.0);
  const auto gt = model.ground_truth(block);
  ASSERT_EQ(gt.size(), 1u);
  EXPECT_TRUE(gt.items()[0].is_inst());
  EXPECT_EQ(gt.items()[0].as_inst().opcode, rv::Opcode::DIV);
}

TEST(RiscvCost, RawChainBeatsSingleCosts) {
  const rv::RvCostModel model;
  // mul (3) feeding mul (3): RAW cost 6 > any single cost and > eta/2.
  const auto block = rv::parse_block("mul a0, a1, a2\nmul a3, a0, a4");
  EXPECT_DOUBLE_EQ(model.predict(block), 6.0);
  const auto gt = model.ground_truth(block);
  ASSERT_EQ(gt.size(), 1u);
  EXPECT_TRUE(gt.items()[0].is_dep());
}

TEST(RiscvCost, IssueBoundForWideCheapBlocks) {
  const rv::RvCostModel model;
  // 8 independent ALU ops: eta/2 = 4 > alu cost 0.5.
  rv::BasicBlock block;
  for (int i = 0; i < 8; ++i) {
    block.instructions.push_back(
        rv::parse_instruction("addi a" + std::to_string(i % 6) + ", zero, 1"));
  }
  EXPECT_DOUBLE_EQ(model.predict(block), 4.0);
  const auto gt = model.ground_truth(block);
  ASSERT_EQ(gt.size(), 1u);
  EXPECT_TRUE(gt.items()[0].is_num_insts());
}

TEST(RiscvCost, WarWawAreFree) {
  const rv::RvCostModel model;
  const auto block = rv::parse_block("add a0, a1, a2\nadd a0, a3, a4");
  // WAW between them contributes 0; block cost = eta/2 = 1.
  EXPECT_DOUBLE_EQ(model.predict(block), 1.0);
}

// ---------- end-to-end explanation accuracy ----------

namespace {

bool rv_accurate(const rv::RvFeatureSet& expl, const rv::RvFeatureSet& gt) {
  if (expl.empty()) return false;
  for (const auto& f : expl.items()) {
    if (!gt.contains(f)) return false;
  }
  return true;
}

}  // namespace

TEST(RiscvExplain, AccuracyAgainstAnalyticalGroundTruth) {
  // The Table 2 criterion, ported. Two metrics:
  //  * strict (the paper's): name at least one GT feature and nothing
  //    outside GT;
  //  * loose: name at least one GT feature.
  // Strict accuracy on RISC-V sits well below the x86 version's ~97%: the
  // paper's replacement rule ("opcodes that can accept the original
  // operands") maps to format equality here, so any R-type ALU op can
  // perturb into a 20-cycle divide — coarse anchors lose precision under
  // that wild cost distribution and the search compensates with extra
  // instruction features (supersets of GT count as strict misses). This is
  // one of the "instance-specific challenges" Section 7 predicts; see
  // bench_ext_riscv for the measured comparison.
  const rv::RvCostModel model;
  rv::RvExplainOptions opts;
  opts.coverage_samples = 800;
  opts.max_pulls_per_level = 320;
  const rv::RvExplainer explainer(model, opts);

  const auto corpus = rv::generate_corpus(40, 77);
  std::size_t strict = 0, loose = 0;
  for (const auto& block : corpus) {
    const auto e = explainer.explain(block);
    const auto gt = model.ground_truth(block);
    strict += rv_accurate(e.features, gt);
    loose += std::any_of(e.features.items().begin(), e.features.items().end(),
                         [&](const auto& f) { return gt.contains(f); });
  }
  EXPECT_GE(double(strict) / double(corpus.size()), 0.6)
      << strict << "/" << corpus.size();
  EXPECT_GE(double(loose) / double(corpus.size()), 0.85)
      << loose << "/" << corpus.size();
}

TEST(RiscvExplain, ExplainsDivChain) {
  const rv::RvCostModel model;
  const rv::RvExplainer explainer(model, {});
  const auto block = rv::parse_block(R"(
    add a0, a1, a2
    div a3, a0, a4
    addi a5, a3, 1
  )");
  const auto e = explainer.explain(block);
  // GT is the div->addi RAW chain? cost: div 20, RAW(div,addi)=20.5 — the
  // chain wins. COMET must name only GT features.
  const auto gt = model.ground_truth(block);
  EXPECT_TRUE(rv_accurate(e.features, gt))
      << e.features.to_string() << " vs GT " << gt.to_string();
}

TEST(RiscvExplain, ReportsQueriesAndProbabilities) {
  const rv::RvCostModel model;
  const rv::RvExplainer explainer(model, {});
  Rng gen_rng(9);
  const auto block = rv::generate_block(gen_rng);
  const auto e = explainer.explain(block);
  EXPECT_GT(e.model_queries, 0u);
  EXPECT_GE(e.precision, 0.0);
  EXPECT_LE(e.precision, 1.0);
  EXPECT_GE(e.coverage, 0.0);
  EXPECT_LE(e.coverage, 1.0);
}
