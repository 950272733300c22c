// Tests for the RISC-V port (paper Section 7): catalog and format-based
// replacement sets, ABI/architectural register parsing, the x0 hardwired
// zero (the port's instance-specific challenge), dependency extraction,
// the mapped perturbation algorithm Γ, the analytical cost model's exact
// ground truth, and end-to-end explanation accuracy of the ported engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "riscv/cost.h"
#include "riscv/explain.h"
#include "riscv/generator.h"
#include "riscv/parser.h"
#include "riscv/perturb.h"
#include "util/contract.h"
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
  // The generator's fixed shape: 4-10 instructions whose registers are the
  // working set a0-a5, with sp as the only other memory base.
  const auto working = [](rv::Reg r) {
    return r.index >= 10 && r.index <= 15;  // a0..a5
  };
  const rv::Reg sp{2};
  for (const auto& block : rv::generate_corpus(40, 11)) {
    EXPECT_EQ(rv::parse_block(block.to_string()), block) << block.to_string();
    EXPECT_GE(block.size(), 4u);
    EXPECT_LE(block.size(), 10u);
    for (const auto& inst : block.instructions) {
      switch (rv::info(inst.opcode).format) {
        case rv::Format::R:
          EXPECT_TRUE(working(inst.rd) && working(inst.rs1) &&
                      working(inst.rs2))
              << inst.to_string();
          break;
        case rv::Format::I:
          EXPECT_TRUE(working(inst.rd) && working(inst.rs1))
              << inst.to_string();
          break;
        case rv::Format::U:
          EXPECT_TRUE(working(inst.rd)) << inst.to_string();
          break;
        case rv::Format::Load:
          EXPECT_TRUE(working(inst.rd) &&
                      (inst.rs1 == sp || working(inst.rs1)))
              << inst.to_string();
          break;
        case rv::Format::Store:
          EXPECT_TRUE(working(inst.rs2) &&
                      (inst.rs1 == sp || working(inst.rs1)))
              << inst.to_string();
          break;
      }
    }
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
  // The graph links the write of a1 (inst 2) to the *nearest* earlier
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

// The RISC-V twin of Perturb.SampleIntoSlotMatchesByValue: one slot,
// perturbers of decreasing block length, with and without preserved
// features; every slot sample equals the by-value one, and so does the RNG
// state after it.
TEST(RiscvPerturb, SampleIntoSlotMatchesByValue) {
  const rv::RvPerturber perturbers[] = {
      rv::RvPerturber(rv::parse_block(R"(
        add a0, a1, a2
        div a3, a0, a4
        addi a5, a3, 1
        ld a1, 8(sp)
        sd a5, 16(sp)
        mul a2, a1, a5
        lw a4, 16(sp)
      )")),
      rv::RvPerturber(rv::parse_block(R"(
        add a0, a1, a2
        sub a3, a0, a0
        lui a4, 5
      )")),
      rv::RvPerturber(rv::parse_block("addi a0, a0, 1")),
  };
  rv::RvPerturbedBlock slot;
  std::uint64_t seed = 90;
  for (const auto& p : perturbers) {
    // An instruction and, where the block has one, a dependency.
    const auto all = rv::extract_features(p.block());
    rv::RvFeatureSet preserved;
    preserved.insert(all.items().front());
    for (const auto& f : all.items()) {
      if (f.is_dep()) {
        preserved.insert(f);
        break;
      }
    }
    for (const rv::RvFeatureSet& fs : {rv::RvFeatureSet{}, preserved}) {
      SCOPED_TRACE(p.block().to_string() + fs.to_string());
      Rng by_value(seed);
      Rng into_slot(seed++);
      for (int i = 0; i < 100; ++i) {
        const rv::RvPerturbedBlock expected = p.sample(fs, by_value);
        p.sample(fs, into_slot, slot);
        EXPECT_EQ(slot.block, expected.block) << "sample " << i;
        EXPECT_EQ(slot.orig_index, expected.orig_index) << "sample " << i;
        Rng a = by_value;
        Rng b = into_slot;
        ASSERT_EQ(a.next_u64(), b.next_u64()) << "sample " << i;
      }
    }
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

// A short `out` span must be refused, not written past its end.
TEST(RiscvCost, PredictBatchChecksOutputSize) {
  const rv::RvCostModel model;
  const std::vector<rv::BasicBlock> blocks{
      rv::parse_block("add a0, a1, a2")};
  std::vector<double> out(2, -1.0);
  EXPECT_THROW(model.predict_batch(blocks, out),
               comet::util::ContractViolation);
  out.clear();
  EXPECT_THROW(model.predict_batch(blocks, out),
               comet::util::ContractViolation);
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

// ---------- memo key ----------

namespace {

std::string memo_key(const rv::BasicBlock& block) {
  std::string key;
  rv::append_memo_key(block, key);
  return key;
}

}  // namespace

// The RISC-V twin of MemoKey.EqualIffTextEqual: key equality must match
// text equality pairwise over generated targets and their Γ samples,
// unconstrained and keeping every feature.
TEST(RvMemoKey, EqualIffTextEqual) {
  const auto targets = rv::generate_corpus(32, 2026);
  Rng rng(2027);
  std::vector<rv::BasicBlock> blocks;
  for (const auto& target : targets) {
    // Half the samples keep the whole vocabulary, so blocks recur.
    const rv::RvPerturber p(target);
    const auto vocabulary = rv::extract_features(target);
    blocks.push_back(target);
    for (std::size_t s = 0; s < 32; ++s) {
      const rv::RvFeatureSet none;
      blocks.push_back(p.sample(s % 2 ? vocabulary : none, rng).block);
    }
  }
  std::vector<std::string> texts;
  std::vector<std::string> keys;
  for (const auto& b : blocks) {
    texts.push_back(b.to_string());
    keys.push_back(memo_key(b));
  }
  std::size_t equal_pairs = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    for (std::size_t j = i + 1; j < blocks.size(); ++j) {
      const bool same_text = texts[i] == texts[j];
      equal_pairs += same_text;
      ASSERT_EQ(keys[i] == keys[j], same_text) << texts[i] << "--\n"
                                               << texts[j];
    }
  }
  EXPECT_GT(equal_pairs, 100u);
}

// Each format's unused fields are not printed and leave the key alone; the
// printed ones change both.
TEST(RvMemoKey, IgnoresEachFormatsUnusedFields) {
  const auto inst = [](rv::Opcode op, std::uint8_t rd, std::uint8_t rs1,
                       std::uint8_t rs2, std::int64_t imm) {
    return rv::BasicBlock{{rv::Instruction{op, rv::Reg{rd}, rv::Reg{rs1},
                                           rv::Reg{rs2}, imm}}};
  };
  struct Case {
    const char* what;
    rv::BasicBlock a;
    rv::BasicBlock b;
    bool same;
  };
  const Case cases[] = {
      {"R: imm", inst(rv::Opcode::ADD, 10, 11, 12, 0),
       inst(rv::Opcode::ADD, 10, 11, 12, 7), true},
      {"R: rs2", inst(rv::Opcode::ADD, 10, 11, 12, 0),
       inst(rv::Opcode::ADD, 10, 11, 13, 0), false},
      {"I: rs2", inst(rv::Opcode::ADDI, 10, 11, 12, 4),
       inst(rv::Opcode::ADDI, 10, 11, 13, 4), true},
      {"I: imm", inst(rv::Opcode::ADDI, 10, 11, 12, 4),
       inst(rv::Opcode::ADDI, 10, 11, 12, -4), false},
      {"U: rs1 and rs2", inst(rv::Opcode::LUI, 10, 11, 12, 4),
       inst(rv::Opcode::LUI, 10, 1, 2, 4), true},
      {"U: rd", inst(rv::Opcode::LUI, 10, 11, 12, 4),
       inst(rv::Opcode::LUI, 9, 11, 12, 4), false},
      {"Load: rs2", inst(rv::Opcode::LD, 10, 2, 12, 8),
       inst(rv::Opcode::LD, 10, 2, 13, 8), true},
      {"Load: rs1", inst(rv::Opcode::LD, 10, 2, 12, 8),
       inst(rv::Opcode::LD, 10, 3, 12, 8), false},
      {"Store: rd", inst(rv::Opcode::SD, 10, 2, 12, 8),
       inst(rv::Opcode::SD, 11, 2, 12, 8), true},
      {"Store: rs2", inst(rv::Opcode::SD, 10, 2, 12, 8),
       inst(rv::Opcode::SD, 10, 2, 13, 8), false},
      {"opcode", inst(rv::Opcode::ADD, 10, 11, 12, 0),
       inst(rv::Opcode::SUB, 10, 11, 12, 0), false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    EXPECT_EQ(c.a.to_string() == c.b.to_string(), c.same)
        << c.a.to_string() << c.b.to_string();
    EXPECT_EQ(memo_key(c.a) == memo_key(c.b), c.same);
  }
}

TEST(RvMemoKey, MnemonicsAndRegisterNamesAreInjective) {
  std::set<std::string_view> mnemonics;
  for (const auto op : rv::all_opcodes()) mnemonics.insert(rv::mnemonic(op));
  EXPECT_EQ(mnemonics.size(), rv::all_opcodes().size());
  std::set<std::string_view> names;
  for (std::uint8_t r = 0; r < 32; ++r) names.insert(rv::reg_name(rv::Reg{r}));
  EXPECT_EQ(names.size(), 32u);
}
