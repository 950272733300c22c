// Tests for the cost layer: throughput tables, the crude interpretable
// model C, and its ground-truth explanations.
#include <gtest/gtest.h>

#include "cost/crude_model.h"
#include "cost/throughput_table.h"
#include "x86/parser.h"

namespace cc = comet::cost;
namespace cg = comet::graph;
namespace cx = comet::x86;

namespace {
cx::Instruction inst(const char* text) { return cx::parse_instruction(text); }
cx::BasicBlock bb(const char* text) { return cx::parse_block(text); }
const cc::MicroArch HSW = cc::MicroArch::Haswell;
const cc::MicroArch SKL = cc::MicroArch::Skylake;

// Haswell latency as the simulator reads it: inst_timing with the load and
// store flags of the instruction's own semantics.
double latency(const char* text) {
  const cx::Instruction i = inst(text);
  const cx::InstSemantics sem = cx::semantics(i);
  const bool load = (sem.mem && sem.mem->read) || sem.stack_mem_read;
  const bool store = (sem.mem && sem.mem->write) || sem.stack_mem_write;
  return cc::inst_timing(i, HSW, load, store).latency;
}
}  // namespace

// ---------- throughput tables ----------

TEST(ThroughputTable, DivIsExpensive) {
  EXPECT_GT(cc::inst_throughput(inst("div rcx"), HSW), 10.0);
  EXPECT_GT(cc::inst_throughput(inst("div rcx"), HSW),
            cc::inst_throughput(inst("add rax, rcx"), HSW) * 10);
}

TEST(ThroughputTable, NarrowDivIsCheaperThanWide) {
  EXPECT_LT(cc::inst_throughput(inst("div ecx"), HSW),
            cc::inst_throughput(inst("div rcx"), HSW));
}

TEST(ThroughputTable, StoreCostsMoreThanRegMove) {
  EXPECT_GT(cc::inst_throughput(inst("mov qword ptr [rdi + 8], rax"), HSW),
            cc::inst_throughput(inst("mov rdi, rbp"), HSW));
}

TEST(ThroughputTable, SkylakeImprovesFpDivide) {
  EXPECT_LT(cc::inst_throughput(inst("divss xmm0, xmm1"), SKL),
            cc::inst_throughput(inst("divss xmm0, xmm1"), HSW));
}

TEST(ThroughputTable, SkylakeImprovesFpAdd) {
  EXPECT_LT(cc::inst_throughput(inst("addss xmm0, xmm1"), SKL),
            cc::inst_throughput(inst("addss xmm0, xmm1"), HSW));
}

TEST(ThroughputTable, LoadAddsLatencyToChain) {
  EXPECT_GT(latency("mov rax, qword ptr [rdi]"), latency("mov rax, rdi"));
}

TEST(ThroughputTable, AllOpcodesHavePositiveTimings) {
  // Smoke: timings must be positive for every parseable reg-form opcode.
  for (const char* text :
       {"imul rax, rcx", "shl rax, 3", "lea rdx, [rax + 8]", "popcnt rax, rcx",
        "vfmadd231ss xmm1, xmm2, xmm3", "pshufd xmm0, xmm1, 2",
        "cvtsi2ss xmm0, eax", "xchg rax, rcx", "push rbx", "nop"}) {
    EXPECT_GT(cc::inst_throughput(inst(text), HSW), 0.0) << text;
    EXPECT_GE(latency(text), 0.0) << text;
  }
}

// ---------- crude model C ----------

TEST(CrudeModel, NumInstsTermIsNOver4) {
  const cc::CrudeModel model(HSW);
  EXPECT_DOUBLE_EQ(model.cost_num_insts(8), 2.0);
  EXPECT_DOUBLE_EQ(model.cost_num_insts(5), 1.25);
}

TEST(CrudeModel, PredictionIsMaxOfFeatureCosts) {
  const cc::CrudeModel model(HSW);
  // 4 cheap independent instructions: eta term (4/4 = 1.0) dominates.
  const auto cheap = bb(R"(
    mov rax, 1
    mov rcx, 2
    mov rsi, 3
    mov rdi, 4
  )");
  EXPECT_DOUBLE_EQ(model.predict(cheap), 1.0);

  // A div dominates everything.
  const auto divblock = bb(R"(
    mov rax, 1
    div rcx
    mov rsi, 3
    mov rdi, 4
  )");
  EXPECT_GT(model.predict(divblock), 10.0);
}

TEST(CrudeModel, RawDependencyCostIsSumOfEndpoints) {
  const cc::CrudeModel model(HSW);
  const auto block = bb(R"(
    add rcx, rax
    mov rdx, rcx
  )");
  const auto g = cg::DepGraph::build(block);
  bool checked = false;
  for (const auto& e : g.edges()) {
    if (e.kind == cg::DepKind::RAW) {
      EXPECT_DOUBLE_EQ(model.cost_dep(block, e),
                       model.cost_inst(block.instructions[0]) +
                           model.cost_inst(block.instructions[1]));
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(CrudeModel, WarWawDependenciesAreFree) {
  const cc::CrudeModel model(HSW);
  const auto block = bb(R"(
    mov ecx, edx
    xor edx, edx
  )");
  const auto g = cg::DepGraph::build(block);
  for (const auto& e : g.edges()) {
    if (e.kind != cg::DepKind::RAW) {
      EXPECT_DOUBLE_EQ(model.cost_dep(block, e), 0.0);
    }
  }
}

TEST(CrudeModel, GroundTruthContainsArgmaxFeature) {
  const cc::CrudeModel model(HSW);
  const auto divblock = bb(R"(
    mov rax, 1
    div rcx
    mov rsi, 3
    mov rdi, 4
  )");
  const auto gt = model.ground_truth(divblock);
  EXPECT_FALSE(gt.empty());
  // div's own cost and the RAW dep (mov rax -> div) both hit the max only
  // if dep cost >= div cost; at minimum the div instruction cost features
  // must be related to div. Check that some feature refers to index 1 or a
  // dep ending there.
  bool mentions_div = false;
  for (const auto& f : gt.items()) {
    if (f.is_inst() && f.as_inst().index == 1) mentions_div = true;
    if (f.is_dep() && (f.as_dep().to == 1 || f.as_dep().from == 1)) {
      mentions_div = true;
    }
  }
  EXPECT_TRUE(mentions_div);
}

TEST(CrudeModel, GroundTruthEtaWhenCheapUniform) {
  const cc::CrudeModel model(HSW);
  const auto cheap = bb(R"(
    mov rax, 1
    mov rcx, 2
    mov rsi, 3
    mov rdi, 4
    mov r8, 5
  )");
  const auto gt = model.ground_truth(cheap);
  bool has_eta = false;
  for (const auto& f : gt.items()) has_eta |= f.is_num_insts();
  EXPECT_TRUE(has_eta);
}

TEST(CrudeModel, GroundTruthFeaturesAllAttainPrediction) {
  const cc::CrudeModel model(HSW);
  const auto block = bb(R"(
    lea rdx, [rax + 1]
    mov qword ptr [rdi + 24], rdx
    mov byte ptr [rax], 80
    mov rsi, qword ptr [r14 + 32]
    mov rdi, rbp
  )");
  const double c = model.predict(block);
  const auto gt = model.ground_truth(block);
  const auto g = cg::DepGraph::build(block);
  for (const auto& f : gt.items()) {
    switch (f.type()) {
      case cg::FeatureType::NumInsts:
        EXPECT_DOUBLE_EQ(model.cost_num_insts(block.size()), c);
        break;
      case cg::FeatureType::Inst:
        EXPECT_DOUBLE_EQ(
            model.cost_inst(block.instructions[f.as_inst().index]), c);
        break;
      case cg::FeatureType::Dep: {
        bool any = false;
        for (const auto& e : g.edges()) {
          if (e.from == f.as_dep().from && e.to == f.as_dep().to &&
              e.kind == f.as_dep().kind &&
              std::abs(model.cost_dep(block, e) - c) < 1e-9) {
            any = true;
          }
        }
        EXPECT_TRUE(any);
        break;
      }
    }
  }
}

TEST(CrudeModel, NameIncludesUarch) {
  EXPECT_EQ(cc::CrudeModel(HSW).name(), "crude-HSW");
  EXPECT_EQ(cc::CrudeModel(SKL).name(), "crude-SKL");
}

TEST(CrudeModel, HaswellAndSkylakeDiffer) {
  const auto block = bb("divss xmm0, xmm1\nmov rax, 1\nmov rcx, 2\nmov rsi, 3");
  EXPECT_NE(cc::CrudeModel(HSW).predict(block),
            cc::CrudeModel(SKL).predict(block));
}
