// Tests for the pipeline simulator and the simulation-based cost models
// (hardware oracle, uiCA stand-in, MCA-like static model).
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "sim/bottleneck.h"
#include "sim/models.h"
#include "sim/pipeline.h"
#include "util/contract.h"
#include "x86/parser.h"

namespace cs = comet::sim;
namespace cc = comet::cost;
namespace cu = comet::util;
namespace cx = comet::x86;

namespace {
cx::BasicBlock bb(const char* text) { return cx::parse_block(text); }
const cc::MicroArch HSW = cc::MicroArch::Haswell;
const cc::MicroArch SKL = cc::MicroArch::Skylake;
}  // namespace

TEST(Pipeline, EmptyBlockIsZero) {
  EXPECT_DOUBLE_EQ(cs::simulate_throughput(cx::BasicBlock{}, HSW), 0.0);
}

TEST(Pipeline, Deterministic) {
  const auto block = bb("add rcx, rax\nmov rdx, rcx\npop rbx");
  EXPECT_DOUBLE_EQ(cs::simulate_throughput(block, HSW),
                   cs::simulate_throughput(block, HSW));
}

TEST(Pipeline, IndependentMovsAreIssueBound) {
  // 4 independent moves on a 4-wide machine: ~1 cycle/iteration.
  const auto block = bb(R"(
    mov rax, 1
    mov rcx, 2
    mov rsi, 3
    mov rdi, 4
  )");
  const double tp = cs::simulate_throughput(block, HSW);
  EXPECT_NEAR(tp, 1.0, 0.35);
}

TEST(Pipeline, LoopCarriedChainIsLatencyBound) {
  // add rax, rax feeds itself across iterations: >= 1 cycle each, and a
  // dependent 3-instruction chain runs ~3 cycles/iter.
  const auto chain = bb(R"(
    add rax, rcx
    add rax, rsi
    add rax, rdi
  )");
  const double tp = cs::simulate_throughput(chain, HSW);
  // rax chain is loop-carried: 3 dependent adds ~ 3 cycles.
  EXPECT_GT(tp, 2.0);
  EXPECT_LT(tp, 4.5);
}

TEST(Pipeline, DivDominatesThroughput) {
  const auto block = bb("div rcx\nmov rsi, 3");
  const double tp = cs::simulate_throughput(block, HSW);
  EXPECT_GT(tp, 15.0);
}

TEST(Pipeline, ZeroIdiomBreaksDependency) {
  // Without idiom recognition the xor extends the rax chain; with it the
  // chain is cut every iteration.
  const auto block = bb(R"(
    xor eax, eax
    add rax, rcx
    add rax, rsi
  )");
  cs::SimOptions with;
  cs::SimOptions without;
  without.zero_idiom = false;
  EXPECT_LE(cs::simulate_throughput(block, HSW, with),
            cs::simulate_throughput(block, HSW, without));
}

TEST(Pipeline, IsZeroIdiomDetection) {
  EXPECT_TRUE(cs::is_zero_idiom(cx::parse_instruction("xor eax, eax")));
  EXPECT_TRUE(cs::is_zero_idiom(cx::parse_instruction("pxor xmm1, xmm1")));
  EXPECT_TRUE(
      cs::is_zero_idiom(cx::parse_instruction("vxorps xmm0, xmm5, xmm5")));
  EXPECT_FALSE(cs::is_zero_idiom(cx::parse_instruction("xor eax, ecx")));
  EXPECT_FALSE(
      cs::is_zero_idiom(cx::parse_instruction("vxorps xmm0, xmm5, xmm6")));
  EXPECT_FALSE(cs::is_zero_idiom(cx::parse_instruction("add rax, rax")));
}

TEST(Pipeline, UopCounts) {
  EXPECT_EQ(cs::uop_count(cx::parse_instruction("add rax, rcx")), 1);
  EXPECT_EQ(cs::uop_count(cx::parse_instruction("add rax, qword ptr [rdi]")),
            2);
  EXPECT_EQ(
      cs::uop_count(cx::parse_instruction("mov qword ptr [rdi], rax")), 3);
  EXPECT_EQ(cs::uop_count(cx::parse_instruction("push rbx")), 3);
}

TEST(Pipeline, StoreHeavyBlockBoundByStorePort) {
  // Two stores per iteration, one store-data port: >= 2 cycles.
  const auto block = bb(R"(
    mov qword ptr [rdi + 8], rax
    mov qword ptr [rdi + 16], rcx
  )");
  EXPECT_GE(cs::simulate_throughput(block, HSW), 1.8);
}

TEST(Pipeline, MoreIterationsConvergeToSameSlope) {
  const auto block = bb("add rcx, rax\nmov rdx, rcx\npop rbx");
  cs::SimOptions a, b;
  a.iterations = 32;
  b.iterations = 128;
  EXPECT_NEAR(cs::simulate_throughput(block, HSW, a),
              cs::simulate_throughput(block, HSW, b), 0.2);
}

TEST(Pipeline, InvalidOptionsAreRejected) {
  // Without the contract, issue_width = 0 yields NaN through 0/0 front-end
  // times instead of an error.
  const auto block = bb("add rcx, rax\nmov rdx, rcx");
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<cs::SimOptions> bad(7);
  bad[0].issue_width = 0;
  bad[1].issue_width = -4;
  bad[2].latency_scale = 0.0;
  bad[3].latency_scale = nan;
  bad[4].latency_scale = inf;
  bad[5].div_occupancy_extra = -1.0;
  bad[6].div_occupancy_extra = nan;
  for (const auto& opt : bad) {
    EXPECT_THROW(cs::simulate_throughput(block, HSW, opt),
                 cu::ContractViolation);
    EXPECT_THROW(cs::simulate_throughput(cx::BasicBlock{}, HSW, opt),
                 cu::ContractViolation);
    EXPECT_THROW(cs::analyze_bottleneck(block, HSW, opt),
                 cu::ContractViolation);
  }
  cs::SimOptions edge;
  edge.issue_width = 1;
  edge.div_occupancy_extra = 0.0;
  EXPECT_GT(cs::simulate_throughput(block, HSW, edge), 0.0);
}

// ---------- models ----------

TEST(Models, MotivatingBlockThroughputIsPlausible) {
  // Paper: Ithemal predicts 1.3 cycles for Listing 1(a) on Haswell.
  const auto block = bb("add rcx, rax\nmov rdx, rcx\npop rbx");
  const cs::HardwareOracle oracle(HSW);
  const double tp = oracle.predict(block);
  EXPECT_GT(tp, 0.5);
  EXPECT_LT(tp, 3.5);
}

TEST(Models, UiCATracksOracleClosely) {
  const cs::HardwareOracle oracle(HSW);
  const cs::UiCASimModel uica(HSW);
  for (const char* text : {
           "add rcx, rax\nmov rdx, rcx\npop rbx",
           "mov rax, 1\nmov rcx, 2\nmov rsi, 3\nmov rdi, 4",
           "imul rax, r15\nadd rax, 7\nshr rax, 3",
           "addss xmm0, xmm1\nmulss xmm2, xmm0\nmovss xmm3, xmm2",
       }) {
    const auto block = bb(text);
    const double o = oracle.predict(block);
    const double u = uica.predict(block);
    EXPECT_LT(std::abs(o - u) / o, 0.35) << text << " oracle=" << o
                                         << " uica=" << u;
  }
}

TEST(Models, McaIgnoresLoopCarriedDeps) {
  // Latency-bound chain: MCA-like static model underestimates.
  const auto chain = bb(R"(
    imul rax, rcx
    imul rax, rsi
  )");
  const cs::HardwareOracle oracle(HSW);
  const cs::McaLikeModel mca(HSW);
  EXPECT_LT(mca.predict(chain), oracle.predict(chain));
}

TEST(Models, MeasuredThroughputIsDeterministicAndNearOracle) {
  const auto block = bb("add rcx, rax\nmov rdx, rcx\npop rbx");
  const double m1 = cs::measured_throughput(block, HSW);
  const double m2 = cs::measured_throughput(block, HSW);
  EXPECT_DOUBLE_EQ(m1, m2);
  const cs::HardwareOracle oracle(HSW);
  EXPECT_NEAR(m1, oracle.predict(block), oracle.predict(block) * 0.025);
}

TEST(Models, MeasurementNoiseDiffersAcrossBlocks) {
  const auto b1 = bb("add rcx, rax\nmov rdx, rcx");
  const auto b2 = bb("add rcx, rax\nmov rsi, rcx");
  const cs::HardwareOracle oracle(HSW);
  const double r1 = cs::measured_throughput(b1, HSW) / oracle.predict(b1);
  const double r2 = cs::measured_throughput(b2, HSW) / oracle.predict(b2);
  EXPECT_NE(r1, r2);
}

TEST(Models, SkylakeFasterOnFpHeavyBlocks) {
  const auto block = bb(R"(
    divss xmm0, xmm1
    addss xmm2, xmm0
    mulss xmm3, xmm2
  )");
  const cs::HardwareOracle hsw(HSW);
  const cs::HardwareOracle skl(SKL);
  EXPECT_LT(skl.predict(block), hsw.predict(block));
}

TEST(Models, Names) {
  EXPECT_EQ(cs::HardwareOracle(HSW).name(), "oracle-HSW");
  EXPECT_EQ(cs::UiCASimModel(SKL).name(), "uica-SKL");
  EXPECT_EQ(cs::McaLikeModel(HSW).name(), "mca-HSW");
}

// Parameterized property: for a corpus of blocks, throughput is bounded
// below by the issue-width bound (n_uops / 4, slackened) and is finite.
class SimBounds : public ::testing::TestWithParam<const char*> {};

TEST_P(SimBounds, ThroughputRespectsIssueBound) {
  const auto block = bb(GetParam());
  int uops = 0;
  for (const auto& inst : block.instructions) uops += cs::uop_count(inst);
  const double tp = cs::simulate_throughput(block, HSW);
  EXPECT_GE(tp, uops / 4.0 * 0.7);
  EXPECT_LT(tp, 1000.0);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, SimBounds,
    ::testing::Values("add rcx, rax\nmov rdx, rcx\npop rbx",
                      "mov rax, 1\nmov rcx, 2\nmov rsi, 3\nmov rdi, 4",
                      "div rcx\nmov rsi, 3",
                      "mov qword ptr [rdi + 8], rax\nmov rcx, qword ptr [rdi + 8]",
                      "vdivss xmm0, xmm0, xmm6\nvmulss xmm7, xmm0, xmm0",
                      "push rbx\npop rcx\npush rdx\npop rsi"));
