// Golden digests of the pipeline simulator. Every simulator-backed cost
// model (the hardware oracle, uiCA, the MCA-like model), the bottleneck
// analysis and every synthetic BHive label run through
// sim::simulate_throughput, so any rewrite of it must be bit-identical:
// the same block and options must yield the same throughput and the same
// steady-state trace. These tests hash the bit pattern of every throughput
// and every SimTrace field into one FNV-1a digest per simulator
// configuration, over ~100 seeded generated blocks plus Γ samples of them
// (the renamed, rewritten traffic the explainer actually sends), and over
// hand-written blocks that pin the memory-slot key rule, the stack engine,
// zero idioms and the divider.
//
// The expected digests were recorded before the simulator's inner loop was
// rewritten on flat state and must never be edited to make a change pass:
// a mismatch means the change altered the simulator's arithmetic.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "bhive/generator.h"
#include "perturb/perturber.h"
#include "sim/pipeline.h"
#include "x86/parser.h"

namespace cb = comet::bhive;
namespace cc = comet::cost;
namespace cp = comet::perturb;
namespace cs = comet::sim;
namespace cx = comet::x86;
using comet::util::Rng;

namespace {

constexpr std::size_t kBlocksPerSource = 50;
constexpr int kSamplesPerBlock = 6;

/// Incremental 64-bit FNV-1a.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) {  // little-endian, host independent
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void ints(const std::vector<int>& v) {
    u64(v.size());
    for (const int x : v) u64(static_cast<std::uint64_t>(x));
  }
};

/// The simulator configurations the library uses: the hardware oracle,
/// the uiCA and MCA-like models (as configured in sim/models.cpp), and the
/// dependency-only bound of the bottleneck analysis (sim/bottleneck.cpp).
cs::SimOptions oracle_options() { return {}; }

cs::SimOptions uica_options() {
  cs::SimOptions o;
  o.latency_scale = 1.05;
  o.round_latencies = true;
  o.div_occupancy_extra = 1.0;
  return o;
}

cs::SimOptions mca_options() {
  cs::SimOptions o;
  o.model_loop_carried = false;
  o.zero_idiom = false;
  o.round_latencies = true;
  return o;
}

cs::SimOptions dependency_only_options() {
  cs::SimOptions o;
  o.ignore_ports = true;
  o.issue_width = 1000000;
  return o;
}

/// Hash one simulation of `block`: the throughput and the whole trace.
void digest_one(Fnv1a& d, const cx::BasicBlock& block, cc::MicroArch uarch,
                const cs::SimOptions& options) {
  cs::SimTrace trace;
  d.f64(cs::simulate_throughput(block, uarch, options, &trace));
  for (const double busy : trace.port_busy) d.f64(busy);
  d.u64(static_cast<std::uint64_t>(trace.window_iterations));
  d.u64(static_cast<std::uint64_t>(trace.uops_per_iteration));
  d.ints(trace.frontend_stalls);
  d.ints(trace.dependency_stalls);
  d.ints(trace.port_stalls);
  d.byte(0xff);
}

/// Hash `blocks` under `options` on both microarchitectures.
std::uint64_t digest(const std::vector<cx::BasicBlock>& blocks,
                     const cs::SimOptions& options) {
  Fnv1a d;
  for (const auto uarch : {cc::MicroArch::Haswell, cc::MicroArch::Skylake}) {
    for (const auto& block : blocks) digest_one(d, block, uarch, options);
  }
  return d.h;
}

/// ~100 seeded generated Clang/OpenBLAS blocks, each followed by Γ samples
/// of it (unconstrained, so renames and opcode rewrites both occur).
const std::vector<cx::BasicBlock>& golden_traffic() {
  static const std::vector<cx::BasicBlock> traffic = [] {
    std::vector<cx::BasicBlock> out;
    for (const auto source :
         {cb::BlockSource::Clang, cb::BlockSource::OpenBLAS}) {
      cb::GeneratorOptions opts;
      opts.source = source;
      const cb::BlockGenerator gen(opts);
      Rng rng(source == cb::BlockSource::Clang ? 0x51C1 : 0x51B1);
      for (std::size_t i = 0; i < kBlocksPerSource; ++i) {
        auto block = gen.generate(rng);
        const cp::Perturber p(block);
        Rng sample_rng(2000 + out.size());
        out.push_back(std::move(block));
        for (int s = 0; s < kSamplesPerBlock; ++s) {
          out.push_back(p.sample({}, sample_rng).block);
        }
      }
    }
    return out;
  }();
  return traffic;
}

/// Digest of a hand-written block under all four configurations.
std::uint64_t edge_digest(const cx::BasicBlock& block) {
  Fnv1a d;
  for (const auto& options : {oracle_options(), uica_options(), mca_options(),
                              dependency_only_options()}) {
    d.u64(digest({block}, options));
  }
  return d.h;
}

cx::BasicBlock bb(const char* text) { return cx::parse_block(text); }

}  // namespace

TEST(SimGolden, TrafficIsNonTrivial) {
  const auto& traffic = golden_traffic();
  EXPECT_EQ(traffic.size(), 2 * kBlocksPerSource * (1 + kSamplesPerBlock));
  std::size_t with_mem = 0;
  for (const auto& block : traffic) {
    for (const auto& inst : block.instructions) {
      for (const auto& op : inst.operands) with_mem += op.is_mem() ? 1 : 0;
    }
  }
  EXPECT_GT(with_mem, traffic.size());
}

TEST(SimGolden, OracleStream) {
  EXPECT_EQ(digest(golden_traffic(), oracle_options()),
            0x842bdeed6d390ee7ULL);
}

TEST(SimGolden, UiCAStream) {
  EXPECT_EQ(digest(golden_traffic(), uica_options()),
            0xe2e48c4ea4238c42ULL);
}

TEST(SimGolden, McaLikeStream) {
  EXPECT_EQ(digest(golden_traffic(), mca_options()),
            0x77c00234ed8c0badULL);
}

TEST(SimGolden, DependencyOnlyStream) {
  EXPECT_EQ(digest(golden_traffic(), dependency_only_options()),
            0xe27939e7466ebbf1ULL);
}

// A 32-bit load of the slot a 64-bit store wrote: the access width is not
// part of a memory location's identity, so the chain is loop-carried.
TEST(SimGolden, SameAddressTwoWidths) {
  const auto block = bb(R"(
    mov ecx, dword ptr [rdi + 8]
    imul rcx, rcx
    mov qword ptr [rdi + 8], rcx
  )");
  EXPECT_EQ(edge_digest(block), 0x9306673968bad11bULL);
}

// [rdi + 8] and [rdi + rdx + 8] are different locations, and so are two
// scales of the same index; the scale of an index-free operand is not part
// of its identity.
TEST(SimGolden, IndexAndScaleDistinguishSlots) {
  const auto block = bb(R"(
    mov rax, qword ptr [rdi + rdx + 8]
    add rax, 3
    mov qword ptr [rdi + 8], rax
    mov rcx, qword ptr [rdi + 2*rdx + 16]
    imul rcx, rax
    mov qword ptr [rdi + 4*rdx + 16], rcx
  )");
  EXPECT_EQ(edge_digest(block), 0x7d8c5341f4418e17ULL);

  // The same chain with the store's index-free operand carrying a scale
  // other than 1 (only constructible programmatically).
  auto scaled = bb(R"(
    mov rax, qword ptr [rdi + 8]
    add rax, rcx
    mov qword ptr [rdi + 8], rax
  )");
  cx::MemOperand m = scaled.instructions[2].operands[0].as_mem();
  m.scale = 4;
  scaled.instructions[2].operands[0] = cx::Operand::mem(m);
  EXPECT_EQ(edge_digest(scaled), edge_digest(bb(R"(
    mov rax, qword ptr [rdi + 8]
    add rax, rcx
    mov qword ptr [rdi + 8], rax
  )")));
  EXPECT_EQ(edge_digest(scaled), 0x4e116252c11e1212ULL);
}

// push/pop update rsp in the stack engine, off the latency-critical path.
TEST(SimGolden, StackEngine) {
  const auto block = bb(R"(
    push rbx
    push rax
    pop rcx
    mov rdx, qword ptr [rsp + 8]
    pop rsi
  )");
  EXPECT_EQ(edge_digest(block), 0x7319b93050cebb42ULL);
}

TEST(SimGolden, ZeroIdioms) {
  const auto block = bb(R"(
    xor eax, eax
    add rax, rcx
    vxorps xmm0, xmm1, xmm1
    addps xmm0, xmm2
    pxor xmm3, xmm3
    sub rdx, rdx
  )");
  EXPECT_EQ(edge_digest(block), 0x5f9fabe34d10f3c5ULL);
}

TEST(SimGolden, Divide) {
  const auto block = bb(R"(
    xor edx, edx
    div rcx
    mov rcx, rax
    divsd xmm0, xmm1
    imul rax, rdx
  )");
  EXPECT_EQ(edge_digest(block), 0x0df13b4c384f4634ULL);
}
